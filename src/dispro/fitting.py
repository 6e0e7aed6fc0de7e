"""Model fitting: wires a dataset and variant into the sampler and returns
named, constrained posterior draws.

Chain initialization is data-informed: the posterior has a mirrored mode
(latents negated, loadings negated and rescaled, the sign anchors pinned at
their bounds) that is thousands of nats below the real one but locally
stable, and chains started with the wrong severity orientation never leave
it. Orienting the initial loadings along the first principal component of
first-visit features, with per-patient least-squares severity lines, places
every chain in the correct basin; per-chain jitter keeps starts dispersed.
"""

from __future__ import annotations

import numpy as np

from .model import FULL_VARIANT, ProgressionModel, VariantConfig
from .priors import PriorSpec, TruncatedNormal
from .sampler import PosteriorDraws, SamplerConfig, ess, rhat, sample


def fit_model(data, priors: PriorSpec | None = None,
              variant: VariantConfig = FULL_VARIANT,
              config: SamplerConfig | None = None,
              threads: int = 1, non_centered: bool = True) -> PosteriorDraws:
    """Fit the progression model by NUTS.

    Every chain starts from the data-informed ``rough_init`` point, jittered
    per chain in unconstrained space (``jittered_init``) with its own
    substream of the seed. Sampling runs by default in the non-centered
    latent parameterization, which removes the funnel between group scale
    parameters and per-patient latents; draws are returned in the documented
    constrained space either way, under canonical parameter names, with
    dataset metadata attached for downstream estimators.
    """
    config = config or SamplerConfig()
    model = ProgressionModel(data, priors, variant)
    init_root = np.random.SeedSequence((config.seed, 0x1D15))
    init_rngs = [np.random.Generator(np.random.Philox(s))
                 for s in init_root.spawn(config.chains)]
    center = rough_init(model, data)
    inits = np.array([jittered_init(model, center, r, non_centered=non_centered)
                      for r in init_rngs])

    draws = sample(
        None, None, model.dim, config, init=inits,
        logp_and_grad=(model.logp_and_grad_noncentered if non_centered
                       else model.logp_and_grad),
        names=model.names,
        constrain=(model.constrain_noncentered if non_centered
                   else model.constrain),
        threads=threads,
        meta={
            "bin_width": data.bin_width,
            "n_groups": data.n_groups,
            "n_features": data.n_features,
            "pinned_group": data.pinned_group,
            "patient_ids": [p.patient_id for p in data.patients],
            "patient_groups": [p.group.index for p in data.patients],
            "horizon_by_patient": [p.horizon for p in data.patients],
            "variant": {"group_init": variant.group_init,
                        "group_rates": variant.group_rates,
                        "group_visits": variant.group_visits},
            "n_global": model.n_global,
            "seed": config.seed,
        },
    )
    return draws


def rough_init(model: ProgressionModel, data) -> np.ndarray:
    """A constrained starting point oriented by the data.

    Loadings start along the first principal component of first-visit
    features with the first coordinate positive (the sign pin); per-visit
    severities are scored against those loadings and per-patient lines fit
    by least squares give the latent starts; visit parameters start at
    group-level event-frequency estimates. Everything is clipped inside its
    support with margin.
    """
    d = data.n_features
    first_rows = np.array([p.features[0] for p in data.patients])
    first_rows = np.where(np.isfinite(first_rows), first_rows, np.nan)
    col_mean = np.nanmean(first_rows, axis=0)
    col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
    filled = np.where(np.isfinite(first_rows), first_rows, col_mean)
    pinned_rows = filled[[p.group.index == data.pinned_group
                          for p in data.patients]]
    if pinned_rows.shape[0] < 2:
        pinned_rows = filled
    cov = np.cov(filled - col_mean, rowvar=False, ddof=1).reshape(d, d)
    evals, evecs = np.linalg.eigh(cov)
    lam = evecs[:, -1] * np.sqrt(max(evals[-1], 1e-3))
    if lam[0] < 0:
        lam = -lam
    uniq = np.clip(np.diag(cov) - lam ** 2, 0.1, None)
    intercepts = pinned_rows.mean(axis=0)

    # severity score per observed visit, then a line per patient
    w = lam / uniq
    denom = float(lam @ w) + 1.0
    sev0 = np.zeros(data.n_patients)
    rate = np.zeros(data.n_patients)
    score_cache = []
    for i, p in enumerate(data.patients):
        tt, ss = [], []
        for t in p.visit_bins():
            row = p.features[t]
            obs = np.isfinite(row)
            if not obs.any():
                continue
            s = float(w[obs] @ (row[obs] - intercepts[obs])) / denom
            tt.append(t * data.bin_width)
            ss.append(s)
        score_cache.append((tt, ss))
        if len(ss) == 0:
            continue
        if len(ss) == 1:
            sev0[i] = ss[0]
        else:
            coef = np.polynomial.polynomial.polyfit(tt, ss, 1)
            sev0[i] = coef[0]
            rate[i] = coef[1]

    g_of = np.array([p.group.index for p in data.patients])
    G = data.n_groups
    group_z0_mean = np.zeros(G)
    group_rate_mean = np.zeros(G)
    group_z0_sd = np.ones(G)
    group_rate_sd = np.full(G, 0.3)
    for g in range(G):
        m = g_of == g
        if m.sum() >= 2:
            group_z0_mean[g] = float(sev0[m].mean())
            group_rate_mean[g] = float(rate[m].mean())
            group_z0_sd[g] = float(np.clip(sev0[m].std(ddof=1), 0.3, 3.0))
            group_rate_sd[g] = float(np.clip(rate[m].std(ddof=1), 0.05, 2.0))

    # visit-rate starts from per-group event frequencies
    ev_frac = np.zeros(G)
    for g in range(G):
        rows = [p.visits[1:] for p in data.patients if p.group.index == g]
        if rows:
            allv = np.concatenate(rows)
            ev_frac[g] = float(np.clip(allv.mean(), 1e-3, 1 - 1e-3))
    lam0 = -np.log1p(-ev_frac[data.pinned_group]) / data.bin_width
    beta0 = float(np.log(max(lam0, 1e-6)))

    x = np.empty(model.dim)
    for i, e in enumerate(model.entries):
        prior = model.priors.for_role(e.role, e.feature)
        if e.role in ("loading0", "loading"):
            val = lam[e.feature]
        elif e.role == "feat_intercept":
            j = i - d
            val = intercepts[j]
        elif e.role == "noise_var":
            j = i - 2 * d
            val = uniq[j]
        elif e.role == "visit_intercept":
            val = beta0
        elif e.role == "visit_severity":
            val = prior.mu
        else:
            g = int(e.name.split("[")[1][:-1]) if "[" in e.name else None
            if e.role == "init_sev_mean":
                val = group_z0_mean[g]
            elif e.role == "init_sev_sd":
                val = group_z0_sd[g]
            elif e.role == "rate_mean":
                val = (group_rate_mean[g] if g is not None
                       else float(rate.mean()))
            elif e.role == "rate_sd":
                val = (group_rate_sd[g] if g is not None
                       else float(np.clip(rate.std(ddof=1), 0.05, 2.0)))
            else:  # visit_offset
                base = max(lam0, 1e-6)
                lam_g = -np.log1p(-ev_frac[g]) / data.bin_width
                val = float(np.log(max(lam_g, 1e-6) / base))
        if isinstance(prior, TruncatedNormal):
            val = max(val, prior.lower + max(0.05, 0.05 * prior.sigma))
        elif e.lower is not None:
            val = max(val, e.lower + 0.05)
        x[i] = val
    base = model.n_global
    x[base::2] = sev0
    x[base + 1::2] = rate
    return x


def jittered_init(model: ProgressionModel, center_x: np.ndarray,
                  rng: np.random.Generator, non_centered: bool) -> np.ndarray:
    """Per-chain unconstrained start: the rough init jittered in
    unconstrained space."""
    if non_centered:
        gm, gs, rm, rs, _ = model._group_arrays(center_x)
        g_of = model.idx.group_of
        base = model.n_global
        theta = model.unconstrain_globals_only(center_x)
        theta[:base] += 0.1 * rng.standard_normal(base)
        u = (center_x[base::2] - gm[g_of]) / gs[g_of]
        w = (center_x[base + 1::2] - rm[g_of]) / rs[g_of]
        theta[base::2] = u + 0.2 * rng.standard_normal(model.n_patients)
        theta[base + 1::2] = w + 0.2 * rng.standard_normal(model.n_patients)
        return theta
    theta = model.unconstrain(center_x)
    theta += 0.1 * rng.standard_normal(model.dim)
    return theta


def global_names(draws: PosteriorDraws) -> list[str]:
    n_global = draws.meta.get("n_global")
    if n_global is not None:
        return draws.names[:n_global]
    return [n for n in draws.names
            if not (n.startswith("init_sev[p") or n.startswith("rate[p"))]


def convergence_summary(draws: PosteriorDraws) -> dict:
    """Per-global-parameter R-hat and ESS plus divergence counts."""
    per_param = {}
    for name in global_names(draws):
        try:
            r = rhat(draws, name)
        except Exception:
            r = float("nan")
        per_param[name] = {"rhat": r, "ess": ess(draws, name),
                           "mean": draws.mean(name), "sd": draws.sd(name)}
    div_by_chain = [int(draws.divergent[draws.chain_ids == c].sum())
                    for c in range(draws.n_chains)]
    return {
        "parameters": per_param,
        "divergences": {"per_chain": div_by_chain,
                        "fraction": float(draws.divergent.mean())},
        "max_global_rhat": max_global_rhat(draws),
        "warnings": list(draws.warnings),
    }


def max_global_rhat(draws: PosteriorDraws) -> float:
    worst = 0.0
    for name in global_names(draws):
        r = rhat(draws, name)
        if np.isfinite(r):
            worst = max(worst, r)
    return worst


def severity_means_by_patient(draws: PosteriorDraws) -> dict[str, tuple[float, float]]:
    """patient_id -> (posterior-mean initial severity, posterior-mean rate)."""
    out = {}
    for pid in draws.meta["patient_ids"]:
        out[pid] = (draws.mean(f"init_sev[{pid}]"), draws.mean(f"rate[{pid}]"))
    return out
