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

from .dataio import fit_meta
from .model import ModelVariant, ProgressionModel, latent_names
from .priors import PriorSpec, TruncatedNormal
from .sampler import PosteriorDraws, SamplerConfig, ess, rhat, sample
from .types import GroupParams, PatientLatents, SharedParams


def fit_model(data, priors: PriorSpec | None = None,
              variant: ModelVariant = ModelVariant.FULL,
              config: SamplerConfig | None = None) -> PosteriorDraws:
    """Fit the progression model by NUTS.

    Every chain starts from the data-informed ``rough_init`` point, jittered
    per chain in unconstrained space (``jittered_init``) with its own
    substream of the seed. Sampling runs in the non-centered latent
    parameterization, which removes the funnel between group scale
    parameters and per-patient latents; draws are returned in the documented
    constrained, centered space under canonical parameter names, with
    dataset metadata attached for downstream estimators.
    """
    config = config or SamplerConfig()
    model = ProgressionModel(data, priors, variant)
    init_root = np.random.SeedSequence((config.seed, 0x1D15))
    init_rngs = [np.random.Generator(np.random.Philox(s))
                 for s in init_root.spawn(config.chains)]
    center = rough_init(model, data)
    inits = np.array([jittered_init(model, center, r, non_centered=True)
                      for r in init_rngs])

    return sample(
        model.logp_and_grad_noncentered, model.dim, config, init=inits,
        names=model.names, constrain=model.constrain_noncentered,
        meta=fit_meta(data, variant, config.seed))


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
        if len(ss) == 1:
            sev0[i] = ss[0]
        elif ss:
            sev0[i], rate[i] = np.polynomial.polynomial.polyfit(tt, ss, 1)

    # visit rates from per-group event frequencies, relative to the pinned
    # group's
    event_rate = []
    for g in range(data.n_groups):
        rows = [p.visits[1:] for p in data.patients if p.group.index == g]
        frac = (float(np.clip(np.concatenate(rows).mean(), 1e-3, 1 - 1e-3))
                if rows else 0.0)
        event_rate.append(max(-np.log1p(-frac) / data.bin_width, 1e-6))
    base_rate = event_rate[data.pinned_group]

    pooled_rate = None if model.variant.group_rates else (
        float(rate.mean()), float(np.clip(rate.std(ddof=1), 0.05, 2.0)))
    g_of = np.array([p.group.index for p in data.patients])
    groups = []
    for g in range(data.n_groups):
        m = g_of == g
        init, rates = (0.0, 1.0), (0.0, 0.3)
        if m.sum() >= 2:
            init = (float(sev0[m].mean()),
                    float(np.clip(sev0[m].std(ddof=1), 0.3, 3.0)))
            rates = (float(rate[m].mean()),
                     float(np.clip(rate[m].std(ddof=1), 0.05, 2.0)))
        groups.append(GroupParams(*init, *(pooled_rate or rates),
                                  float(np.log(event_rate[g] / base_rate))))
    shared = SharedParams(lam, intercepts, uniq, float(np.log(base_rate)),
                          model.priors.visit_severity.mu)
    x = model.pack(shared, groups,
                   [PatientLatents(s, r) for s, r in zip(sev0, rate)])
    for i, e in enumerate(model.entries):
        if e.lower is not None:
            margin = (max(0.05, 0.05 * e.prior.sigma)
                      if isinstance(e.prior, TruncatedNormal) else 0.05)
            x[i] = max(x[i], e.lower + margin)
    return x


def jittered_init(model: ProgressionModel, center_x: np.ndarray,
                  rng: np.random.Generator, non_centered: bool) -> np.ndarray:
    """Per-chain unconstrained start: the rough init jittered in
    unconstrained space, with standardized latents when non-centered."""
    if not non_centered:
        theta = model.unconstrain(center_x)
        theta += 0.1 * rng.standard_normal(model.dim)
        return theta
    theta = model.to_noncentered(center_x)
    base, n = model.n_global, model.n_patients
    theta[:base] += 0.1 * rng.standard_normal(base)
    theta[base::2] += 0.2 * rng.standard_normal(n)
    theta[base + 1::2] += 0.2 * rng.standard_normal(n)
    return theta


def global_names(draws: PosteriorDraws) -> list[str]:
    return draws.names[:draws.meta["n_global"]]


def convergence_summary(draws: PosteriorDraws) -> dict:
    """Per-global-parameter R-hat and ESS plus divergence counts."""
    per_param = {name: {"rhat": rhat(draws, name), "ess": ess(draws, name),
                        "mean": draws.mean(name), "sd": draws.sd(name)}
                 for name in global_names(draws)}
    div_by_chain = [int(draws.divergent[draws.chain_ids == c].sum())
                    for c in range(draws.n_chains)]
    return {
        "parameters": per_param,
        "divergences": {"per_chain": div_by_chain,
                        "fraction": float(draws.divergent.mean())},
        "max_global_rhat": _worst_rhat(p["rhat"] for p in per_param.values()),
        "warnings": list(draws.warnings),
    }


def max_global_rhat(draws: PosteriorDraws) -> float:
    return _worst_rhat(rhat(draws, name) for name in global_names(draws))


def _worst_rhat(values) -> float:
    """Largest finite R-hat; 0.0 when none is finite."""
    return max((r for r in values if np.isfinite(r)), default=0.0)


def severity_means_by_patient(draws: PosteriorDraws) -> dict[str, tuple[float, float]]:
    """patient_id -> (posterior-mean initial severity, posterior-mean rate)."""
    pids = draws.meta["patient_ids"]
    means = [draws.mean(name) for name in latent_names(pids)]
    return dict(zip(pids, zip(means[::2], means[1::2])))
