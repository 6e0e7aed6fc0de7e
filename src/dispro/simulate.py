"""Synthetic cohort generation.

Parameters are drawn from the model's priors, patients are assigned to two
(or more) demographic groups, latents are drawn from their group
distributions, visits from the discretized severity-dependent point process,
and features emitted with Gaussian noise at every visit bin. The generating
parameters and per-patient latents are returned in a truth sidecar keyed by
the same canonical names the sampler output uses.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .model import (
    GROUP_ROLES,
    LOG_RATE_CAP,
    ModelVariant,
    latent_names,
    param_layout,
)
from .priors import simulation_priors
from .types import (
    ConfigurationError,
    Dataset,
    GroupId,
    GroupParams,
    PatientLatents,
    PatientRecord,
    SharedParams,
)


@dataclass
class SimConfig:
    """Synthetic cohort settings.

    group_probability is the chance a patient belongs to the non-pinned
    group(s). n_bins counts bins after the first visit, so records span
    n_bins * bin_width time units. group_specific_rates draws a separate
    progression-rate distribution per group (used by the ablation-bias
    experiment, where groups must differ in all three disparities); the
    default draws a single shared pair.
    """

    n_patients: int = 1000
    group_probability: float = 0.5
    n_features: int = 4
    n_bins: int = 50
    bin_width: float = 1.0 / 50.0
    seed: int = 0
    n_groups: int = 2
    group_specific_rates: bool = False

    def __post_init__(self):
        if not (0.0 < self.group_probability < 1.0):
            raise ConfigurationError("group_probability must lie in (0, 1)")
        if min(self.n_patients, self.n_features, self.n_bins, self.n_groups) < 1:
            raise ConfigurationError("counts must be positive")
        if self.n_groups < 2:
            raise ConfigurationError("need a pinned and at least one other group")
        if self.n_groups > self.n_patients * (self.n_bins + 1):
            raise ConfigurationError("n_groups exceeds the cohort's "
                                     "n_patients * (n_bins + 1) data rows")
        cells = self.n_patients * (self.n_bins + 1) * self.n_features
        if cells > np.iinfo(np.intp).max:
            raise ConfigurationError(f"{cells} feature cells exceed numpy's "
                                     "largest array")
        if not 0 < self.bin_width < np.inf:
            raise ConfigurationError("bin_width must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")


@dataclass
class TruthSidecar:
    """Ground truth for a synthetic dataset: canonical parameter names to
    values, plus per-patient latents and the generating config."""

    params: dict[str, float]
    latents: dict[str, float]
    meta: dict = field(default_factory=dict)

    def latent(self, patient_id: str) -> PatientLatents:
        return PatientLatents(*(self.latents[name]
                                for name in latent_names([patient_id])))

    def true_severity(self, patient_id: str, time: float) -> float:
        return self.latent(patient_id).severity(time)

    def param_bundles(self):
        """Rebuild (SharedParams, [GroupParams]) from the names
        ``truth_param_names`` gives, sized by the generating config in meta."""
        d = self.meta["n_features"]
        rows, table = param_layout(d, self.meta["n_groups"], None,
                                   ModelVariant.FULL)
        x = [self.params[name] for name, _, _ in rows]
        shared = SharedParams(x[:d], x[d:2 * d], x[2 * d:3 * d], x[3 * d],
                              x[3 * d + 1])
        return shared, [GroupParams(*(x[i] for i in row)) for row in table]


def draw_true_params(cfg: SimConfig, rng: np.random.Generator):
    """Draw generating parameters from the priors. The pinned group keeps
    init N(0, 1) and zero visit offset; rate parameters are drawn once and
    shared across groups unless cfg.group_specific_rates."""
    pr = simulation_priors()
    d = cfg.n_features
    loadings = np.empty(d)
    loadings[0] = pr.loading0.draw(rng)
    for j in range(1, d):
        loadings[j] = pr.loading.draw(rng)
    shared = SharedParams(
        loadings=loadings,
        feat_intercepts=pr.feat_intercept.draw(rng, size=d),
        noise_vars=pr.noise_var.draw(rng, size=d),
        visit_intercept=float(pr.visit_intercept.draw(rng)),
        visit_severity=float(pr.visit_severity.draw(rng)),
    )
    if not cfg.group_specific_rates:
        rate_mean = float(pr.rate_mean.draw(rng))
        rate_sd = float(pr.rate_sd.draw(rng))
    groups = []
    for g in range(cfg.n_groups):
        if cfg.group_specific_rates:
            rate_mean = float(pr.rate_mean.draw(rng))
            rate_sd = float(pr.rate_sd.draw(rng))
        if g == 0:
            groups.append(GroupParams(0.0, 1.0, rate_mean, rate_sd, 0.0))
        else:
            groups.append(GroupParams(
                init_sev_mean=float(pr.init_sev_mean.draw(rng)),
                init_sev_sd=float(pr.init_sev_sd.draw(rng)),
                rate_mean=rate_mean,
                rate_sd=rate_sd,
                visit_offset=float(pr.visit_offset.draw(rng)),
            ))
    return shared, groups


def _simulate_patient(pid, group, shared, gp, cfg, rng):
    sev0 = rng.normal(gp.init_sev_mean, gp.init_sev_sd)
    rate = rng.normal(gp.rate_mean, gp.rate_sd)
    t = np.arange(cfg.n_bins + 1)
    sev = sev0 + rate * t * cfg.bin_width
    eta = np.minimum(shared.visit_intercept + shared.visit_severity * sev
                     + gp.visit_offset, LOG_RATE_CAP)
    p_visit = -np.expm1(-np.exp(eta) * cfg.bin_width)
    visits = np.zeros(cfg.n_bins + 1, dtype=np.int8)
    visits[0] = 1
    visits[1:] = rng.random(cfg.n_bins) < p_visit[1:]
    features = np.full((cfg.n_bins + 1, cfg.n_features), np.nan)
    vbins = np.flatnonzero(visits)
    noise = rng.normal(size=(vbins.size, cfg.n_features)) * np.sqrt(shared.noise_vars)
    features[vbins] = (np.outer(sev[vbins], shared.loadings)
                       + shared.feat_intercepts + noise)
    record = PatientRecord(patient_id=pid, group=group, horizon=cfg.n_bins,
                           visits=visits, features=features)
    return record, PatientLatents(float(sev0), float(rate))


def simulate_dataset(cfg: SimConfig, params=None):
    """Generate one cohort. Returns (Dataset, TruthSidecar).

    Reproducibility contract: one root seed deterministically yields the
    parameter draw, the group assignment, and one independent substream per
    patient, so per-patient simulation order does not matter.
    """
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(2 + cfg.n_patients)
    if params is None:
        params = draw_true_params(cfg, np.random.Generator(np.random.Philox(streams[0])))
    shared, groups = params

    assign_rng = np.random.Generator(np.random.Philox(streams[1]))
    if cfg.n_groups == 2:
        assignment = (assign_rng.random(cfg.n_patients)
                      < cfg.group_probability).astype(int)
    else:
        probs = np.full(cfg.n_groups,
                        cfg.group_probability / (cfg.n_groups - 1))
        probs[0] = 1.0 - cfg.group_probability
        assignment = assign_rng.choice(cfg.n_groups, size=cfg.n_patients, p=probs)

    width = max(4, len(str(cfg.n_patients - 1)))
    group_ids = [GroupId(g) for g in range(cfg.n_groups)]
    patients, latents = [], {}
    for i in range(cfg.n_patients):
        pid = f"p{i:0{width}d}"
        g = int(assignment[i])
        rec, lat = _simulate_patient(
            pid, group_ids[g], shared, groups[g], cfg,
            np.random.Generator(np.random.Philox(streams[2 + i])))
        patients.append(rec)
        latents.update(zip(latent_names([pid]), (lat.init_sev, lat.rate)))

    data = Dataset(patients=patients, n_groups=cfg.n_groups,
                   n_features=cfg.n_features, bin_width=cfg.bin_width)
    truth = TruthSidecar(
        params=truth_param_names(shared, groups),
        latents=latents,
        meta={"seed": cfg.seed, "n_patients": cfg.n_patients,
              "n_bins": cfg.n_bins, "bin_width": cfg.bin_width,
              "n_groups": cfg.n_groups, "n_features": cfg.n_features,
              "group_probability": cfg.group_probability,
              "group_specific_rates": cfg.group_specific_rates},
    )
    return data, truth


def truth_param_names(shared: SharedParams, groups: list[GroupParams]) -> dict[str, float]:
    """Canonical name -> value map for generating parameters: the full
    variant's layout with no group pinned, so every group records all five
    entries (rate entries identical when shared), then the shared-rate pair
    as the means over groups."""
    d = shared.n_features
    rows, table = param_layout(d, len(groups), None, ModelVariant.FULL)
    x = np.empty(len(rows))
    x[:3 * d + 2] = np.concatenate([
        shared.loadings, shared.feat_intercepts, shared.noise_vars,
        [shared.visit_intercept, shared.visit_severity]])
    x[table] = [astuple(gp) for gp in groups]
    out = dict(zip((name for name, _, _ in rows), x.tolist()))
    for col in (2, 3):
        out[GROUP_ROLES[col]] = float(np.mean(x[table[:, col]]))
    return out


def sample_features_at(shared: SharedParams, group: GroupParams, t: float,
                       n: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the feature vector at time t for one group,
    marginalizing latents; the simulation-side counterpart of
    marginal_feature_moments."""
    sev = (rng.normal(group.init_sev_mean, group.init_sev_sd, size=n)
           + rng.normal(group.rate_mean, group.rate_sd, size=n) * t)
    noise = rng.normal(size=(n, shared.n_features)) * np.sqrt(shared.noise_vars)
    return np.outer(sev, shared.loadings) + shared.feat_intercepts + noise


def sample_visit_rates(shared: SharedParams, group: GroupParams, t: float,
                       n: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the visit rate at time t for one group."""
    sev = (rng.normal(group.init_sev_mean, group.init_sev_sd, size=n)
           + rng.normal(group.rate_mean, group.rate_sd, size=n) * t)
    return np.exp(shared.visit_intercept + shared.visit_severity * sev
                  + group.visit_offset)
