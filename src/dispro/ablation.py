"""Ablation experiments: fit disparity-blind model variants on the same data
and measure the per-group severity estimation bias they induce, plus the
high-risk visit profile used to compare cohort rankings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import fit_model, max_global_rhat, severity_means_by_patient
from .model import ModelVariant
from .sampler import SamplerConfig
from .types import ConfigurationError


@dataclass
class BiasReport:
    """Per-group severity estimation error for one fitted variant.

    group_bias[g] is mean(inferred severity) - mean(true severity) over every
    (patient, bin) point in group g; group_correlation[g] the Pearson
    correlation of the same point sets. underserved_group names the group
    disadvantaged with respect to the disparity this variant ignores (for the
    full model: the group with higher true initial severity).
    """

    variant: ModelVariant
    group_bias: dict[int, float]
    group_correlation: dict[int, float | None]
    underserved_group: int
    max_global_rhat: float
    flagged_nonconverged: bool

    def bias_of(self, underserved: bool) -> float:
        items = [(g, b) for g, b in self.group_bias.items()]
        return next(b for g, b in items
                    if (g == self.underserved_group) == underserved)

    def correlation_of(self, underserved: bool):
        return next(c for g, c in self.group_correlation.items()
                    if (g == self.underserved_group) == underserved)


def underserved_group(variant: ModelVariant, truth) -> int:
    """The paper-style designation: the group disadvantaged with respect to
    the specific disparity the variant fails to capture; higher initial
    severity for the full (and all-ablated) model. ``truth`` is a
    TruthSidecar."""
    groups = sorted({int(k.split("[")[1][:-1]) for k in truth.params
                     if k.startswith("init_sev_mean[")})
    if variant is ModelVariant.NO_RATE:
        key = "rate_mean[{}]"
        pick = max
    elif variant is ModelVariant.NO_VISIT:
        key = "visit_offset[{}]"
        pick = min  # lower offset = visits less at the same severity
    else:
        key = "init_sev_mean[{}]"
        pick = max
    return pick(groups, key=lambda g: truth.params[key.format(g)])


def severity_error_points(draws, data, truth):
    """(group, inferred, true) severity arrays over all patient-bins.

    Inferred severity per (patient, bin) is the posterior-mean line; true
    severity the generating line.
    """
    est_by_pid = severity_means_by_patient(draws)
    groups, est, true = [], [], []
    for p in data.patients:
        sev0_e, rate_e = est_by_pid[p.patient_id]
        lat = truth.latent(p.patient_id)
        t = np.arange(p.horizon + 1) * data.bin_width
        est.append(sev0_e + rate_e * t)
        true.append(lat.init_sev + lat.rate * t)
        groups.append(np.full(p.horizon + 1, p.group.index))
    return (np.concatenate(groups), np.concatenate(est), np.concatenate(true))


def bias_report(draws, data, truth, variant: ModelVariant,
                rhat_threshold: float = 1.1) -> BiasReport:
    """Score one fitted variant against ground truth."""
    g_arr, est, true = severity_error_points(draws, data, truth)
    group_bias, group_corr = {}, {}
    for g in range(data.n_groups):
        m = g_arr == g
        if not np.any(m):
            continue
        group_bias[g] = float(np.mean(est[m] - true[m]))
        if est[m].std() == 0.0 or true[m].std() == 0.0:
            group_corr[g] = None
        else:
            group_corr[g] = float(np.corrcoef(est[m], true[m])[0, 1])
    worst = max_global_rhat(draws)
    return BiasReport(
        variant=variant,
        group_bias=group_bias,
        group_correlation=group_corr,
        underserved_group=underserved_group(variant, truth),
        max_global_rhat=worst,
        flagged_nonconverged=bool(worst > rhat_threshold),
    )


def expected_visits(shared, group, n_bins: int, bin_width: float) -> float:
    """Approximate expected follow-up visits per patient for one group, from
    the closed-form population rate (first-order in the per-bin
    probability)."""
    from .model import expected_visit_rate

    total = 0.0
    for t in range(1, n_bins + 1):
        lam = expected_visit_rate(shared, group, t * bin_width)
        total += min(1.0, lam * bin_width)
    return total


def draw_disparity_scenario(cfg, init_gap=(1.0, 5.0), rate_gap=(0.7, 3.0),
                            visit_gap=(0.4, 1.2), min_visits=2.5,
                            max_tries=500):
    """Generating parameters for an ablation trial: redraw from the priors
    until the groups differ in all three disparities by a detectable margin
    AND both groups are expected to produce enough follow-up visits to pin
    the shared parameters.

    Unfiltered prior draws frequently starve one group of data (a large
    negative visit offset or steeply declining severity leaves ~1 visit per
    patient), in which case the shared intercepts absorb the group's feature
    offset and per-trial bias signs become uninformative noise rather than
    the systematic effect under study. Returns (params, n_tries)."""
    from .simulate import draw_true_params

    if not cfg.group_specific_rates:
        raise ConfigurationError(
            "ablation trials need group-specific progression rates")
    for k in range(max_tries):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((cfg.seed, 0xB1A5, k))))
        shared, groups = draw_true_params(cfg, rng)
        d_init = abs(groups[1].init_sev_mean - groups[0].init_sev_mean)
        d_rate = abs(groups[1].rate_mean - groups[0].rate_mean)
        d_visit = abs(groups[1].visit_offset - groups[0].visit_offset)
        if not (init_gap[0] <= d_init <= init_gap[1]
                and rate_gap[0] <= d_rate <= rate_gap[1]
                and visit_gap[0] <= d_visit <= visit_gap[1]):
            continue
        if min(expected_visits(shared, g, cfg.n_bins, cfg.bin_width)
               for g in groups) < min_visits:
            continue
        return (shared, groups), k + 1
    raise ConfigurationError(f"no qualifying parameter draw in {max_tries} tries")


def run_bias_trial(seed: int, n_patients: int = 200, n_bins: int = 40,
                   config: SamplerConfig | None = None, variants=None,
                   quantile: float = 0.25):
    """One full ablation trial: draw a disparity scenario, simulate, then fit
    and score each variant in turn (by default the full model and the three
    single-disparity ablations). Returns ({variant: BiasReport},
    {variant: HighRiskProfile})."""
    from .simulate import SimConfig, simulate_dataset

    sim_cfg = SimConfig(n_patients=n_patients, n_bins=n_bins,
                        bin_width=1.0 / n_bins, seed=seed,
                        group_specific_rates=True)
    params, _ = draw_disparity_scenario(sim_cfg)
    data, truth = simulate_dataset(sim_cfg, params=params)
    config = config or SamplerConfig(chains=2, warmup=350, draws=350,
                                     seed=seed, target_accept=0.85)
    if variants is None:
        variants = [ModelVariant.FULL, ModelVariant.NO_INITIAL_SEVERITY,
                    ModelVariant.NO_RATE, ModelVariant.NO_VISIT]
    reports, profiles = {}, {}
    for variant in variants:
        draws = fit_model(data, variant=variant, config=config)
        reports[variant] = bias_report(draws, data, truth, variant)
        values, groups, _, _ = visit_severity_estimates(draws, data)
        profiles[variant] = high_risk_profile(values, groups, q=quantile)
        del draws  # one fit's draws in memory at a time
    return reports, profiles


@dataclass
class HighRiskProfile:
    threshold: float | None
    flagged_share_by_group: dict[int, float]
    visits_by_group: dict[int, int]
    flagged_total: int
    n_total: int
    quantile: float
    degenerate: bool = False


def high_risk_profile(values, groups, q: float = 0.25) -> HighRiskProfile:
    """Share of visits per group whose severity estimate lands in the top q
    fraction of all visits.

    The threshold is the nearest-rank (1-q)-quantile over all values; a visit
    is flagged when strictly above it, so ties at the threshold are never
    flagged. All-equal inputs are reported degenerate rather than flagged.
    """
    if not (0.0 < q < 1.0):
        raise ConfigurationError("q must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    if values.shape != groups.shape or values.ndim != 1:
        raise ConfigurationError("values and groups must be equal-length vectors")
    n = values.size
    uniq = np.unique(groups)
    visits_by_group = {int(g): int(np.sum(groups == g)) for g in uniq}
    if n == 0 or np.all(values == values[0]):
        return HighRiskProfile(threshold=None,
                               flagged_share_by_group={int(g): math.nan for g in uniq},
                               visits_by_group=visits_by_group,
                               flagged_total=0, n_total=n, quantile=q,
                               degenerate=True)
    order = np.sort(values)
    rank = max(1, math.ceil((1.0 - q) * n))  # nearest-rank quantile, 1-based
    threshold = float(order[rank - 1])
    flagged = values > threshold
    share = {int(g): float(np.mean(flagged[groups == g])) for g in uniq}
    return HighRiskProfile(threshold=threshold,
                           flagged_share_by_group=share,
                           visits_by_group=visits_by_group,
                           flagged_total=int(flagged.sum()), n_total=n,
                           quantile=q)


def visit_severity_estimates(draws, data):
    """Visit-level posterior-mean severities: (values, groups, pids, bins)."""
    est_by_pid = severity_means_by_patient(draws)
    values, groups, pids, bins = [], [], [], []
    for p in data.patients:
        sev0_e, rate_e = est_by_pid[p.patient_id]
        for t in p.visit_bins():
            values.append(sev0_e + rate_e * t * data.bin_width)
            groups.append(p.group.index)
            pids.append(p.patient_id)
            bins.append(int(t))
    return (np.array(values), np.array(groups), pids, np.array(bins))
