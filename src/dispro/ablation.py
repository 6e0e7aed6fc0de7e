"""Ablation experiments: fit disparity-blind model variants on the same data
and measure the per-group severity estimation bias they induce, plus the
high-risk visit profile used to compare cohort rankings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import (RHAT_THRESHOLD, fit_model, max_global_rhat,
                      severity_means_by_patient)
from .inference import pearson
from .model import ModelVariant, expected_visit_rate, latent_names
from .sampler import SamplerConfig
from .simulate import SimConfig, draw_true_params, simulate_dataset
from .types import ConfigurationError

HIGH_RISK_QUANTILE = 0.25  # a visit is high-risk in the top quarter of severity


@dataclass
class BiasReport:
    """Per-group severity estimation error for one fitted variant.

    group_bias[g] is mean(inferred severity) - mean(true severity) over every
    (patient, bin) point in group g; group_correlation[g] the Pearson
    correlation of the same point sets. underserved_group names the group
    disadvantaged with respect to the disparity this variant ignores (for the
    full model: the group with higher true initial severity).
    """

    group_bias: dict[int, float]
    group_correlation: dict[int, float | None]
    underserved_group: int
    max_global_rhat: float
    flagged_nonconverged: bool

    def bias_of(self, underserved: bool) -> float:
        return next(b for g, b in self.group_bias.items()
                    if (g == self.underserved_group) == underserved)

    def correlation_of(self, underserved: bool):
        return next(c for g, c in self.group_correlation.items()
                    if (g == self.underserved_group) == underserved)


# variant -> the group parameter that designates its underserved group, and
# whether its largest or smallest value does
UNDERSERVED_BY = {
    ModelVariant.FULL: ("init_sev_mean", max),
    ModelVariant.NO_INITIAL_SEVERITY: ("init_sev_mean", max),
    ModelVariant.NO_RATE: ("rate_mean", max),
    ModelVariant.NO_VISIT: ("visit_offset", min),  # lower: fewer visits
    ModelVariant.NO_DISPARITIES: ("init_sev_mean", max),
}


def underserved_group(variant: ModelVariant, truth, n_groups: int) -> int:
    """The paper-style designation: the group disadvantaged with respect to
    the specific disparity the variant fails to capture; higher initial
    severity for the full (and all-ablated) model. ``truth`` is a
    TruthSidecar holding that parameter for each of the ``n_groups``
    groups."""
    name, pick = UNDERSERVED_BY[variant]
    return pick(range(n_groups), key=lambda g: truth.params[f"{name}[{g}]"])


def bias_report(draws, truth, variant: ModelVariant) -> BiasReport:
    """Score one fitted variant against ground truth.

    The points are every (patient, bin) of the fit's patients: the inferred
    severity is the posterior-mean line, the true severity the generating
    line, both at bins 0..horizon.
    """
    meta = draws.meta
    horizons = np.asarray(meta["horizon_by_patient"])
    patient = np.repeat(np.arange(horizons.size), horizons + 1)
    t = np.concatenate([np.arange(h + 1) for h in horizons]) * meta["bin_width"]
    sev0, rate = severity_means_by_patient(draws)
    true0, true_rate = np.array([truth.latents[name] for name in latent_names(
        meta["patient_ids"])]).reshape(-1, 2).T
    est = sev0[patient] + rate[patient] * t
    true = true0[patient] + true_rate[patient] * t
    g_arr = np.asarray(meta["patient_groups"])[patient]
    group_bias, group_corr = {}, {}
    for g in range(meta["n_groups"]):
        m = g_arr == g
        if not np.any(m):
            continue
        group_bias[g] = float(np.mean(est[m] - true[m]))
        group_corr[g] = pearson(est[m], true[m])
    worst = max_global_rhat(draws)
    return BiasReport(
        group_bias=group_bias,
        group_correlation=group_corr,
        underserved_group=underserved_group(variant, truth,
                                            meta["n_groups"]),
        max_global_rhat=worst,
        flagged_nonconverged=bool(worst > RHAT_THRESHOLD),
    )


def expected_visits(shared, group, n_bins: int, bin_width: float) -> float:
    """Approximate expected follow-up visits per patient for one group, from
    the closed-form population rate (first-order in the per-bin
    probability)."""
    total = 0.0
    for t in range(1, n_bins + 1):
        lam = expected_visit_rate(shared, group, t * bin_width)
        total += min(1.0, lam * bin_width)
    return total


def draw_disparity_scenario(cfg):
    """Generating parameters for an ablation trial: redraw from the priors
    (at most 500 times) until the groups differ in all three disparities by
    a detectable margin AND both groups are expected to produce enough
    follow-up visits to pin the shared parameters.

    Unfiltered prior draws frequently starve one group of data (a large
    negative visit offset or steeply declining severity leaves ~1 visit per
    patient), in which case the shared intercepts absorb the group's feature
    offset and per-trial bias signs become uninformative noise rather than
    the systematic effect under study. Returns (shared, groups)."""
    if not cfg.group_specific_rates:
        raise ConfigurationError(
            "ablation trials need group-specific progression rates")
    for k in range(500):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((cfg.seed, 0xB1A5, k))))
        shared, groups = draw_true_params(cfg, rng)
        d_init = abs(groups[1].init_sev_mean - groups[0].init_sev_mean)
        d_rate = abs(groups[1].rate_mean - groups[0].rate_mean)
        d_visit = abs(groups[1].visit_offset - groups[0].visit_offset)
        if not (1.0 <= d_init <= 5.0 and 0.7 <= d_rate <= 3.0
                and 0.4 <= d_visit <= 1.2):
            continue
        if min(expected_visits(shared, g, cfg.n_bins, cfg.bin_width)
               for g in groups) < 2.5:
            continue
        return shared, groups
    raise ConfigurationError("no qualifying parameter draw in 500 tries")


def run_bias_trial(seed: int, n_patients: int, n_bins: int,
                   config: SamplerConfig):
    """One full ablation trial: draw a disparity scenario, simulate, then fit
    and score in turn the full model and the three single-disparity
    ablations. Returns ({variant: BiasReport}, {variant: {group: high-risk
    share}})."""
    sim_cfg = SimConfig(n_patients=n_patients, n_bins=n_bins,
                        bin_width=1.0 / n_bins, seed=seed,
                        group_specific_rates=True)
    data, truth = simulate_dataset(sim_cfg, draw_disparity_scenario(sim_cfg))
    reports, profiles = {}, {}
    for variant in (ModelVariant.FULL, ModelVariant.NO_INITIAL_SEVERITY,
                    ModelVariant.NO_RATE, ModelVariant.NO_VISIT):
        draws = fit_model(data, variant=variant, config=config)
        reports[variant] = bias_report(draws, truth, variant)
        values, groups = visit_severity_estimates(draws, data)
        profiles[variant] = high_risk_profile(values, groups, HIGH_RISK_QUANTILE)
        del draws  # one fit's draws in memory at a time
    return reports, profiles


def high_risk_profile(values, groups, q: float) -> dict[int, float | None]:
    """Share of visits per group, {group: share}, whose severity estimate
    lands in the top q fraction of all visits.

    The threshold is the nearest-rank (1-q)-quantile over all values; a visit
    is flagged when strictly above it, so ties at the threshold are never
    flagged. All-equal inputs flag nothing and give None shares.
    """
    if not (0.0 < q < 1.0):
        raise ConfigurationError("q must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    if values.shape != groups.shape or values.ndim != 1:
        raise ConfigurationError("values and groups must be equal-length vectors")
    n = values.size
    uniq = np.unique(groups)
    if n == 0 or np.all(values == values[0]):
        return dict.fromkeys(map(int, uniq))
    order = np.sort(values)
    rank = max(1, math.ceil((1.0 - q) * n))  # nearest-rank quantile, 1-based
    flagged = values > order[rank - 1]
    return {int(g): float(np.mean(flagged[groups == g])) for g in uniq}


def visit_severity_estimates(draws, data):
    """Visit-level posterior-mean severities and the visits' groups:
    (values, groups). ``draws`` must be a fit of ``data``, whose patient
    order it shares."""
    sev0, rate = severity_means_by_patient(draws)
    bins = [p.visit_bins() for p in data.patients]
    patient = np.repeat(np.arange(len(bins)), [b.size for b in bins])
    values = sev0[patient] + rate[patient] * np.concatenate(bins) * data.bin_width
    return values, np.array([p.group.index for p in data.patients])[patient]
