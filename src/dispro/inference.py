"""Posterior post-processing: severity estimates, parameter-recovery and
calibration reports, and disparity-magnitude summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import _finite, global_names, severity_means_by_patient
from .model import latent_names
from .sampler import PosteriorDraws
from .types import ConfigurationError


def severity_estimate(draws: PosteriorDraws, patient_id: str, t: int) -> tuple[float, float]:
    """Posterior mean and sd of one patient's severity at bin t.

    Severity is linear in the latents, so per-draw severity is
    init_sev + rate * t * bin_width and the estimate is its average over
    draws.
    """
    time = t * draws.meta["bin_width"]
    init_name, rate_name = latent_names([patient_id])
    try:
        sev = draws.column(init_name) + draws.column(rate_name) * time
    except KeyError:
        raise KeyError(f"patient {patient_id!r} not present in this fit") from None
    return float(sev.mean()), float(sev.std(ddof=1))


@dataclass
class RecoveryReport:
    """True-versus-estimated concordance across repeated synthetic trials."""

    per_param: dict[str, dict]          # name -> {n, pearson_r, slope}
    severity_calibration: dict          # group-level severity scatter stats
    scatter: list[tuple]                # (trial, name, true, estimated)
    severity_scatter: list[tuple]       # (trial, group, mean_true, mean_est)

    def mean_r(self) -> float | None:
        return self._mean_of("pearson_r")

    def mean_slope(self) -> float | None:
        return self._mean_of("slope")

    def _mean_of(self, stat):
        """The mean of ``stat`` over the parameters where it is defined;
        None, as ``pearson`` gives, where it is defined for none."""
        vals = [v[stat] for v in self.per_param.values() if v[stat] is not None]
        return float(np.mean(vals)) if vals else None


def pearson(x: np.ndarray, y: np.ndarray):
    if x.size < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return None  # correlation undefined under degenerate variance
    return float(np.corrcoef(x, y)[0, 1])


def _slope_through_origin(true: np.ndarray, est: np.ndarray):
    denom = float(true @ true)
    if denom == 0.0:
        return None
    return float(true @ est) / denom


def recovery_report(trials) -> RecoveryReport:
    """Concordance of true and posterior-mean parameters across trials.

    ``trials`` yields (draws, truth) pairs, read one at a time so a lazy
    iterable keeps one fit's draws in memory; each truth is a TruthSidecar,
    whose params and latents map canonical names to generating values.
    Parameters are matched by name; for each, the report holds the Pearson
    correlation across trials and the no-intercept regression slope of
    estimates on truths. Group-level severity calibration pairs the per-group
    mean true and estimated severities, one point per (trial, group).
    """
    by_name: dict[str, list[tuple[float, float]]] = {}
    scatter = []
    severity_scatter = []
    k = 0
    for draws, truth in trials:  # not enumerate(): it holds the last trial
        params, latents = truth.params, truth.latents
        for name in global_names(draws):
            if name in params:
                est = draws.mean(name)
                by_name.setdefault(name, []).append((params[name], est))
                scatter.append((k, name, float(params[name]), est))
        severity_scatter.extend(_group_severity_points(k, draws, latents))
        k += 1
        del draws  # before the next trial is read
    if k < 2:
        raise ConfigurationError("recovery_report needs at least 2 trials")

    per_param = {}
    for name, pairs in by_name.items():
        true = np.array([p[0] for p in pairs])
        est = np.array([p[1] for p in pairs])
        per_param[name] = {"n": len(pairs),
                           "pearson_r": pearson(true, est),
                           "slope": _slope_through_origin(true, est)}

    sev_true = np.array([p[2] for p in severity_scatter])
    sev_est = np.array([p[3] for p in severity_scatter])
    calibration = {"n": len(severity_scatter),
                   "pearson_r": pearson(sev_true, sev_est),
                   "slope": _slope_through_origin(sev_true, sev_est)}
    return RecoveryReport(per_param=per_param,
                          severity_calibration=calibration,
                          scatter=scatter,
                          severity_scatter=severity_scatter)


def _group_severity_points(trial, draws, latents):
    """Per-group (mean true severity, mean estimated severity) over all
    patient-bins, one point per group."""
    pids = draws.meta["patient_ids"]
    groups = np.asarray(draws.meta["patient_groups"])
    width = draws.meta["bin_width"]
    horizon = draws.meta["horizon_by_patient"]
    pts = []
    sev0_est, rate_est = severity_means_by_patient(draws)
    sev0_true, rate_true = np.array(
        [latents[name] for name in latent_names(pids)]).reshape(-1, 2).T
    # mean severity over a trajectory of bins 0..T is sev0 + rate * (T/2) * width
    mean_time = np.array([h * width / 2.0 for h in horizon])
    for g in np.unique(groups):
        m = groups == g
        pts.append((trial, int(g),
                    float(np.mean(sev0_true[m] + rate_true[m] * mean_time[m])),
                    float(np.mean(sev0_est[m] + rate_est[m] * mean_time[m]))))
    return pts


@dataclass
class DisparitySummary:
    """Group differences versus the pinned reference group, with the worked
    unit conversions: initial-severity gaps in care-delay time units
    (gap / population mean progression rate) and in calendar years (times a
    user-supplied years-per-unit factor), and visit-rate ratios."""

    reference_group: int
    mean_rate: float
    per_group: dict[int, dict]
    years_per_unit: float


def disparity_summary(draws: PosteriorDraws,
                      years_per_unit: float) -> DisparitySummary:
    """Disparity magnitudes from a fitted model.

    Initial-severity gaps are posterior means of each group's init_sev_mean
    (the pinned group's is 0 by construction). The care-delay conversion
    divides the gap by the posterior-mean progression rate averaged over
    groups; it is undefined when that rate is ~0, and None past the float
    range. Visit-rate ratios are exp(visit_offset), None past the float
    range; intervals equal-tailed 95%.
    """
    meta = draws.meta
    n_groups = int(meta["n_groups"])
    pinned = int(meta["pinned_group"])
    if n_groups < 2:
        raise ConfigurationError("disparity_summary needs at least 2 groups")

    # per-group rate means, or the shared one
    rate_cols = [draws.column(name) for name in (
        *(f"rate_mean[{g}]" for g in range(n_groups)), "rate_mean")
        if draws.has(name)]
    mean_rate = float(np.mean([c.mean() for c in rate_cols])) if rate_cols else math.nan

    lo_q, hi_q = 100 * (1 - 0.95) / 2, 100 * (1 + 0.95) / 2
    per_group = {}
    for g in range(n_groups):
        if g == pinned:
            continue
        entry = {}
        if draws.has(f"init_sev_mean[{g}]"):
            col = draws.column(f"init_sev_mean[{g}]")
            gap = float(col.mean())
            entry["init_sev_gap"] = gap
            entry["init_sev_gap_ci"] = [float(np.percentile(col, lo_q)),
                                        float(np.percentile(col, hi_q))]
            if abs(mean_rate) > 1e-12:  # None past the float range
                delay = gap / mean_rate
                entry["delay_time_units"] = _finite(delay)
                entry["delay_years"] = _finite(delay * years_per_unit)
            else:
                entry["delay_time_units"] = None  # undefined at ~zero rate
        if draws.has(f"visit_offset[{g}]"):
            col = draws.column(f"visit_offset[{g}]")
            off = float(col.mean())
            entry["visit_offset"] = off
            entry["visit_rate_ratio"] = _exp(off)
            entry["visit_rate_ratio_ci"] = [_exp(float(np.percentile(col, q)))
                                            for q in (lo_q, hi_q)]
        else:
            entry["visit_offset"] = 0.0
            entry["visit_rate_ratio"] = 1.0
        per_group[g] = entry
    return DisparitySummary(reference_group=pinned, mean_rate=mean_rate,
                            per_group=per_group, years_per_unit=years_per_unit)


def _exp(x: float) -> float | None:
    try:
        return math.exp(x)
    except OverflowError:
        return None
