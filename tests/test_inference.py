"""Posterior post-processing: severity estimates, recovery statistics,
and disparity arithmetic."""

import math

import numpy as np
import pytest

from dispro.inference import (
    disparity_summary,
    recovery_report,
    severity_estimate,
)
from dispro.sampler import PosteriorDraws
from dispro.simulate import TruthSidecar
from dispro.types import ConfigurationError

import conftest


def synthetic_draws(names, values, n_chains=2, meta=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return PosteriorDraws(names=list(names), values=values,
                          accept_stats=np.ones(n),
                          divergent=np.zeros(n, dtype=bool),
                          n_chains=n_chains, meta=dict(meta or {}))


def latent_draws(pids, z0_cols, rate_cols, bin_width=0.1, extra=None):
    names, cols = [], []
    for pid, z0, rr in zip(pids, z0_cols, rate_cols):
        names += [f"init_sev[{pid}]", f"rate[{pid}]"]
        cols += [z0, rr]
    if extra:
        for k, v in extra.items():
            names.append(k)
            cols.append(v)
    values = np.column_stack(cols)
    meta = {"bin_width": bin_width, "patient_ids": list(pids),
            "patient_groups": [0] * len(pids),
            "horizon_by_patient": [10] * len(pids),
            "n_groups": 2, "pinned_group": 0, "n_global": 0}
    return synthetic_draws(names, values, meta=meta)


class TestSeverityEstimate:
    def test_t0_equals_mean_z0(self):
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=40)
        rr = rng.normal(size=40)
        d = latent_draws(["a"], [z0], [rr])
        mean, sd = severity_estimate(d, "a", 0)
        assert mean == pytest.approx(z0.mean(), rel=1e-12)
        assert sd == pytest.approx(z0.std(ddof=1), rel=1e-12)

    def test_constant_when_rate_zero(self):
        z0 = np.full(20, 1.3)
        rr = np.zeros(20)
        d = latent_draws(["a"], [z0], [rr])
        for t in (0, 3, 9):
            assert severity_estimate(d, "a", t)[0] == pytest.approx(1.3)

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        pids = [f"p{i}" for i in range(10)]
        z0s = [rng.normal(size=30) for _ in pids]
        rrs = [rng.normal(size=30) for _ in pids]
        d = latent_draws(pids, z0s, rrs, bin_width=0.07)
        for i, pid in enumerate(pids):
            t = int(rng.integers(0, 12))
            per_draw = z0s[i] + rrs[i] * t * 0.07
            mean, sd = severity_estimate(d, pid, t)
            assert mean == pytest.approx(per_draw.mean(), rel=1e-12)
            assert sd == pytest.approx(per_draw.std(ddof=1), rel=1e-12)

    def test_linear_in_t(self):
        rng = np.random.default_rng(6)
        d = latent_draws(["a"], [rng.normal(size=25)], [rng.normal(size=25)],
                         bin_width=0.2)
        e1 = severity_estimate(d, "a", 1)[0]
        e4 = severity_estimate(d, "a", 4)[0]
        rate_mean = d.mean("rate[a]")
        assert e4 - e1 == pytest.approx(rate_mean * 3 * 0.2, rel=1e-12)

    def test_unknown_patient(self):
        d = latent_draws(["a"], [np.zeros(8)], [np.zeros(8)])
        with pytest.raises(KeyError):
            severity_estimate(d, "nope", 0)


def _mk_trial(names, true_vals, est_vals, pids=("q0",), seed=0):
    rng = np.random.default_rng(seed)
    cols = [np.full(16, v) for v in est_vals]
    lat_names, lat_cols = [], []
    for pid in pids:
        lat_names += [f"init_sev[{pid}]", f"rate[{pid}]"]
        lat_cols += [rng.normal(size=16), rng.normal(size=16)]
    draws = synthetic_draws(list(names) + lat_names, np.column_stack(cols + lat_cols),
                            meta={"bin_width": 0.1, "patient_ids": list(pids),
                                  "patient_groups": [0] * len(pids),
                                  "horizon_by_patient": [10] * len(pids),
                                  "n_global": len(names)})
    truth = TruthSidecar(params=dict(zip(names, true_vals)),
                         latents={n: 0.0 for n in lat_names})
    return draws, truth


class TestRecoveryReport:
    def test_perfect_recovery(self):
        names = ["visit_intercept", "visit_severity"]
        trials = []
        for k in range(6):
            tv = [0.5 + 0.1 * k, 1.0 - 0.05 * k]
            trials.append(_mk_trial(names, tv, tv, seed=k))
        rep = recovery_report(trials)
        for st in rep.per_param.values():
            assert st["pearson_r"] == pytest.approx(1.0, abs=1e-12)
            assert st["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_doubled_estimates(self):
        names = ["visit_intercept"]
        trials = []
        for k in range(5):
            tv = [0.5 + 0.3 * k]
            trials.append(_mk_trial(names, tv, [2 * tv[0]], seed=k))
        rep = recovery_report(trials)
        st = rep.per_param["visit_intercept"]
        assert st["pearson_r"] == pytest.approx(1.0, abs=1e-12)
        assert st["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_trial_order_invariance(self):
        names = ["visit_intercept", "visit_severity"]
        rng = np.random.default_rng(3)
        trials = [_mk_trial(names, rng.normal(size=2).tolist(),
                            rng.normal(size=2).tolist(), seed=k)
                  for k in range(7)]
        rep1 = recovery_report(trials)
        rep2 = recovery_report(trials[::-1])
        for nm in names:
            assert rep1.per_param[nm]["pearson_r"] == pytest.approx(
                rep2.per_param[nm]["pearson_r"], rel=1e-12)
            assert rep1.per_param[nm]["slope"] == pytest.approx(
                rep2.per_param[nm]["slope"], rel=1e-12)

    def test_degenerate_variance_reported_undefined(self):
        names = ["visit_intercept"]
        trials = [_mk_trial(names, [1.0], [1.0 + 0.01 * k], seed=k)
                  for k in range(4)]
        rep = recovery_report(trials)
        assert rep.per_param["visit_intercept"]["pearson_r"] is None

    def test_needs_two_trials(self):
        with pytest.raises(ConfigurationError):
            recovery_report([_mk_trial(["visit_intercept"], [1.0], [1.0])])


def constant_disparity(gap, rate, offset=0.0, years_per_unit=8.5):
    """Group 1's disparity entry from draws that hold group 1's
    initial-severity gap, both groups' rate means and group 1's visit
    offset constant."""
    names = ["rate_mean[0]", "rate_mean[1]", "init_sev_mean[1]",
             "visit_offset[1]"]
    d = synthetic_draws(names, np.tile([rate, rate, gap, offset], (4, 1)),
                        meta={"n_groups": 2, "pinned_group": 0,
                              "bin_width": 0.1})
    return disparity_summary(d, years_per_unit=years_per_unit).per_group[1]


class TestDisparityArithmetic:
    def test_worked_delay_conversion(self):
        # severity gap over mean progression rate, scaled to years
        years = constant_disparity(0.22, 0.62)["delay_years"]
        assert round(0.22 / 0.62, 2) == 0.35
        assert years == pytest.approx(3.0, abs=0.05)
        years2 = constant_disparity(0.27, 0.62)["delay_years"]
        assert round(0.27 / 0.62, 2) == 0.44
        assert years2 == pytest.approx(3.7, abs=0.05)

    def test_rate_ratio(self):
        assert constant_disparity(0.2, 0.6, 0.0)["visit_rate_ratio"] == 1.0
        assert constant_disparity(0.2, 0.6, -0.11)["visit_rate_ratio"] == \
            pytest.approx(math.exp(-0.11), rel=1e-15)

    def test_zero_rate_undefined(self):
        for rate in (0.0, 1e-13, -1e-13):
            entry = constant_disparity(0.2, rate)
            assert entry["delay_time_units"] is None
            assert "delay_years" not in entry

    def test_summary_from_draws(self):
        rng = np.random.default_rng(11)
        names = ["rate_mean[0]", "rate_mean[1]", "init_sev_mean[1]",
                 "visit_offset[1]"]
        cols = [rng.normal(0.6, 0.01, size=200),
                rng.normal(0.64, 0.01, size=200),
                rng.normal(0.22, 0.02, size=200),
                rng.normal(-0.11, 0.01, size=200)]
        d = synthetic_draws(names, np.column_stack(cols),
                            meta={"n_groups": 2, "pinned_group": 0,
                                  "bin_width": 0.1})
        summ = disparity_summary(d, years_per_unit=8.5)
        entry = summ.per_group[1]
        # the ratio equals exp of the posterior-mean offset by construction
        assert entry["visit_rate_ratio"] == pytest.approx(
            math.exp(d.mean("visit_offset[1]")), rel=1e-12)
        assert entry["delay_years"] == pytest.approx(
            d.mean("init_sev_mean[1]") / summ.mean_rate * 8.5, rel=1e-12)
        lo, hi = entry["init_sev_gap_ci"]
        assert lo < entry["init_sev_gap"] < hi
