"""Simulator contracts: prior draws, the visit process, emissions, and
agreement with the closed-form moments."""

import math

import numpy as np
import pytest

from dispro import (
    ProgressionModel,
    SimConfig,
    draw_true_params,
    marginal_feature_moments,
    simulate_dataset,
)
from dispro.types import ConfigurationError

from conftest import truth_bundles


def rng_of(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestDrawTrueParams:
    def test_pinned_group_fixed_for_any_seed(self):
        cfg = SimConfig(n_patients=10, seed=0)
        for seed in range(25):
            shared, groups = draw_true_params(cfg, rng_of(seed))
            assert groups[0].init_sev_mean == 0.0
            assert groups[0].init_sev_sd == 1.0
            assert groups[0].visit_offset == 0.0

    def test_first_loading_respects_truncation(self):
        cfg = SimConfig(n_patients=10, seed=0)
        for seed in range(200):
            shared, _ = draw_true_params(cfg, rng_of(seed))
            assert shared.loadings[0] >= 0.5

    def test_init_mean_prior_moments(self):
        cfg = SimConfig(n_patients=10, seed=0)
        rng = rng_of(5)
        draws = np.array([draw_true_params(cfg, rng)[1][1].init_sev_mean
                          for _ in range(10_000)])
        se = 4.0 / math.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se
        assert abs(draws.std(ddof=1) - 4.0) < 0.15

    def test_shared_rates_by_default(self):
        cfg = SimConfig(n_patients=10, seed=0)
        _, groups = draw_true_params(cfg, rng_of(3))
        assert groups[0].rate_mean == groups[1].rate_mean
        assert groups[0].rate_sd == groups[1].rate_sd

    def test_group_specific_rates_option(self):
        cfg = SimConfig(n_patients=10, seed=0, group_specific_rates=True)
        _, groups = draw_true_params(cfg, rng_of(3))
        assert groups[0].rate_mean != groups[1].rate_mean


def flat_severity_params(cfg, visit_intercept):
    """Parameters with zero severity coupling so every bin has one fixed
    visit probability."""
    from dispro import GroupParams, SharedParams

    shared = SharedParams(loadings=np.ones(cfg.n_features),
                          feat_intercepts=np.zeros(cfg.n_features),
                          noise_vars=np.ones(cfg.n_features),
                          visit_intercept=visit_intercept, visit_severity=0.0)
    groups = [GroupParams(0.0, 1.0, 0.5, 0.2, 0.0),
              GroupParams(0.4, 1.0, 0.5, 0.2, 0.0)]
    return shared, groups


class TestSimulateDataset:
    def test_visit_frequency_when_rate_fixed(self):
        # lambda * width = 1 => per-bin visit probability 1 - 1/e
        cfg = SimConfig(n_patients=400, n_bins=25, bin_width=0.04, seed=31)
        shared, groups = flat_severity_params(cfg, math.log(1.0 / 0.04))
        data, _ = simulate_dataset(cfg, params=(shared, groups))
        visits = np.concatenate([p.visits[1:] for p in data.patients])
        p_hat = visits.mean()
        p_true = 1 - math.exp(-1.0)
        se = math.sqrt(p_true * (1 - p_true) / visits.size)
        assert abs(p_hat - p_true) < 3 * se

    def test_noiseless_emissions_on_the_line(self):
        cfg = SimConfig(n_patients=30, n_bins=10, bin_width=0.1, seed=8)
        shared, groups = flat_severity_params(cfg, 2.0)
        shared.noise_vars = np.full(cfg.n_features, 1e-24)
        data, truth = simulate_dataset(cfg, params=(shared, groups))
        for p in data.patients:
            for t in p.visit_bins():
                sev = truth.true_severity(p.patient_id, t * cfg.bin_width)
                expect = shared.loadings * sev + shared.feat_intercepts
                np.testing.assert_allclose(p.features[t], expect, atol=1e-9)

    def test_group_assignment_fraction(self):
        cfg = SimConfig(n_patients=1000, n_bins=5, bin_width=0.2, seed=4)
        data, _ = simulate_dataset(cfg)
        frac = np.mean([p.group.index for p in data.patients])
        se = math.sqrt(0.25 / 1000)
        assert abs(frac - 0.5) < 3 * se

    def test_determinism(self):
        cfg = SimConfig(n_patients=25, n_bins=10, bin_width=0.1, seed=123)
        d1, t1 = simulate_dataset(cfg)
        d2, t2 = simulate_dataset(cfg)
        assert t1.params == t2.params
        assert t1.latents == t2.latents
        for a, b in zip(d1.patients, d2.patients):
            np.testing.assert_array_equal(a.visits, b.visits)
            np.testing.assert_array_equal(a.features, b.features)

    def test_finite_density_at_truth_across_seeds(self):
        for seed in range(10):
            cfg = SimConfig(n_patients=20, n_bins=15, bin_width=1 / 15.0,
                            seed=900 + seed)
            data, truth = simulate_dataset(cfg)
            model = ProgressionModel(data)
            shared, groups, latents = truth_bundles(data, truth)
            theta = model.unconstrain(model.pack(shared, groups, latents))
            assert np.isfinite(model.log_posterior(theta))

    def test_visit_frequency_tracks_severity(self):
        """Per-bin empirical visit frequency, binned by the true severity,
        matches 1 - exp(-rate(sev) * width)."""
        cfg = SimConfig(n_patients=2000, n_bins=10, bin_width=0.1, seed=17)
        data, truth = simulate_dataset(cfg)
        shared, groups, _ = truth_bundles(data, truth)
        sev_all, d_all, off_all = [], [], []
        for p in data.patients:
            for t in range(1, p.horizon + 1):
                sev_all.append(truth.true_severity(p.patient_id,
                                                   t * cfg.bin_width))
                d_all.append(p.visits[t])
                off_all.append(groups[p.group.index].visit_offset)
        sev_all = np.array(sev_all)
        d_all = np.array(d_all)
        off_all = np.array(off_all)
        edges = np.quantile(sev_all, np.linspace(0, 1, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = (sev_all >= lo) & (sev_all < hi)
            if m.sum() < 200:
                continue
            eta = (shared.visit_intercept + shared.visit_severity * sev_all[m]
                   + off_all[m])
            p_pred = float(np.mean(-np.expm1(-np.exp(eta) * cfg.bin_width)))
            p_obs = float(d_all[m].mean())
            se = math.sqrt(max(p_pred * (1 - p_pred), 1e-4) / m.sum())
            assert abs(p_obs - p_pred) < 3 * se + 0.01

    def test_sample_moments_match_closed_form(self):
        """Feature moments of simulated patients at a fixed bin agree with
        the marginal closed form; ties the simulator to the moment algebra."""
        cfg = SimConfig(n_patients=4000, n_bins=4, bin_width=0.25, seed=55)
        data, truth = simulate_dataset(cfg)
        shared, groups, _ = truth_bundles(data, truth)
        t_bin = 0  # first visit: every patient observed
        for g in (0, 1):
            rows = np.array([p.features[t_bin] for p in data.patients
                             if p.group.index == g])
            mean, cov = marginal_feature_moments(shared, groups[g],
                                                 t_bin * cfg.bin_width)
            n = rows.shape[0]
            se_mean = np.sqrt(np.diag(cov) / n)
            assert np.all(np.abs(rows.mean(axis=0) - mean) < 3.5 * se_mean)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(group_probability=1.5)
        with pytest.raises(ConfigurationError):
            SimConfig(n_patients=0)
        with pytest.raises(ConfigurationError):
            SimConfig(bin_width=-0.1)
        with pytest.raises(ConfigurationError):  # 5 groups, 2 * 2 data rows
            SimConfig(n_patients=2, n_bins=1, n_groups=5)

    def test_truth_params_round_trip(self):
        """param_bundles gives back the generating parameters, for three
        groups with their own rates, and the shared-rate names hold the
        means over groups."""
        cfg = SimConfig(n_patients=4, n_bins=3, n_groups=3, seed=8,
                        group_specific_rates=True)
        shared, groups = draw_true_params(cfg, rng_of(8))
        _, truth = simulate_dataset(cfg, params=(shared, groups))
        back, back_groups = truth.param_bundles()
        for field in ("loadings", "feat_intercepts", "noise_vars",
                      "visit_intercept", "visit_severity"):
            assert np.array_equal(getattr(back, field), getattr(shared, field))
        assert back_groups == groups
        assert truth.params["rate_sd"] == np.mean([g.rate_sd for g in groups])

    def test_truth_sidecar_keys_match_fit_names(self, small_sim):
        data, truth = small_sim
        model = ProgressionModel(data)
        for name in model.names[:model.n_global]:
            assert name in truth.params, name
        for p in data.patients:
            assert f"init_sev[{p.patient_id}]" in truth.latents
            assert f"rate[{p.patient_id}]" in truth.latents
