"""Sampler calibration on known targets, diagnostics behavior, and the
integrator's energy-error scaling."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from dispro import ConfigurationError, InvalidParameterError
from dispro.sampler import (
    PosteriorDraws,
    SamplerConfig,
    ess,
    leapfrog_energies,
    mcse,
    rhat,
    sample,
)


def std_normal_handles(dim):
    def logp(x):
        return -0.5 * float(x @ x)

    def grad(x):
        return -x
    return logp, grad


class TestGaussianTargets:
    def test_standard_normal_5d(self):
        logp, grad = std_normal_handles(5)
        cfg = SamplerConfig(chains=4, warmup=500, draws=1000, seed=11)
        d = sample(logp, grad, 5, cfg)
        for i in range(5):
            nm = f"theta[{i}]"
            assert abs(d.mean(nm)) < 3 * mcse(d, nm)
            assert abs(d.column(nm).var(ddof=1) - 1.0) < 0.1
            assert rhat(d, nm) < 1.01

    def test_correlated_gaussian(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        prec = np.linalg.inv(cov)

        def logp(x):
            return -0.5 * float(x @ prec @ x)

        def grad(x):
            return -(prec @ x)

        d = sample(logp, grad, 2, SamplerConfig(chains=4, warmup=500,
                                                draws=1000, seed=5))
        emp = np.cov(d.values.T)
        assert float(np.max(np.abs(emp - cov) / np.abs(cov))) < 0.10

    def test_determinism(self):
        logp, grad = std_normal_handles(3)
        cfg = SamplerConfig(chains=2, warmup=200, draws=300, seed=99)
        d1 = sample(logp, grad, 3, cfg)
        d2 = sample(logp, grad, 3, cfg)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.accept_stats, d2.accept_stats)

    def test_threaded_matches_sequential(self):
        logp, grad = std_normal_handles(3)
        cfg = SamplerConfig(chains=2, warmup=200, draws=200, seed=4)
        d1 = sample(logp, grad, 3, cfg, threads=1)
        d2 = sample(logp, grad, 3, cfg, threads=2)
        assert np.array_equal(d1.values, d2.values)

    def test_detailed_balance_ks(self):
        """Empirical CDF of 4000 one-dimensional draws against the standard
        normal CDF, below the 1% KS critical value."""
        logp, grad = std_normal_handles(1)
        d = sample(logp, grad, 1, SamplerConfig(chains=4, warmup=500,
                                                draws=1000, seed=21))
        stat = kstest(d.column("theta[0]"), "norm").statistic
        assert stat < 1.63 / math.sqrt(4000)

    def test_nonfinite_init_rejected(self):
        logp, grad = std_normal_handles(2)
        cfg = SamplerConfig(chains=1, warmup=50, draws=50, seed=0)
        with pytest.raises(InvalidParameterError):
            sample(logp, grad, 2, cfg, init=np.array([np.nan, 0.0]))


class TestEnergyConservation:
    def test_halving_step_reduces_error(self):
        def logp_and_grad(q):
            return -0.5 * float(q @ q), -q

        rng = np.random.default_rng(3)
        q0 = rng.normal(size=4)
        p0 = rng.normal(size=4)
        errors = {}
        for eps, steps in ((0.2, 50), (0.1, 100)):
            energies = leapfrog_energies(logp_and_grad, q0, p0, eps, steps)
            errors[eps] = float(np.max(np.abs(energies - energies[0])))
        assert errors[0.2] / errors[0.1] >= 3.0


class TestDiagnostics:
    def make_draws(self, arrays):
        arrays = np.asarray(arrays, dtype=float)
        m, n = arrays.shape
        return PosteriorDraws(names=["x"], values=arrays.reshape(-1, 1),
                              chain_ids=np.repeat(np.arange(m), n),
                              accept_stats=np.ones(m * n),
                              divergent=np.zeros(m * n, dtype=bool),
                              n_chains=m)

    def test_rhat_iid_chains_near_one(self):
        rng = np.random.default_rng(0)
        d = self.make_draws(rng.normal(size=(4, 1000)))
        assert 0.99 <= rhat(d, "x") <= 1.01

    def test_rhat_offset_chains_large(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(2, 500))
        arr[1] += 10.0
        d = self.make_draws(arr)
        assert rhat(d, "x") > 1.5

    def test_rhat_needs_two_chains(self):
        d = self.make_draws(np.random.default_rng(2).normal(size=(1, 100)))
        with pytest.raises(ConfigurationError):
            rhat(d, "x")

    def test_ess_white_noise(self):
        rng = np.random.default_rng(3)
        n = 4000
        d = self.make_draws(rng.normal(size=(1, n)))
        assert abs(ess(d, "x") - n) < 0.2 * n

    def test_ess_autocorrelated_below_n(self):
        rng = np.random.default_rng(4)
        n = 4000
        x = np.empty(n)
        x[0] = rng.normal()
        for i in range(1, n):  # AR(1), rho = 0.9: ESS ~ n / 19
            x[i] = 0.9 * x[i - 1] + math.sqrt(1 - 0.81) * rng.normal()
        d = self.make_draws(x[None, :])
        assert ess(d, "x") < 0.25 * n

    def test_ess_antithetic_chains_clamped(self):
        """Strongly antithetic chains (AR(1), phi = -0.95) sum to a negative
        autocorrelation time; ESS is floored at m * n * log10(m * n) over the
        split chains instead of turning negative."""
        rng = np.random.default_rng(6)
        m, n = 4, 200
        x = np.empty((m, n))
        x[:, 0] = rng.normal(size=m)
        for i in range(1, n):
            x[:, i] = -0.95 * x[:, i - 1] + math.sqrt(1 - 0.95 ** 2) * rng.normal(size=m)
        e = ess(self.make_draws(x), "x")
        assert e == pytest.approx(m * n * math.log10(m * n), rel=1e-12)

    def test_divergence_warning(self):
        # a funnel-like target with wildly varying curvature produces
        # divergences at practical step sizes
        def logp(x):
            v, z = x[0], x[1]
            return -0.5 * (v * v / 9.0) - 0.5 * (z * z * math.exp(-2 * v)) - v

        def grad(x):
            v, z = x[0], x[1]
            return np.array([-v / 9.0 + z * z * math.exp(-2 * v) - 1.0,
                             -z * math.exp(-2 * v)])

        d = sample(logp, grad, 2, SamplerConfig(chains=2, warmup=150,
                                                draws=400, seed=12))
        if float(d.divergent.mean()) > 0.20:
            assert any("divergent" in w for w in d.warnings)
        else:
            assert not d.warnings


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(chains=0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(target_accept=1.5)


def test_max_depth_from_leapfrog_budget():
    assert SamplerConfig(max_leapfrog=1024).max_depth == 10
    assert SamplerConfig(max_leapfrog=100).max_depth == 6
