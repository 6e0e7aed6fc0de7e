"""Sampler calibration on known targets, diagnostics behavior, and the
integrator's energy-error scaling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest, rankdata

import dispro
from dispro import ConfigurationError, InvalidParameterError
from dispro.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _ChainState,
    _rank_normalize,
    ess,
    mcse,
    rhat,
    sample,
)


def std_normal_handles(dim):
    def logp_and_grad(x):
        return -0.5 * float(x @ x), -x
    return logp_and_grad


class TestGaussianTargets:
    def test_standard_normal_5d(self):
        lpg = std_normal_handles(5)
        cfg = SamplerConfig(chains=4, warmup=500, draws=1000, seed=11)
        d = sample(lpg, 5, cfg)
        for i in range(5):
            nm = f"theta[{i}]"
            assert abs(d.mean(nm)) < 3 * mcse(d, nm)
            assert abs(d.column(nm).var(ddof=1) - 1.0) < 0.1
            assert rhat(d, nm) < 1.01

    def test_correlated_gaussian(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        prec = np.linalg.inv(cov)

        def lpg(x):
            return -0.5 * float(x @ prec @ x), -(prec @ x)

        d = sample(lpg, 2, SamplerConfig(chains=4, warmup=500, draws=1000,
                                         seed=5))
        emp = np.cov(d.values.T)
        assert float(np.max(np.abs(emp - cov) / np.abs(cov))) < 0.10

    def test_determinism(self):
        lpg = std_normal_handles(3)
        cfg = SamplerConfig(chains=2, warmup=200, draws=300, seed=99)
        d1 = sample(lpg, 3, cfg)
        d2 = sample(lpg, 3, cfg)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.accept_stats, d2.accept_stats)

    def test_threaded_matches_sequential(self):
        lpg = std_normal_handles(3)
        cfg = SamplerConfig(chains=2, warmup=200, draws=200, seed=4)
        d1 = sample(lpg, 3, cfg, threads=1)
        d2 = sample(lpg, 3, cfg, threads=2)
        assert np.array_equal(d1.values, d2.values)

    def test_detailed_balance_ks(self):
        """Empirical CDF of 4000 one-dimensional draws against the standard
        normal CDF, below the 1% KS critical value."""
        lpg = std_normal_handles(1)
        d = sample(lpg, 1, SamplerConfig(chains=4, warmup=500, draws=1000,
                                         seed=21))
        stat = kstest(d.column("theta[0]"), "norm").statistic
        assert stat < 1.63 / math.sqrt(4000)

    def test_nonfinite_init_rejected(self):
        lpg = std_normal_handles(2)
        cfg = SamplerConfig(chains=1, warmup=50, draws=50, seed=0)
        with pytest.raises(InvalidParameterError):
            sample(lpg, 2, cfg, init=np.array([np.nan, 0.0]))


class TestEnergyConservation:
    def test_halving_step_reduces_error(self):
        """The energy error of the integrator NUTS runs
        (``_ChainState._leapfrog``) scales as O(eps^2)."""
        def logp_and_grad(q):
            return -0.5 * float(q @ q), -q

        state = _ChainState(logp_and_grad, 4, SamplerConfig(),
                            np.random.default_rng(0))
        rng = np.random.default_rng(3)
        q0 = rng.normal(size=4)
        p0 = rng.normal(size=4)
        errors = {}
        for eps, steps in ((0.2, 50), (0.1, 100)):
            q, p = q0, p0
            lp, grad = logp_and_grad(q)
            h0 = state._hamiltonian(lp, p)
            worst = 0.0
            for _ in range(steps):
                q, p, grad, lp = state._leapfrog(q, p, grad, eps)
                worst = max(worst, abs(state._hamiltonian(lp, p) - h0))
            errors[eps] = worst
        assert errors[0.2] / errors[0.1] >= 3.0


class TestTreeRules:
    """One NUTS transition against targets whose outcome is known."""

    @staticmethod
    def transition(lpg, q, eps, max_leapfrog=1024, seed=0):
        state = _ChainState(lpg, q.size, SamplerConfig(max_leapfrog=max_leapfrog),
                            np.random.default_rng(seed))
        lp, grad = lpg(q)
        return state.transition(q, lp, grad, eps)

    @pytest.mark.parametrize("max_leapfrog", [1, 8, 128])
    def test_density_calls_within_cap(self, max_leapfrog):
        calls = []

        def lpg(x):
            calls.append(x)
            return -0.5 * float(x @ x), -x

        cap = 2 ** SamplerConfig(max_leapfrog=max_leapfrog).max_depth - 1
        q = np.array([0.5, -0.3, 0.8])
        for eps in (1e-3, 0.3, 1.0, 3.0):
            for seed in range(3):
                calls.clear()
                self.transition(lpg, q, eps, max_leapfrog, seed)
                assert len(calls) - 1 <= cap  # the first call sets lp, grad
                if eps == 1e-3:  # too short a trajectory to turn
                    assert len(calls) - 1 == cap

    def test_step_out_of_support_is_divergent(self):
        def lpg(x):
            inside = bool(np.all(np.abs(x) < 1.0))
            return (0.0 if inside else -math.inf), np.zeros_like(x)

        q = np.array([0.1, -0.2])
        for seed in range(5):
            q1, lp1, _, accept, divergent = self.transition(lpg, q, 1e3,
                                                            seed=seed)
            assert divergent and accept == 0.0
            assert np.array_equal(q1, q) and lp1 == 0.0

    def test_tiny_step_accepts_all(self):
        lpg = std_normal_handles(3)
        q = np.array([1.0, -0.5, 0.25])
        for seed in range(5):
            *_, accept, divergent = self.transition(lpg, q, 1e-4, 8, seed)
            assert abs(accept - 1.0) < 1e-6 and not divergent


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

    def test_rank_normalize_ties_match_rankdata(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 5, size=(4, 50)).astype(float)  # many ties
        arr[0, :10] = 2.0
        ref = rankdata(arr, method="average").reshape(arr.shape)
        expected = ndtri((ref - 3.0 / 8.0) / (arr.size + 0.25))
        assert np.array_equal(_rank_normalize(arr), expected)
        arr[1, 3] = np.nan  # rankdata propagates a NaN to every rank
        assert np.isnan(rankdata(arr, method="average")).all()
        assert np.isnan(_rank_normalize(arr)).all()

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
        def lpg(x):
            v, z = x[0], x[1]
            return (-0.5 * (v * v / 9.0) - 0.5 * (z * z * math.exp(-2 * v)) - v,
                    np.array([-v / 9.0 + z * z * math.exp(-2 * v) - 1.0,
                              -z * math.exp(-2 * v)]))

        d = sample(lpg, 2, SamplerConfig(chains=2, warmup=150, draws=400,
                                         seed=12))
        if float(d.divergent.mean()) > 0.20:
            assert any("divergent" in w for w in d.warnings)
        else:
            assert not d.warnings


def test_cli_import_skips_scipy_stats():
    """The rank normalization needs no scipy.stats, which is slow to
    import; the command line should not pay for it."""
    code = "import sys, dispro.cli; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(dispro.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(chains=0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(target_accept=1.5)


def test_max_depth_from_leapfrog_budget():
    assert SamplerConfig(max_leapfrog=1024).max_depth == 10
    assert SamplerConfig(max_leapfrog=100).max_depth == 6
