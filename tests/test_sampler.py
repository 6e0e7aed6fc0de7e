"""Sampler calibration on known targets, diagnostics behavior, the
integrator's energy-error scaling, and chains run in forked processes."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtri
from scipy.stats import kstest, rankdata

import dispro
from dispro import ConfigurationError, InvalidParameterError
from dispro.dataio import write_json
from dispro.fitting import convergence_summary, max_global_rhat
from dispro.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _ChainState,
    _ess_array,
    _rank_normalize,
    ess,
    forked_map,
    rhat,
    sample,
)

from conftest import assert_no_children


def std_normal_handles(dim):
    def logp_and_grad(x):
        return -0.5 * float(x @ x), -x
    return logp_and_grad


def reference_ess(arr):
    """ESS of the (m, n) chains ``arr``, ported loop for loop from the
    published estimator (Vehtari et al. 2021, arXiv:1903.08008; the ``_ess``
    of ArviZ), with autocovariances by direct sums."""
    m, n = arr.shape
    x = arr - arr.mean(axis=1, keepdims=True)
    acov = np.array([[x[c, :n - t] @ x[c, t:] / n for t in range(n)]
                     for c in range(m)])
    mean_var = np.mean(acov[:, 0]) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += np.var(arr.mean(axis=1), ddof=1)
    rho = np.zeros(n)
    rho_even = rho[0] = 1.0
    rho_odd = rho[1] = 1.0 - (mean_var - np.mean(acov[:, 1])) / var_plus
    # Geyer's initial positive sequence
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - np.mean(acov[:, t + 1])) / var_plus
        rho_odd = 1.0 - (mean_var - np.mean(acov[:, t + 2])) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # Geyer's initial monotone sequence
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = (-1.0 + 2.0 * np.sum(rho[:max_t + 1])
           + np.sum(rho[max_t + 1:max_t + 2]))
    return m * n / max(tau, 1.0 / math.log10(m * n))


def uniform_inits(cfg, dim):
    """Starts uniform in (-2, 2), one row per chain, from the substream of
    the seed after the chains' own."""
    seq = np.random.SeedSequence(cfg.seed).spawn(cfg.chains + 1)[-1]
    return np.random.Generator(np.random.Philox(seq)).uniform(
        -2.0, 2.0, size=(cfg.chains, dim))


class TestGaussianTargets:
    def test_standard_normal_5d(self):
        lpg = std_normal_handles(5)
        cfg = SamplerConfig(chains=4, warmup=500, draws=1000, seed=11)
        d = sample(lpg, cfg, uniform_inits(cfg, 5))
        for i in range(5):
            nm = f"theta[{i}]"
            mcse = d.sd(nm) / math.sqrt(ess(d, nm))  # of the mean
            assert abs(d.mean(nm)) < 3 * mcse
            assert abs(d.column(nm).var(ddof=1) - 1.0) < 0.1
            assert rhat(d, nm) < 1.01

    def test_correlated_gaussian(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        prec = np.linalg.inv(cov)

        def lpg(x):
            return -0.5 * float(x @ prec @ x), -(prec @ x)

        cfg = SamplerConfig(chains=4, warmup=500, draws=1000, seed=5)
        d = sample(lpg, cfg, uniform_inits(cfg, 2))
        emp = np.cov(d.values.T)
        assert float(np.max(np.abs(emp - cov) / np.abs(cov))) < 0.10

    def test_determinism(self):
        lpg = std_normal_handles(3)
        cfg = SamplerConfig(chains=2, warmup=200, draws=300, seed=99)
        d1 = sample(lpg, cfg, uniform_inits(cfg, 3))
        d2 = sample(lpg, cfg, uniform_inits(cfg, 3))
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.accept_stats, d2.accept_stats)

    def test_chain_substreams_independent_of_chain_count(self):
        """Each chain runs from its own substream of the seed: with explicit
        inits, a 2-chain run is the first two chains of a 3-chain run."""
        lpg = std_normal_handles(3)
        inits = np.random.default_rng(0).uniform(-2.0, 2.0, size=(3, 3))
        d2 = sample(lpg, SamplerConfig(chains=2, warmup=100, draws=100,
                                       seed=4), inits[:2])
        d3 = sample(lpg, SamplerConfig(chains=3, warmup=100, draws=100,
                                       seed=4), inits)
        first = slice(0, 200)  # chains 0 and 1 of the chain-major draws
        assert np.array_equal(d2.values, d3.values[first])
        assert np.array_equal(d2.accept_stats, d3.accept_stats[first])
        assert np.array_equal(d2.divergent, d3.divergent[first])

    def test_detailed_balance_ks(self):
        """Empirical CDF of 4000 one-dimensional draws against the standard
        normal CDF, below the 1% KS critical value."""
        lpg = std_normal_handles(1)
        cfg = SamplerConfig(chains=4, warmup=500, draws=1000, seed=21)
        d = sample(lpg, cfg, uniform_inits(cfg, 1))
        stat = kstest(d.column("theta[0]"), "norm").statistic
        assert stat < 1.63 / math.sqrt(4000)

    def test_nonfinite_init_rejected(self):
        lpg = std_normal_handles(2)
        cfg = SamplerConfig(chains=1, warmup=50, draws=50, seed=0)
        with pytest.raises(InvalidParameterError):
            sample(lpg, cfg, np.array([[np.nan, 0.0]]))


class TestProcesses:
    """Chains dealt over forked processes: chain c runs in process c mod n."""

    @pytest.fixture(autouse=True)
    def eight_cores(self, monkeypatch):
        # the process count is capped by the usable cores; lift the cap so
        # that 3 processes are 3 on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

    @pytest.mark.parametrize("processes", [2, 3])
    def test_draws_independent_of_process_count(self, processes):
        scale = np.array([1.0, 2.0, 0.5])

        def lpg(x):  # a closure, which could not be pickled to a worker
            z = x / scale
            return -0.5 * float(np.add.reduce(z * z)), -z / scale

        inits = np.random.default_rng(1).uniform(-2.0, 2.0, size=(4, 3))
        runs = [sample(lpg, SamplerConfig(chains=4, warmup=80, draws=60,
                                          seed=6, processes=p), inits)
                for p in (1, processes)]
        for field in ("values", "accept_stats", "divergent"):
            one, many = (getattr(d, field) for d in runs)
            assert one.tobytes() == many.tobytes()
        assert_no_children()

    def test_child_error_raised_in_caller(self):
        """Chain 1 runs in a child; its init error reaches the caller with
        its type and message, as it does when the chain runs in-process."""
        def lpg(x):
            lp = -math.inf if x[0] > 5.0 else -0.5 * float(np.add.reduce(x * x))
            return lp, -x

        inits = np.array([[0.0, 0.0], [9.0, 0.0]])
        for processes in (1, 2):
            cfg = SamplerConfig(chains=2, warmup=20, draws=20, processes=processes)
            with pytest.raises(InvalidParameterError,
                               match="^initial point has non-finite density$"):
                sample(lpg, cfg, inits)
            assert_no_children()

    @staticmethod
    def caller_only(caller):
        """A standard normal handle that ends any process but ``caller``
        with status 7."""
        def lpg(x):
            if os.getpid() != caller:
                os._exit(7)
            return -0.5 * float(np.add.reduce(x * x)), -x
        return lpg

    def test_child_dying_named(self):
        cfg = SamplerConfig(chains=3, warmup=20, draws=20, processes=2)
        with pytest.raises(RuntimeError, match=r"chains \[1\] ended with status 7"):
            sample(self.caller_only(os.getpid()), cfg, np.zeros((3, 2)))
        assert_no_children()

    def test_caller_runs_every_chain_without_affinity(self, monkeypatch):
        """Where the platform cannot report its usable cores, every chain
        runs in the caller."""
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg = SamplerConfig(chains=3, warmup=20, draws=20, processes=3)
        d = sample(self.caller_only(os.getpid()), cfg, np.zeros((3, 2)))
        assert d.values.shape == (60, 2)

    def test_caller_interrupt_stops_children(self):
        """An interrupt in the caller's own chain ends and reaps the children,
        which would otherwise run their long chains on."""
        caller = os.getpid()

        def lpg(x):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return -0.5 * float(np.add.reduce(x * x)), -x

        cfg = SamplerConfig(chains=3, warmup=10 ** 6, draws=10, processes=3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sample(lpg, cfg, np.zeros((3, 2)))
        assert time.monotonic() - start < 60.0  # not a wait for the chains
        assert_no_children()


class TestForkedMap:
    """``forked_map`` on its own: job j in process j mod n, results in job
    order, and no child left behind."""

    @pytest.fixture(autouse=True)
    def eight_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

    def test_results_in_job_order(self):
        caller = os.getpid()
        out = forked_map(lambda j: (j * j, os.getpid()), range(7), 3)
        assert [sq for sq, _ in out] == [j * j for j in range(7)]
        pids = [pid for _, pid in out]
        assert all(pids[j] == pids[j % 3] for j in range(7))
        assert pids[0] == caller and len(set(pids)) == 3
        assert_no_children()

    def test_processes_capped_by_jobs_and_cores(self, monkeypatch):
        """Two jobs take two processes of five; with one usable core, the
        caller runs every job."""
        assert len(set(forked_map(lambda j: os.getpid(), range(2), 5))) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        caller = os.getpid()
        assert forked_map(lambda j: os.getpid(), range(3), 3) == [caller] * 3
        assert forked_map(lambda j: j, [], 3) == []
        assert_no_children()

    def test_child_dying_named(self):
        caller = os.getpid()

        def fn(j):
            if os.getpid() != caller:
                os._exit(7)
            return j

        with pytest.raises(RuntimeError, match=r"^the process of jobs \[1, 3\] "
                           r"ended with status 7 and sent no results$"):
            forked_map(fn, range(4), 2)
        assert_no_children()

    def test_child_exception_raised_in_caller(self):
        def fn(j):
            if j == 2:
                raise ValueError(f"job {j}")
            return j

        with pytest.raises(ValueError, match="^job 2$"):
            forked_map(fn, range(4), 3)
        assert_no_children()


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

    def test_constant_column_gives_null_diagnostics(self, tmp_path):
        """A global whose draws never move has no R-hat or ESS: both are
        None (null in diagnostics.json), and the worst R-hat is that of
        the other globals."""
        rng = np.random.default_rng(4)
        values = np.column_stack([rng.normal(size=400), np.full(400, 2.5)])
        d = PosteriorDraws(names=["x", "c"], values=values,
                           accept_stats=np.ones(400),
                           divergent=np.zeros(400, dtype=bool), n_chains=4,
                           meta={"n_global": 2})
        diag = convergence_summary(d)
        assert diag["parameters"]["c"]["rhat"] is None
        assert diag["parameters"]["c"]["ess"] is None
        assert diag["parameters"]["x"]["ess"] > 0
        assert diag["max_global_rhat"] == rhat(d, "x") == max_global_rhat(d)
        write_json(diag, tmp_path / "diagnostics.json")

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

    def test_ess_matches_reference_loops(self):
        """The array form of the estimator against a loop-for-loop port of
        the published one, on AR(1) chain sets from strongly antithetic to
        strongly autocorrelated, down to the 4-draw minimum."""
        rng = np.random.default_rng(27)
        for _ in range(700):
            m, n = int(rng.integers(1, 5)), int(rng.integers(4, 300))
            phi = rng.uniform(-0.95, 0.97)
            x = lfilter([1.0], [1.0, -phi], rng.normal(size=(m, n)), axis=1)
            assert _ess_array(x) == pytest.approx(reference_ess(x), rel=1e-12)

    def test_ess_iid_mean_unbiased(self):
        """Over 1000 sets of 4 iid chains of 100 draws, ESS averages the
        true 400 within 3% (the estimator's mean is about 393, its standard
        error over 1000 sets about 1.7); summing the truncating pair's even
        lag twice overstated it at about 424."""
        rng = np.random.default_rng(400)
        values = [_ess_array(rng.normal(size=(4, 100))) for _ in range(1000)]
        assert np.mean(values) == pytest.approx(400.0, rel=0.03)

    def test_divergence_warning(self):
        # a funnel-like target with wildly varying curvature produces
        # divergences at practical step sizes
        def lpg(x):
            v, z = x[0], x[1]
            return (-0.5 * (v * v / 9.0) - 0.5 * (z * z * math.exp(-2 * v)) - v,
                    np.array([-v / 9.0 + z * z * math.exp(-2 * v) - 1.0,
                              -z * math.exp(-2 * v)]))

        cfg = SamplerConfig(chains=2, warmup=150, draws=400, seed=12)
        d = sample(lpg, cfg, uniform_inits(cfg, 2))
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


def test_draws_independent_of_blas_threads():
    """Identical draws whatever the BLAS thread count, at a dimension where
    a threaded dot product would split its sum: one short chain on a
    10,001-dimensional standard normal, sampled in one process per thread
    count."""
    probe = (
        "import hashlib\n"
        "import numpy as np\n"
        "from dispro.sampler import SamplerConfig, sample\n"
        "def lpg(x):\n"
        "    return -0.5 * float(np.add.reduce(x * x)), -x\n"
        "cfg = SamplerConfig(chains=1, warmup=4, draws=4, max_leapfrog=16,"
        " seed=3)\n"
        "inits = np.random.default_rng(0).uniform(-2.0, 2.0, size=(1, 10001))\n"
        "d = sample(lpg, cfg, inits)\n"
        "print(hashlib.sha256(d.values.tobytes()"
        " + d.accept_stats.tobytes()).hexdigest())\n")
    src = str(Path(dispro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        outs.append(run.stdout.strip())
    assert len(outs[0]) == 64
    assert outs[0] == outs[1]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(chains=0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(target_accept=1.5)


def test_max_depth_from_leapfrog_budget():
    assert SamplerConfig(max_leapfrog=1024).max_depth == 10
    assert SamplerConfig(max_leapfrog=100).max_depth == 6
