"""Self-contained no-U-turn Hamiltonian Monte Carlo.

Dynamic trajectories are grown by doubling until the trajectory turns back on
itself (or a depth cap is hit). One merge rule joins two halves of a subtree
and each new subtree to the trajectory: it selects the returned state by the
Boltzmann weights, multinomially inside subtrees and by biased progressive
sampling at the top, then checks the merged ends for a U-turn. Warmup adapts
the step size by dual averaging toward a target acceptance statistic and
estimates a diagonal mass matrix from windowed draw variances, Stan-style:
an initial step-size-only ramp, doubling variance-estimation windows, and a
final step-size-only phase.

Determinism contract: chains run one after another, each from its own
counter-based RNG substream of the seed, so from a given start chain c's
draws do not depend on how many chains run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .types import ConfigurationError, InvalidParameterError

DIVERGENCE_THRESHOLD = 1000.0  # energy error that marks a divergent transition


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 500
    draws: int = 1000
    target_accept: float = 0.8
    max_leapfrog: int = 1024
    seed: int = 0

    def __post_init__(self):
        if min(self.chains, self.warmup, self.draws, self.max_leapfrog) < 1:
            raise ConfigurationError("chains, warmup, draws, max_leapfrog must be positive")
        if not (0.0 < self.target_accept < 1.0):
            raise ConfigurationError("target_accept must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")

    @property
    def max_depth(self) -> int:
        return max(1, int(math.floor(math.log2(self.max_leapfrog))))


@dataclass
class PosteriorDraws:
    """Flattened draws in chain-major order."""

    names: list[str]
    values: np.ndarray        # (chains * draws, dim)
    accept_stats: np.ndarray  # (chains * draws,)
    divergent: np.ndarray     # (chains * draws,) bool
    n_chains: int
    warnings: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._col = {n: i for i, n in enumerate(self.names)}

    def has(self, name: str) -> bool:
        return name in self._col

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self._col[name]]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def by_chain(self, name: str) -> np.ndarray:
        """(n_chains, draws_per_chain) view of one parameter."""
        return self.column(name).reshape(self.n_chains, -1)

    def mean(self, name: str) -> float:
        return float(self.column(name).mean())

    def sd(self, name: str) -> float:
        return float(self.column(name).std(ddof=1))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _split_chains(arr: np.ndarray) -> np.ndarray:
    half = arr.shape[1] // 2
    return np.vstack([arr[:, :half], arr[:, half:2 * half]])

def _rank_normalize(arr: np.ndarray) -> np.ndarray:
    if np.isnan(arr).any():  # a NaN leaves every rank undefined
        return np.full(arr.shape, np.nan)
    # average ranks: tied values share the mean of the ranks they span
    _, inv, counts = np.unique(arr.ravel(), return_inverse=True,
                               return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inv].reshape(arr.shape)
    return ndtri((ranks - 3.0 / 8.0) / (arr.size + 0.25))

def _rhat_basic(arr: np.ndarray) -> float:
    m, n = arr.shape
    chain_means = arr.mean(axis=1)
    within = float(np.mean(arr.var(axis=1, ddof=1)))
    between = n * float(np.var(chain_means, ddof=1))
    if within == 0.0:
        return math.nan
    var_plus = (n - 1) / n * within + between / n
    return math.sqrt(var_plus / within)

def rhat(draws: PosteriorDraws, name: str) -> float:
    """Rank-normalized split R-hat: the larger of the bulk statistic on
    rank-normalized draws and the tail statistic on folded draws."""
    arr = draws.by_chain(name)
    if arr.shape[0] < 2:
        raise ConfigurationError("rhat needs at least 2 chains")
    if arr.shape[1] < 4:
        raise ConfigurationError("rhat needs at least 4 draws per chain")
    split = _split_chains(arr)
    bulk = _rhat_basic(_rank_normalize(split))
    folded = np.abs(arr - np.median(arr))
    tail = _rhat_basic(_rank_normalize(_split_chains(folded)))
    return max(bulk, tail)

def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of ``x`` at lags 0..n-1, by one FFT."""
    n = x.shape[-1]
    x = x - x.mean(axis=-1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, size, axis=-1)
    return np.fft.irfft(f * np.conj(f), size, axis=-1)[..., :n] / n

def _ess_array(arr: np.ndarray) -> float:
    """ESS of the (m, n) split chains ``arr`` by Geyer's truncation as in
    Vehtari et al. (2021): the autocorrelations summed in pairs up to the
    first pair that is not positive, the pair sums made non-increasing (the
    initial monotone sequence), and the even lag after them added once."""
    m, n = arr.shape
    if n < 4:
        raise ConfigurationError("ess needs at least 4 draws per chain")
    acov = _autocovariance(arr)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(arr.mean(axis=1), ddof=1))
    if not var_plus > 0.0:  # constant draws, or a NaN among them
        return math.nan
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # the sums of the pairs (rho[2k], rho[2k + 1]) within the reference's
    # scan bound, lag n - 2; the sum stops at pair s
    pairs = rho[:2 * (1 + (n - 3) // 2)].reshape(-1, 2).sum(axis=1)
    stop = pairs <= 0.0
    s = int(np.argmax(stop)) if stop.any() else pairs.size - 1
    tau = -1.0 + 2.0 * float(np.sum(np.minimum.accumulate(pairs[:s])))
    # pair s's even lag counts once: if positive, and also if the pair is
    # not negative, which it is when the scan bound ended the sum
    if rho[2 * s] > 0.0 or pairs[s] >= 0.0:
        tau += float(rho[2 * s])
    # Antithetic chains can drive the sum negative; the floor (as in the
    # posterior R package) caps ESS at m * n * log10(m * n).
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau

def ess(draws: PosteriorDraws, name: str) -> float:
    """Effective sample size from Geyer-truncated autocorrelation sums over
    split chains."""
    return _ess_array(_split_chains(draws.by_chain(name)))


# ---------------------------------------------------------------------------
# NUTS internals
# ---------------------------------------------------------------------------

class _DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    GAMMA, T0, KAPPA = 0.05, 10.0, 0.75

    def __init__(self, eps0: float, target: float):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept: float) -> float:
        self.count += 1
        m = self.count
        eta = 1.0 / (m + self.T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept)
        self.log_eps = self.mu - math.sqrt(m) / self.GAMMA * self.h_bar
        w = m ** (-self.KAPPA)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


class _Welford:
    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def add(self, x: np.ndarray):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def variance(self) -> np.ndarray:
        return self.m2 / max(self.n - 1, 1)


def _adaptation_windows(warmup: int):
    """(start, end) variance-estimation windows between the initial step-size
    ramp (15% of warmup) and the final step-size-only phase (10%), doubling
    from 25 iterations."""
    init_buf = int(round(0.15 * warmup))
    term_buf = int(round(0.10 * warmup))
    base = 25
    if warmup < init_buf + term_buf + base or warmup < 40:
        return []
    windows = []
    start, size = init_buf, base
    last = warmup - term_buf
    while start < last:
        end = start + size
        if end + 2 * size > last:  # absorb the remainder into the final window
            end = last
        windows.append((start, end))
        start, size = end, size * 2
    return windows


@dataclass
class _Tree:
    minus: tuple  # (q, p, grad) at the backward end
    plus: tuple   # (q, p, grad) at the forward end
    prop: tuple   # (q, lp, grad) of the selected state
    log_w: float
    metro_sum: float
    n_leapfrog: int
    divergent: bool
    turned: bool


class _ChainState:
    """One chain's NUTS kernel with its own RNG and adaptation state."""

    def __init__(self, fused, dim, config, rng):
        self.f = fused
        self.dim = dim
        self.config = config
        self.rng = rng
        self.inv_metric = np.ones(dim)  # diagonal estimate of posterior variance

    def _hamiltonian(self, lp: float, p: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            ke = 0.5 * float(p @ (self.inv_metric * p))
        return math.inf if not np.isfinite(ke) else -lp + ke

    def _energy_error(self, h0: float, lp1: float, p1: np.ndarray) -> float:
        """H(q1, p1) - h0, or +inf (weight exp(-inf) = 0) for a rejected step."""
        return self._hamiltonian(lp1, p1) - h0 if np.isfinite(lp1) else math.inf

    def _leapfrog(self, q, p, grad, eps):
        with np.errstate(over="ignore", invalid="ignore"):
            p1 = p + 0.5 * eps * grad
            q1 = q + eps * self.inv_metric * p1
        if not np.all(np.isfinite(q1)):
            return q1, p1, grad, -math.inf
        lp1, grad1 = self.f(q1)
        if not np.isfinite(lp1):
            return q1, p1, grad1, -math.inf
        p1 = p1 + 0.5 * eps * grad1
        return q1, p1, grad1, lp1

    def _momentum(self) -> np.ndarray:
        return self.rng.standard_normal(self.dim) / np.sqrt(self.inv_metric)

    def find_reasonable_eps(self, q, lp, grad) -> float:
        p = self._momentum()
        h0 = self._hamiltonian(lp, p)

        def accept(eps):
            _, p1, _, lp1 = self._leapfrog(q, p, grad, eps)
            return math.exp(min(0.0, -self._energy_error(h0, lp1, p1)))

        eps = 1.0
        # double while acceptance stays above 1/2, or halve while below
        direction = 1.0 if accept(eps) > 0.5 else -1.0
        for _ in range(100):
            eps *= 2.0 ** direction
            a = accept(eps)
            if (direction > 0 and a <= 0.5) or (direction < 0 and a >= 0.5):
                break
        return min(max(eps, 1e-10), 1e7)

    def _build_tree(self, depth, start, direction, eps, h0) -> _Tree:
        """2**depth leapfrog steps on from the ``direction`` end of ``start``."""
        if depth == 0:
            end = start.plus if direction > 0 else start.minus
            q1, p1, grad1, lp1 = self._leapfrog(*end, direction * eps)
            delta = self._energy_error(h0, lp1, p1)
            return _Tree((q1, p1, grad1), (q1, p1, grad1), (q1, lp1, grad1),
                         -delta, math.exp(min(0.0, -delta)), 1,
                         delta > DIVERGENCE_THRESHOLD, False)
        tree = self._build_tree(depth - 1, start, direction, eps, h0)
        if tree.divergent or tree.turned:
            return tree
        second = self._build_tree(depth - 1, tree, direction, eps, h0)
        return self._merge(tree, second, direction, biased=False)

    def _merge(self, old: _Tree, new: _Tree, direction, biased) -> _Tree:
        """Grow ``old`` by ``new``, built on its ``direction`` side. A divergent
        or turned ``new`` stops the tree; else new's proposal is taken with
        probability w_new / (w_old + w_new) inside a subtree, or min(1, w_new /
        w_old) when ``biased`` (at the top), and the merged ends face a U-turn check."""
        old.n_leapfrog += new.n_leapfrog
        old.metro_sum += new.metro_sum
        if new.divergent or new.turned:
            old.divergent, old.turned = new.divergent, new.turned
            return old
        log_w = float(np.logaddexp(old.log_w, new.log_w))
        log_ratio = new.log_w - (old.log_w if biased else log_w)
        if math.log(self.rng.random() + 1e-300) < log_ratio:
            old.prop = new.prop
        old.log_w = log_w
        if direction > 0:
            old.plus = new.plus
        else:
            old.minus = new.minus
        old.turned = self._uturn(old.minus, old.plus)
        return old

    def _uturn(self, minus, plus) -> bool:
        span = plus[0] - minus[0]
        return (float(span @ (self.inv_metric * minus[1])) < 0.0
                or float(span @ (self.inv_metric * plus[1])) < 0.0)

    def transition(self, q, lp, grad, eps):
        """One NUTS update. Returns (q, lp, grad, accept_stat, divergent)."""
        p0 = self._momentum()
        h0 = self._hamiltonian(lp, p0)
        tree = _Tree((q, p0, grad), (q, p0, grad), (q, lp, grad),
                     0.0, 0.0, 0, False, False)
        for depth in range(self.config.max_depth):
            direction = 1.0 if self.rng.random() < 0.5 else -1.0
            sub = self._build_tree(depth, tree, direction, eps, h0)
            tree = self._merge(tree, sub, direction, biased=True)
            if tree.divergent or tree.turned:
                break
        return (*tree.prop, tree.metro_sum / max(tree.n_leapfrog, 1), tree.divergent)


def _run_chain(fused, config, q, seed_seq):
    dim = q.size
    rng = np.random.Generator(np.random.Philox(seed_seq))
    state = _ChainState(fused, dim, config, rng)
    lp, grad = fused(q)
    if not np.isfinite(lp):
        raise InvalidParameterError("initial point has non-finite density")

    eps = state.find_reasonable_eps(q, lp, grad)
    da = _DualAveraging(eps, config.target_accept)
    windows = _adaptation_windows(config.warmup)
    welford = _Welford(dim)
    window_i = 0

    out = np.empty((config.draws, dim))
    accepts = np.empty(config.draws)
    divergents = np.zeros(config.draws, dtype=bool)

    for it in range(config.warmup + config.draws):
        q, lp, grad, accept, divergent = state.transition(q, lp, grad, eps)
        if it < config.warmup:
            eps = da.update(accept)
            if window_i < len(windows):
                start, end = windows[window_i]
                if start <= it < end:
                    welford.add(q)
                if it == end - 1:
                    n = welford.n
                    var = welford.variance()
                    state.inv_metric = (n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0))
                    welford = _Welford(dim)
                    window_i += 1
                    eps = state.find_reasonable_eps(q, lp, grad)
                    da = _DualAveraging(eps, config.target_accept)
            if it == config.warmup - 1:
                eps = da.adapted
        else:
            k = it - config.warmup
            out[k] = q
            accepts[k] = accept
            divergents[k] = divergent
    return out, accepts, divergents


def sample(logp_and_grad, config: SamplerConfig, inits) -> PosteriorDraws:
    """Run NUTS chains against a log-density.

    ``logp_and_grad(x)`` returns the log-density and its gradient at x; a
    non-finite log-density marks a rejected point. ``inits`` holds one
    finite start per chain, shape (chains, dim). Draws are in the handle's
    space, in columns named ``theta[i]``.
    """
    inits = np.asarray(inits, dtype=float)
    if inits.ndim != 2 or inits.shape[0] != config.chains or inits.size == 0:
        raise InvalidParameterError("inits must have shape (chains, dim)")
    if not np.all(np.isfinite(inits)):
        raise InvalidParameterError("init vector must be finite")
    chain_seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    results = [_run_chain(logp_and_grad, config, inits[c], chain_seeds[c])
               for c in range(config.chains)]

    values = np.concatenate([r[0] for r in results], axis=0)
    accepts = np.concatenate([r[1] for r in results])
    divergents = np.concatenate([r[2] for r in results])

    warnings = []
    frac = float(divergents.mean())
    if frac > 0.20:
        warnings.append(
            f"{frac:.1%} of post-warmup transitions were divergent; "
            "estimates are unreliable")

    return PosteriorDraws(names=[f"theta[{i}]" for i in range(inits.shape[1])],
                          values=values, accept_stats=accepts,
                          divergent=divergents, n_chains=config.chains,
                          warnings=warnings)
