"""Self-contained no-U-turn Hamiltonian Monte Carlo.

Dynamic trajectories are grown by doubling until the trajectory turns back on
itself (or a depth cap is hit), with multinomial selection of the returned
state weighted by the Boltzmann weights along the trajectory. Warmup adapts
the step size by dual averaging toward a target acceptance statistic and
estimates a diagonal mass matrix from windowed draw variances, Stan-style:
an initial step-size-only ramp, doubling variance-estimation windows, and a
final step-size-only phase.

Determinism contract: one seed yields one counter-based RNG substream per
chain, so results are bit-identical regardless of chain scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

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

    @property
    def max_depth(self) -> int:
        return max(1, int(math.floor(math.log2(self.max_leapfrog))))


@dataclass
class PosteriorDraws:
    """Flattened sampler output in constrained space, chain-major order."""

    names: list[str]
    values: np.ndarray        # (chains * draws, dim)
    chain_ids: np.ndarray     # (chains * draws,)
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
        col = self.column(name)
        return col.reshape(self.n_chains, -1)

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
    ranks = rankdata(arr, method="average").reshape(arr.shape)
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
    n = x.size
    x = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real
    return acov / n

def _ess_array(arr: np.ndarray) -> float:
    m, n = arr.shape
    if n < 4:
        raise ConfigurationError("ess needs at least 4 draws per chain")
    acov = np.array([_autocovariance(arr[c]) for c in range(m)])
    chain_means = arr.mean(axis=1)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(chain_means, ddof=1))
    if var_plus == 0.0:
        return math.nan

    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, 1]))) / var_plus
    rho[1] = rho_odd
    # Geyer initial positive sequence: sum consecutive pairs while positive.
    t = 1
    while t < n - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - float(np.mean(acov[:, t + 1]))) / var_plus
        rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, t + 2]))) / var_plus
        rho[t + 1] = rho_even
        if (rho_even + rho_odd) >= 0.0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    # Geyer initial monotone sequence: enforce non-increasing pair sums.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    tau = -1.0 + 2.0 * float(np.sum(rho[:max_t])) + float(np.sum(rho[max_t + 1:max_t + 2]))
    # Antithetic chains can drive the sum negative; the floor (as in the
    # posterior R package) caps ESS at m * n * log10(m * n).
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau

def ess(draws: PosteriorDraws, name: str) -> float:
    """Effective sample size from Geyer-truncated autocorrelation sums over
    split chains."""
    return _ess_array(_split_chains(draws.by_chain(name)))

def mcse(draws: PosteriorDraws, name: str) -> float:
    """Monte Carlo standard error of the posterior mean."""
    return draws.sd(name) / math.sqrt(max(ess(draws, name), 1e-12))


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
    q_minus: np.ndarray
    p_minus: np.ndarray
    grad_minus: np.ndarray
    q_plus: np.ndarray
    p_plus: np.ndarray
    grad_plus: np.ndarray
    q_prop: np.ndarray
    lp_prop: float
    grad_prop: np.ndarray
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
        eps = 1.0
        p = self._momentum()
        h0 = self._hamiltonian(lp, p)
        _, p1, _, lp1 = self._leapfrog(q, p, grad, eps)
        h1 = self._hamiltonian(lp1, p1) if np.isfinite(lp1) else math.inf
        accept = math.exp(min(0.0, h0 - h1)) if np.isfinite(h1) else 0.0
        # double while acceptance stays above 1/2, or halve while below
        direction = 1.0 if accept > 0.5 else -1.0
        for _ in range(100):
            eps *= 2.0 ** direction
            _, p1, _, lp1 = self._leapfrog(q, p, grad, eps)
            h1 = self._hamiltonian(lp1, p1) if np.isfinite(lp1) else math.inf
            accept = math.exp(min(0.0, h0 - h1)) if np.isfinite(h1) else 0.0
            if (direction > 0 and accept <= 0.5) or (direction < 0 and accept >= 0.5):
                break
        return min(max(eps, 1e-10), 1e7)

    def _build_tree(self, depth, q, p, grad, direction, eps, h0) -> _Tree:
        if depth == 0:
            q1, p1, grad1, lp1 = self._leapfrog(q, p, grad, direction * eps)
            h1 = self._hamiltonian(lp1, p1) if np.isfinite(lp1) else math.inf
            delta = h1 - h0 if np.isfinite(h1) else math.inf
            divergent = delta > DIVERGENCE_THRESHOLD
            log_w = -delta if np.isfinite(delta) else -math.inf
            metro = math.exp(min(0.0, -delta)) if np.isfinite(delta) else 0.0
            return _Tree(q1, p1, grad1, q1, p1, grad1, q1, lp1, grad1,
                         log_w, metro, 1, divergent, False)

        first = self._build_tree(depth - 1, q, p, grad, direction, eps, h0)
        if first.divergent or first.turned:
            return first
        if direction > 0:
            q2, p2, g2 = first.q_plus, first.p_plus, first.grad_plus
        else:
            q2, p2, g2 = first.q_minus, first.p_minus, first.grad_minus
        second = self._build_tree(depth - 1, q2, p2, g2, direction, eps, h0)

        n_leap = first.n_leapfrog + second.n_leapfrog
        metro = first.metro_sum + second.metro_sum
        if second.divergent or second.turned:
            first.n_leapfrog, first.metro_sum = n_leap, metro
            first.divergent = second.divergent
            first.turned = second.turned
            return first

        log_w = np.logaddexp(first.log_w, second.log_w)
        take_second = (math.log(self.rng.random() + 1e-300)
                       < second.log_w - log_w)
        prop = second if take_second else first
        if direction > 0:
            minus = (first.q_minus, first.p_minus, first.grad_minus)
            plus = (second.q_plus, second.p_plus, second.grad_plus)
        else:
            minus = (second.q_minus, second.p_minus, second.grad_minus)
            plus = (first.q_plus, first.p_plus, first.grad_plus)
        turned = self._uturn(minus[0], minus[1], plus[0], plus[1])
        return _Tree(*minus, *plus, prop.q_prop, prop.lp_prop, prop.grad_prop,
                     float(log_w), metro, n_leap, False, turned)

    def _uturn(self, q_minus, p_minus, q_plus, p_plus) -> bool:
        span = q_plus - q_minus
        return (float(span @ (self.inv_metric * p_minus)) < 0.0
                or float(span @ (self.inv_metric * p_plus)) < 0.0)

    def transition(self, q, lp, grad, eps):
        """One NUTS update. Returns (q, lp, grad, accept_stat, divergent)."""
        p0 = self._momentum()
        h0 = self._hamiltonian(lp, p0)
        q_minus = q_plus = q
        p_minus = p_plus = p0
        grad_minus = grad_plus = grad
        q_prop, lp_prop, grad_prop = q, lp, grad
        log_w = 0.0
        metro_sum, n_leap = 0.0, 0
        divergent = False
        for depth in range(self.config.max_depth):
            direction = 1.0 if self.rng.random() < 0.5 else -1.0
            if direction > 0:
                sub = self._build_tree(depth, q_plus, p_plus, grad_plus,
                                       direction, eps, h0)
                q_plus, p_plus, grad_plus = sub.q_plus, sub.p_plus, sub.grad_plus
            else:
                sub = self._build_tree(depth, q_minus, p_minus, grad_minus,
                                       direction, eps, h0)
                q_minus, p_minus, grad_minus = sub.q_minus, sub.p_minus, sub.grad_minus
            metro_sum += sub.metro_sum
            n_leap += sub.n_leapfrog
            if sub.divergent or sub.turned:
                divergent = sub.divergent
                break
            # biased progressive sampling favors the fresh subtree
            if math.log(self.rng.random() + 1e-300) < sub.log_w - log_w:
                q_prop, lp_prop, grad_prop = sub.q_prop, sub.lp_prop, sub.grad_prop
            log_w = float(np.logaddexp(log_w, sub.log_w))
            if self._uturn(q_minus, p_minus, q_plus, p_plus):
                break
        accept = metro_sum / max(n_leap, 1)
        return q_prop, lp_prop, grad_prop, accept, divergent


def _run_chain(fused, dim, config, init, seed_seq):
    rng = np.random.Generator(np.random.Philox(seed_seq))
    state = _ChainState(fused, dim, config, rng)
    q = np.asarray(init, dtype=float)
    lp, grad = fused(q)
    if not np.isfinite(lp):
        raise InvalidParameterError("initial point has non-finite density")

    eps = state.find_reasonable_eps(q, lp, grad)
    da = _DualAveraging(eps, config.target_accept)
    windows = _adaptation_windows(config.warmup)
    welford = _Welford(dim)
    window_i = 0

    n_keep = config.draws
    out = np.empty((n_keep, dim))
    accepts = np.empty(n_keep)
    divergents = np.zeros(n_keep, dtype=bool)

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


def sample(logp, grad, dim: int, config: SamplerConfig, init=None, *,
           logp_and_grad=None, names=None, constrain=None,
           meta=None, threads: int = 1) -> PosteriorDraws:
    """Run NUTS chains against a log-density and its gradient.

    init may be None (each chain starts uniform in (-2, 2) per coordinate, in
    the handles' space), a single vector shared by all chains, or one vector
    per chain. ``constrain`` optionally maps raw draws to constrained space
    for storage; ``names`` labels the output columns.
    """
    if dim < 1:
        raise ConfigurationError("dim must be at least 1")
    if logp_and_grad is None:
        def logp_and_grad(x, _lp=logp, _gr=grad):
            return _lp(x), _gr(x)
    root = np.random.SeedSequence(config.seed)
    chain_seeds = root.spawn(config.chains + 1)
    init_rng = np.random.Generator(np.random.Philox(chain_seeds[-1]))

    inits = []
    for c in range(config.chains):
        if init is None:
            inits.append(init_rng.uniform(-2.0, 2.0, size=dim))
        else:
            arr = np.asarray(init, dtype=float)
            vec = arr[c] if arr.ndim == 2 else arr
            if vec.shape != (dim,):
                raise InvalidParameterError("init vector has wrong length")
            if not np.all(np.isfinite(vec)):
                raise InvalidParameterError("init vector must be finite")
            inits.append(vec.copy())

    def run(c):
        return _run_chain(logp_and_grad, dim, config, inits[c], chain_seeds[c])

    if threads > 1 and config.chains > 1:
        with ThreadPoolExecutor(max_workers=min(threads, config.chains)) as ex:
            results = list(ex.map(run, range(config.chains)))
    else:
        results = [run(c) for c in range(config.chains)]

    values = np.concatenate([r[0] for r in results], axis=0)
    if constrain is not None:
        values = np.apply_along_axis(constrain, 1, values)
    accepts = np.concatenate([r[1] for r in results])
    divergents = np.concatenate([r[2] for r in results])
    chain_ids = np.repeat(np.arange(config.chains), config.draws)

    warnings = []
    frac = float(divergents.mean())
    if frac > 0.20:
        warnings.append(
            f"{frac:.1%} of post-warmup transitions were divergent; "
            "estimates are unreliable")

    if names is None:
        names = [f"theta[{i}]" for i in range(dim)]
    return PosteriorDraws(names=list(names), values=values,
                          chain_ids=chain_ids, accept_stats=accepts,
                          divergent=divergents, n_chains=config.chains,
                          warnings=warnings, meta=dict(meta or {}))


def leapfrog_energies(logp_and_grad, q0, p0, eps, n_steps, inv_metric=None):
    """Hamiltonian along one leapfrog trajectory; used to check the O(eps^2)
    energy-error scaling of the integrator."""
    q = np.asarray(q0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    inv_metric = np.ones_like(q) if inv_metric is None else inv_metric
    lp, grad = logp_and_grad(q)
    energies = [-lp + 0.5 * float(p @ (inv_metric * p))]
    for _ in range(n_steps):
        p = p + 0.5 * eps * grad
        q = q + eps * inv_metric * p
        lp, grad = logp_and_grad(q)
        p = p + 0.5 * eps * grad
        energies.append(-lp + 0.5 * float(p @ (inv_metric * p)))
    return np.array(energies)
