"""Prior families and the one prior set, ``PRIORS``: the generating priors
of synthetic cohorts, which fits use too."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri

from .types import ConfigurationError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and np.isfinite(self.sigma) and np.isfinite(self.mu)):
            raise ConfigurationError(f"Normal prior needs finite mu and sigma > 0, got {self}")

    lower = None
    log_norm = 0.0  # log P(X in support): no truncation

    def logpdf(self, x):
        z = (x - self.mu) / self.sigma
        return -0.5 * (_LOG_2PI + z * z) - math.log(self.sigma)

    def draw(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mu, self.sigma, size=size)


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mu, sigma) truncated to (lower, inf). The log-density includes
    the truncation normalizer -log P(X > lower)."""

    mu: float
    sigma: float
    lower: float

    def __post_init__(self):
        if not (self.sigma > 0 and np.isfinite(self.sigma)
                and np.isfinite(self.mu) and np.isfinite(self.lower)):
            raise ConfigurationError(f"TruncatedNormal prior is malformed: {self}")

    @property
    def log_norm(self) -> float:
        """log P(X > lower) = log Phi((mu - lower) / sigma)."""
        return float(log_ndtr((self.mu - self.lower) / self.sigma))

    def logpdf(self, x):
        z = (x - self.mu) / self.sigma
        base = -0.5 * (_LOG_2PI + z * z) - math.log(self.sigma) - self.log_norm
        return np.where(np.asarray(x) > self.lower, base, -np.inf) if np.ndim(x) else (
            base if x > self.lower else -math.inf)

    def draw(self, rng: np.random.Generator, size=None):
        # Inverse-CDF sampling restricted to the upper tail mass.
        lo = float(np.exp(log_ndtr((self.lower - self.mu) / self.sigma)))
        u = rng.uniform(lo, 1.0, size=size)
        return self.mu + self.sigma * ndtri(u)


Prior = Normal | TruncatedNormal

# The prior of every sampled global parameter, by role.
PRIORS: dict[str, Prior] = {
    "loading0": TruncatedNormal(1.0, 1.0, 0.5),
    "loading": Normal(0.0, 2.0),
    "feat_intercept": Normal(0.0, 1.0),
    "noise_var": TruncatedNormal(5.0, 1.0, 0.0),
    "visit_intercept": Normal(1.5, 0.1),
    "visit_severity": TruncatedNormal(0.5, 0.1, 0.1),
    "init_sev_mean": Normal(0.0, 4.0),
    "init_sev_sd": TruncatedNormal(1.0, 0.1, 0.0),
    "rate_mean": Normal(1.0, 4.0),
    "rate_sd": TruncatedNormal(0.1, 0.4, 0.0),
    "visit_offset": Normal(0.0, 2.0),
}
