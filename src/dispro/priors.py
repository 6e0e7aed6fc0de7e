"""Prior families and per-parameter prior specifications.

Two stock specifications are provided: ``simulation_priors`` (the generating
priors used for synthetic cohorts and for fitting them) and
``weakly_informative_priors`` (broader priors for real-shaped data, optionally
with loading/intercept/noise prior means seeded from a factor-analysis fit of
first-visit features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr, ndtri

from .baselines import fa_fit
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

# Roles a scalar parameter can play; each maps to one prior in a PriorSpec.
ROLES = (
    "loading0", "loading", "feat_intercept", "noise_var",
    "visit_intercept", "visit_severity",
    "init_sev_mean", "init_sev_sd", "rate_mean", "rate_sd", "visit_offset",
)


@dataclass(frozen=True)
class PriorSpec:
    """Priors for every sampled global parameter, keyed by role.

    ``loading_means`` optionally overrides per-feature loading prior means
    (used by factor-analysis seeding); when set, feature j > 0 uses
    Normal(loading_means[j], loading.sigma) and feature 0 keeps its
    loading0 family re-centered at loading_means[0].
    """

    loading0: Prior
    loading: Prior
    feat_intercept: Prior
    noise_var: Prior
    visit_intercept: Prior
    visit_severity: Prior
    init_sev_mean: Prior
    init_sev_sd: Prior
    rate_mean: Prior
    rate_sd: Prior
    visit_offset: Prior
    loading_means: tuple | None = None

    def for_role(self, role: str, feature: int | None = None) -> Prior:
        if role not in ROLES:
            raise ConfigurationError(f"unknown prior role {role!r}")
        prior = getattr(self, role)
        if self.loading_means is not None and role in ("loading0", "loading"):
            mean = float(self.loading_means[feature or 0])
            prior = replace(prior, mu=mean)
        return prior

    def replace(self, **kwargs) -> "PriorSpec":
        return replace(self, **kwargs)


def simulation_priors() -> PriorSpec:
    """Generating priors for synthetic cohorts; also used when fitting them."""
    return PriorSpec(
        loading0=TruncatedNormal(1.0, 1.0, 0.5),
        loading=Normal(0.0, 2.0),
        feat_intercept=Normal(0.0, 1.0),
        noise_var=TruncatedNormal(5.0, 1.0, 0.0),
        visit_intercept=Normal(1.5, 0.1),
        visit_severity=TruncatedNormal(0.5, 0.1, 0.1),
        init_sev_mean=Normal(0.0, 4.0),
        init_sev_sd=TruncatedNormal(1.0, 0.1, 0.0),
        rate_mean=Normal(1.0, 4.0),
        rate_sd=TruncatedNormal(0.1, 0.4, 0.0),
        visit_offset=Normal(0.0, 2.0),
    )


def weakly_informative_priors(loading_means=None) -> PriorSpec:
    """Broad priors for data whose scales are not known in advance.

    ``loading_means`` seeds the loading prior centers (see
    ``factor_seeded_priors``); loadings get unit prior variance around them.
    """
    spec = PriorSpec(
        loading0=Normal(1.0, 1.0),
        loading=Normal(0.0, 1.0),
        feat_intercept=Normal(0.0, 1.0),
        noise_var=TruncatedNormal(1.0, 0.5, 0.0),
        visit_intercept=Normal(2.5, 1.0),
        visit_severity=Normal(0.0, 1.0),
        init_sev_mean=Normal(0.0, 1.0),
        init_sev_sd=TruncatedNormal(1.0, 1.0, 0.0),
        rate_mean=Normal(0.0, 1.0),
        rate_sd=TruncatedNormal(1.5, 1.0, 0.0),
        visit_offset=Normal(0.0, 1.0),
    )
    if loading_means is not None:
        spec = spec.replace(loading_means=tuple(float(m) for m in loading_means))
    return spec


def factor_seeded_priors(dataset) -> PriorSpec:
    """Weakly informative priors with loading prior means set by a one-factor
    analysis of the pinned group's first-visit features.

    At the first visit the pinned group's severity is standard normal, so the
    feature distribution is exactly a one-factor model; its fitted loadings
    give a data-driven scale for the loading priors. The sign of the first
    loading is flipped positive to match the sign pin.
    """
    rows = [p.features[0] for p in dataset.patients
            if p.group.index == dataset.pinned_group]
    if len(rows) < 2:
        raise ConfigurationError("factor seeding needs at least 2 pinned-group patients")
    X = np.asarray(rows, dtype=float)
    fit = fa_fit(X, 1)
    means = fit.loadings[:, 0].copy()
    if means[0] < 0:
        means = -means
    return weakly_informative_priors(loading_means=means)


def prior_from_dict(cfg: dict) -> Prior:
    """Parse a prior from a flat config mapping, e.g.
    {"family": "normal", "mu": 0, "sigma": 1} or
    {"family": "truncnormal", "mu": 1, "sigma": 1, "lower": 0.5}."""
    try:
        family = cfg["family"].lower()
        if family == "normal":
            return Normal(float(cfg["mu"]), float(cfg["sigma"]))
        if family in ("truncnormal", "truncated_normal"):
            return TruncatedNormal(float(cfg["mu"]), float(cfg["sigma"]), float(cfg["lower"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"malformed prior config {cfg!r}") from exc
    raise ConfigurationError(f"unknown prior family {cfg.get('family')!r}")
