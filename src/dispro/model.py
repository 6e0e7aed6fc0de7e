"""Joint log-density of the progression model and its analytic gradient.

The generative structure: each patient has latent severity
``sev(t) = init_sev + rate * t`` over normalized time. At visit bins,
observed features are ``loadings * sev + feat_intercepts`` plus independent
Gaussian noise with per-feature variances. Visits themselves follow a
discretized log-linear point process: in a bin of width ``w`` starting at
time ``t``, a visit occurs with probability ``1 - exp(-rate_t * w)`` where
``log(rate_t) = visit_intercept + visit_severity * sev(t) + visit_offset``.
The first visit defines t = 0 and is conditioned on, not modeled.

``ModelVariant`` is the full model or one of its disparity-blind ablations,
with the group-specific blocks it learns. ``param_layout`` and
``latent_names`` spell every canonical parameter name: the shared block,
then groups by index, then patients in dataset order (per patient init_sev
then rate). ``ProgressionModel`` flattens all sampled
parameters into one vector in that order, maps it to an unconstrained space
for HMC, and evaluates density and gradient in one pass, with the
latents centered or non-centered.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np
from scipy.special import exprel

from .priors import Prior, simulation_priors
from .types import (
    Dataset,
    DatasetIndex,
    GroupParams,
    InvalidParameterError,
    PatientLatents,
    SharedParams,
)

_LOG_2PI = math.log(2.0 * math.pi)

# Log visit rates above this cap overflow the likelihood; the density returns
# the -inf sentinel there so the sampler treats the region as rejected.
LOG_RATE_CAP = 30.0


class ModelVariant(Enum):
    """The fitted model and its disparity-blind ablations, each with the
    group-specific parameter blocks it learns:

    group_init    per-group initial-severity mean/sd for non-pinned groups
                  (False pins every group to mean 0, sd 1)
    group_rates   per-group progression-rate mean/sd (False learns one shared pair)
    group_visits  per-group visit-rate offsets for non-pinned groups
                  (False fixes every offset to 0)

    Each ablated variant removes exactly the blocks of one disparity;
    NO_DISPARITIES removes all three."""

    FULL = "full", True, True, True
    NO_INITIAL_SEVERITY = "no_initial_severity", False, True, True
    NO_RATE = "no_rate", True, False, True
    NO_VISIT = "no_visit", True, True, False
    NO_DISPARITIES = "no_disparities", False, False, False

    def __new__(cls, value, group_init, group_rates, group_visits):
        member = object.__new__(cls)
        member._value_ = value
        member.group_init = group_init
        member.group_rates = group_rates
        member.group_visits = group_visits
        return member

    @property
    def flags(self) -> dict:
        """The flags by name, as ``fit_meta.json`` stores them."""
        return {"group_init": self.group_init, "group_rates": self.group_rates,
                "group_visits": self.group_visits}

    @classmethod
    def from_flags(cls, flags) -> ModelVariant | None:
        """The variant with exactly these flags, or None."""
        return next((v for v in cls if v.flags == flags), None)


# ---------------------------------------------------------------------------
# likelihood blocks on flat arrays
# ---------------------------------------------------------------------------

def _emission_block(L, B, V, sev0, rate, idx: DatasetIndex):
    """Partial sums of the Gaussian log-likelihood of the observed cells
    (per feature, the log(2 pi v) constant and the quadratic term) over the
    (features, visits) rows of ``idx``, and what the gradient reuses: the
    per-visit severity, the precision-weighted residuals (0 at missing
    cells) and the per-feature sums of squared standardized residuals."""
    sev = sev0[idx.visit_patient] + rate[idx.visit_patient] * idx.visit_time
    resid = idx.visit_value - (L[:, None] * sev + B[:, None])
    resid[idx.visit_missing] = 0.0
    w = resid / V[:, None]
    rw = np.add.reduce(resid * w, axis=1)
    parts = [-0.5 * float(np.add.reduce(idx.cells_per_feature
                                        * np.log(2.0 * np.pi * V))),
             *(-0.5 * rw).tolist()]
    return parts, sev, w, rw


def _visit_block(vint, vsev, offset, sev0, rate, idx: DatasetIndex,
                 bin_width, want_grad=False):
    """Partial sums of the censored-Poisson log-likelihood of the visit
    indicators over bins 1..horizon (severity at each bin's left edge) and,
    with ``want_grad``, its per-patient derivatives A and K in ``a`` and
    ``c``; None when a log rate exceeds the cap or an observed visit falls
    in a zero-probability bin. Patient i's log rate in bin k is
    ``a_i + c_i k`` (``a_i = vint + vsev sev0_i + offset_i``, ``c_i = vsev
    rate_i w``), so its expected count over all bins, S0_i, is a geometric
    series, summed from the larger (capped) endpoint so nothing overflows."""
    c, H = vsev * rate * bin_width, idx.horizon
    # one exponential stands for all of a patient's bins, so the rounding
    # errors of its exponent, which bin by bin average out, are carried
    s, err1 = _two_sum(offset, vsev * sev0)
    a, err2 = _two_sum(vint, s)
    top, err3 = _two_sum(a, np.maximum(c, c * H))
    if np.maximum.reduce(top, initial=-np.inf) > LOG_RATE_CAP:
        return None
    p, k = idx.event_patient, idx.event_bin
    q = bin_width * np.exp(a[p] + c[p] * k)
    if not np.logical_and.reduce(q):  # a zero-probability bin has a visit
        return None
    ratio, mean_bin = _geometric(c, H, want_grad)
    s0 = bin_width * np.exp(top) * (1.0 + (err1 + err2 + err3)) * ratio
    # sum_events log(1 - e^-q) - (sum_i S0_i - sum_events q)
    parts = [float(np.add.reduce(np.log(-np.expm1(-q)))),
             -float(np.add.reduce(s0)), float(np.add.reduce(q))]
    if not want_grad:
        return parts, None, None
    # every bin adds -q to d(loglik)/d(eta), as S0 and the mean bin carry;
    # an event bin adds q / expm1(q) instead
    g = q / np.expm1(q) + q
    A = np.bincount(p, weights=g, minlength=H.size) - s0
    K = np.bincount(p, weights=g * k, minlength=H.size) - s0 * mean_bin
    return parts, A, K


def _two_sum(x, y):
    """``x + y`` rounded, and the rounding error of that sum (Knuth's
    TwoSum: exact for any two floats that do not overflow)."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _geometric(c, H, want_grad):
    """For the weights ``e^(c k)`` over bins k = 1..H, scaled so that the
    larger endpoint's is 1: their sum, in [1, H], and, with ``want_grad``,
    their mean bin (else None). With ``m(y) = expm1(-y)`` and b = |c| the
    sum is ``m(b H) / m(b)``, and the mean lies ``H / m(b H) - 1 / m(b) +
    H - 1`` bins from that endpoint."""
    b = np.abs(c)
    # Below |c| H = 0.01 the distance loses digits (1e-16 / (|c| H)) and at
    # c = 0 both forms are 0 / 0; there a series, exact to (|c| H)^5 / 15000,
    # and exprel take over.
    small = b * H < 0.01
    nb = np.where(small, -1.0, -b)  # keeps the replaced entries finite
    small = small.nonzero()[0]
    m1, mh = np.expm1(nb), np.expm1(nb * H)
    ratio = mh / m1
    if small.size:
        bs, h = b[small], H[small]
        ratio[small] = h * exprel(-bs * h) / exprel(-bs)
    if not want_grad:
        return ratio, None
    j = H / mh - 1.0 / m1 + (H - 1.0)
    if small.size:
        j[small] = ((h - 1.0) / 2 - bs * (h * h - 1.0) / 12
                    + bs ** 3 * (h ** 4 - 1.0) / 720)
    return ratio, np.where(c > 0, H - j, 1.0 + j)


def _fsum(parts) -> float:
    """Correctly rounded sum of finite floats; nan when a part is not finite
    or the sum overflows, so callers fall through to the -inf sentinel."""
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
        return math.nan


# ---------------------------------------------------------------------------
# population-level closed forms
# ---------------------------------------------------------------------------

def marginal_feature_moments(shared: SharedParams, group: GroupParams,
                             t: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the feature vector at time t for one group,
    marginalizing the latents: a one-factor structure whose factor variance
    grows quadratically in t."""
    if t < 0:
        raise InvalidParameterError("t must be non-negative")
    L = shared.loadings
    mean = shared.feat_intercepts + L * (group.rate_mean * t + group.init_sev_mean)
    lat_var = group.rate_sd ** 2 * t * t + group.init_sev_sd ** 2
    cov = lat_var * np.outer(L, L) + np.diag(shared.noise_vars)
    return mean, cov


def expected_visit_rate(shared: SharedParams, group: GroupParams, t: float) -> float:
    """Population-average visit rate at time t: the latents are Gaussian, so
    the log-rate is Gaussian and the mean rate is a lognormal mean, quadratic
    in t on the log scale."""
    if t < 0:
        raise InvalidParameterError("t must be non-negative")
    bz = shared.visit_severity
    quad = 0.5 * bz * bz * group.rate_sd ** 2
    lin = bz * group.rate_mean
    const = (shared.visit_intercept + 0.5 * bz * bz * group.init_sev_sd ** 2
             + bz * group.init_sev_mean + group.visit_offset)
    return float(np.exp(quad * t * t + lin * t + const))


# ---------------------------------------------------------------------------
# flattened parameterization
# ---------------------------------------------------------------------------

# The columns of the group table, named as the GroupParams fields, and the
# value of an entry that is pinned or ablated: the pinned group's N(0, 1)
# initial severity and zero visit offset. Rate entries are never pinned.
GROUP_ROLES = ("init_sev_mean", "init_sev_sd", "rate_mean", "rate_sd",
               "visit_offset")
_GROUP_DEFAULTS = np.array([0.0, 1.0, np.nan, np.nan, 0.0])


def param_layout(n_features: int, n_groups: int, pinned_group: int | None,
                 variant: ModelVariant):
    """The canonical global parameters of a fit, from the four facts that
    decide them: ``(name, role, feature)`` rows in order (feature is the
    column of a per-feature role, else None), and the ``(n_groups, 5)``
    group table holding the row of each group's ``GROUP_ROLES`` entry, -1
    where it is pinned or ablated. A shared rate pair repeats one row down
    its column. ``pinned_group=None`` pins no group."""
    rows = []

    def add(name, role, feature=None):
        rows.append((name, role, feature))
        return len(rows) - 1

    for j in range(n_features):
        add(f"loading[{j}]", "loading0" if j == 0 else "loading", j)
    for role in ("feat_intercept", "noise_var"):
        for j in range(n_features):
            add(f"{role}[{j}]", role, j)
    add("visit_intercept", "visit_intercept")
    add("visit_severity", "visit_severity")
    table = np.full((n_groups, 5), -1, dtype=np.intp)
    if not variant.group_rates:
        for col in (2, 3):
            table[:, col] = add(GROUP_ROLES[col], GROUP_ROLES[col])
    for g in range(n_groups):
        unpinned = g != pinned_group
        learned = ((variant.group_init and unpinned,) * 2
                   + (variant.group_rates,) * 2
                   + (variant.group_visits and unpinned,))
        for col, role in enumerate(GROUP_ROLES):
            if learned[col]:
                table[g, col] = add(f"{role}[{g}]", role)
    return rows, table


def latent_names(patient_ids) -> list[str]:
    """The latent columns: ``init_sev[<id>]`` then ``rate[<id>]`` for each
    patient, in order."""
    return [f"{v}[{pid}]" for pid in patient_ids for v in ("init_sev", "rate")]


@dataclass(frozen=True)
class ParamEntry:
    name: str
    prior: Prior


class ProgressionModel:
    """Flattened, differentiable posterior for one dataset and model variant.

    The unconstrained space maps lower-bounded coordinates through
    ``x = lower + exp(u)``; everything else is the identity. The density adds
    the log-Jacobian of that inverse map.
    """

    def __init__(self, data: Dataset, variant: ModelVariant = ModelVariant.FULL):
        self.data = data
        self.priors = simulation_priors()
        self.variant = variant
        self.idx = DatasetIndex.build(data)
        self._build_layout()
        self._build_prior_tables()

    # -- layout ------------------------------------------------------------

    def _build_layout(self):
        data = self.data
        d = data.n_features
        rows, table = param_layout(d, data.n_groups, data.pinned_group,
                                   self.variant)
        entries = [ParamEntry(name, self.priors.for_role(role))
                   for name, role, _ in rows]
        self.entries = entries
        self.n_global = len(entries)
        self.n_patients = data.n_patients
        self.dim = self.n_global + 2 * self.n_patients
        self._group_table = table
        self.names = [e.name for e in entries] + latent_names(
            p.patient_id for p in data.patients)

        lower = np.array([np.nan if e.prior.lower is None else e.prior.lower
                          for e in entries])
        # the bounded coordinates, all global, and their lower bounds; the
        # variances and sds are those bounded at 0
        self._bounded = np.flatnonzero(~np.isnan(lower))
        self._lower = lower[self._bounded]
        self._positive = self._bounded[self._lower == 0.0]

        # One index into [globals, _GROUP_DEFAULTS] for every group value
        # the density reads, per patient, row by row: the (m_i, s_i, m_r,
        # s_r) of the latent map (see _latent_scales) and the visit offset.
        # The gradient goes back through it; pinned or ablated entries land
        # past the globals.
        cols = np.where(table >= 0, table, self.n_global + np.arange(5))
        self._take = cols[self.idx.group_of].T.ravel()

        self._sl_load = slice(0, d)
        self._sl_fint = slice(d, 2 * d)
        self._sl_noise = slice(2 * d, 3 * d)
        self._i_vint = 3 * d
        self._i_vsev = 3 * d + 1

    def _build_prior_tables(self):
        priors = [e.prior for e in self.entries]
        self._prior_mu = np.array([p.mu for p in priors])
        self._prior_sigma = np.array([p.sigma for p in priors])
        # with the truncation normalizer -log P(X > lower)
        self._prior_const_sum = float(np.add.reduce(np.array(
            [-0.5 * _LOG_2PI - math.log(p.sigma) - p.log_norm for p in priors])))

    # -- transforms ----------------------------------------------------------

    def constrain(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._constrain(np.asarray(u, dtype=float))

    def _constrain(self, u):
        x = u.copy()
        x[..., self._bounded] = self._lower + np.exp(u[..., self._bounded])
        return x

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InvalidParameterError(f"expected vector of length {self.dim}")
        if not np.all(np.isfinite(x)):
            raise InvalidParameterError("non-finite parameter value")
        over = x[self._bounded] - self._lower
        if np.any(over <= 0):
            bad = self._bounded[over <= 0][0]
            raise InvalidParameterError(
                f"{self.names[bad]} = {x[bad]} violates its lower bound")
        u = x.copy()
        u[self._bounded] = np.log(over)
        return u

    def log_jacobian(self, u: np.ndarray) -> float:
        return float(np.add.reduce(u[self._bounded]))

    # -- packing -------------------------------------------------------------

    def pack(self, shared: SharedParams, groups: list[GroupParams],
             latents: list[PatientLatents]) -> np.ndarray:
        """Flatten parameter bundles into the canonical constrained vector.
        Pinned or shared coordinates must be consistent across the bundles."""
        x = np.empty(self.dim)
        x[self._sl_load] = shared.loadings
        x[self._sl_fint] = shared.feat_intercepts
        x[self._sl_noise] = shared.noise_vars
        x[self._i_vint] = shared.visit_intercept
        x[self._i_vsev] = shared.visit_severity
        free = self._group_table >= 0
        x[self._group_table[free]] = np.array([astuple(gp) for gp in groups])[free]
        base = self.n_global
        x[base::2] = [la.init_sev for la in latents]
        x[base + 1::2] = [la.rate for la in latents]
        return x

    def _latent_scales(self, x):
        """Per-patient (m_i, s_i, m_r, s_r): the mean and sd of the patient's
        group initial-severity and rate distributions, the scales of the
        latent map ``init_sev = m_i + s_i * u``, ``rate = m_r + s_r * w``.
        (N,) arrays for a vector x, (rows, N) for a (rows, dim) matrix."""
        ext = np.concatenate((x[..., :self.n_global], np.broadcast_to(
            _GROUP_DEFAULTS, (*x.shape[:-1], 5))), axis=-1)
        return np.split(ext[..., self._take[:4 * self.n_patients]], 4, axis=-1)

    # -- densities -----------------------------------------------------------

    def log_posterior(self, theta: np.ndarray) -> float:
        return self.logp_and_grad(theta, want_grad=False)[0]

    def logp_and_grad(self, theta: np.ndarray, want_grad: bool = True):
        """Unnormalized log-posterior and gradient over the unconstrained
        vector, latents centered. On overflow (capped log visit rate,
        non-finite constrained values, a noise variance or group sd that
        underflows to 0) returns (-inf, zeros): a rejected region."""
        return self._density(theta, want_grad, non_centered=False)

    # The sampler may run over (globals, standardized latents) with
    # z = group_mean + group_sd * u, u ~ N(0, 1): an equivalent posterior
    # that removes the funnel between group scales and per-patient latents.
    # Draws are mapped back to the documented centered, constrained space.

    def logp_and_grad_noncentered(self, theta_nc: np.ndarray,
                                  want_grad: bool = True):
        """``logp_and_grad`` over the non-centered vector, whose latent
        coordinates are the standardized residuals u."""
        return self._density(theta_nc, want_grad, non_centered=True)

    def constrain_noncentered(self, theta_nc: np.ndarray) -> np.ndarray:
        """The constrained, centered vector of a non-centered one; a
        (rows, dim) matrix maps row by row."""
        x = self.constrain(theta_nc)
        m_i, s_i, m_r, s_r = self._latent_scales(x)
        base = self.n_global
        x[..., base::2] = m_i + s_i * x[..., base::2]
        x[..., base + 1::2] = m_r + s_r * x[..., base + 1::2]
        return x

    def to_noncentered(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``constrain_noncentered``: a constrained, centered
        vector to unconstrained globals and standardized latent residuals."""
        x = np.asarray(x, dtype=float)
        theta = self.unconstrain(x)
        m_i, s_i, m_r, s_r = self._latent_scales(x)
        base = self.n_global
        theta[base::2] = (theta[base::2] - m_i) / s_i
        theta[base + 1::2] = (theta[base + 1::2] - m_r) / s_r
        return theta

    def _density(self, theta, want_grad, non_centered):
        """The joint log-density and its gradient in one pass.

        The vector is constrained once; the latent coordinates hold the
        centered values or, with ``non_centered``, the standardized
        residuals u of ``z = m + s * u``. The emission, visit and global
        prior blocks are shared; only the latent prior and its gradient
        fan-out depend on the parameterization. Each block is reduced to
        partial sums, combined once with ``math.fsum``: one rounding at the
        end instead of one per block, which keeps finite-difference checks
        at |logp| ~ 1e6 meaningful. Every reduction is a numpy sum, not a
        BLAS dot product, so the result does not depend on the BLAS thread
        count."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise InvalidParameterError(f"expected vector of length {self.dim}")
        if not np.logical_and.reduce(np.isfinite(theta)):
            raise InvalidParameterError("non-finite unconstrained input")
        # Overflow, log 0 and inf/inf in rejected regions end at the sentinel.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = self._constrain(theta)
            base = self.n_global
            # the latents are the input, finite; only globals can overflow,
            # and noise variances and group sds can underflow to 0
            if not (np.logical_and.reduce(np.isfinite(x[:base]))
                    and np.minimum.reduce(x[self._positive]) > 0.0):
                return self._rejected(want_grad)
            L, B, V = x[self._sl_load], x[self._sl_fint], x[self._sl_noise]
            N = self.n_patients
            v = np.concatenate((x[:base], _GROUP_DEFAULTS))[self._take]
            idx, w = self.idx, self.data.bin_width
            m_i, s_i, m_r, s_r, goff = v.reshape(5, N)
            if non_centered:
                z_i, z_r = x[base::2], x[base + 1::2]
                sev0 = m_i + s_i * z_i
                rate = m_r + s_r * z_r
            else:
                sev0, rate = x[base::2], x[base + 1::2]
                z_i = (sev0 - m_i) / s_i
                z_r = (rate - m_r) / s_r

            parts, sev, w_e, rw = _emission_block(L, B, V, sev0, rate, idx)
            visits = _visit_block(x[self._i_vint], x[self._i_vsev],
                                  goff, sev0, rate, idx, w, want_grad)
            if visits is None:
                return self._rejected(want_grad)
            visit_parts, A, K = visits
            parts += visit_parts
            # the global priors and the standard-normal part of the latent
            # priors; centered, also -sum over patients of log(group sd)
            zg = (x[:base] - self._prior_mu) / self._prior_sigma
            parts += [self._prior_const_sum,
                      -0.5 * float(np.add.reduce(zg * zg)), -N * _LOG_2PI,
                      -0.5 * float(np.add.reduce(z_i * z_i)),
                      -0.5 * float(np.add.reduce(z_r * z_r))]
            if not non_centered:
                parts += [-float(np.add.reduce(np.log(s_i))),
                          -float(np.add.reduce(np.log(s_r)))]
            parts.append(self.log_jacobian(theta))
            ll = _fsum(parts)
            if not math.isfinite(ll):
                return self._rejected(want_grad)
            if not want_grad:
                return ll, None

            # ------- gradient in constrained space -------
            gx = np.zeros(self.dim)
            gx[self._sl_load] = np.add.reduce(w_e * sev, axis=1)
            gx[self._sl_fint] = np.add.reduce(w_e, axis=1)
            gx[self._sl_noise] = (rw - idx.cells_per_feature) / (2.0 * V)
            u = np.add.reduce(w_e * L[:, None], axis=0)
            d_sev = np.bincount(idx.visit_patient, weights=u, minlength=N)
            d_rate = np.bincount(idx.visit_patient,
                                 weights=u * idx.visit_time, minlength=N)

            # visit terms through a = vint + vsev*sev0 + offset, c = vsev*rate*w
            vsev = x[self._i_vsev]
            gx[self._i_vint] = np.add.reduce(A)
            gx[self._i_vsev] = np.add.reduce(sev0 * A + rate * w * K)
            d_sev += vsev * A
            d_rate += vsev * w * K

            gx[:base] -= zg / self._prior_sigma

            if non_centered:
                # sev0 = m + s * u fans the likelihood gradient out to u, m
                # and s; the prior on u is standard normal
                gx[base::2] = d_sev * s_i - z_i
                gx[base + 1::2] = d_rate * s_r - z_r
                group_terms = (d_sev, d_sev * z_i, d_rate, d_rate * z_r)
            else:
                gx[base::2] = d_sev - z_i / s_i
                gx[base + 1::2] = d_rate - z_r / s_r
                group_terms = (z_i / s_i, (z_i * z_i - 1.0) / s_i,
                               z_r / s_r, (z_r * z_r - 1.0) / s_r)
            # per-patient terms summed into the coordinates they were read from
            gx[:base] += np.bincount(self._take,
                                     weights=np.concatenate((*group_terms, A)),
                                     minlength=base + 5)[:base]

            # chain rule through x = lower + exp(u), plus d/du of the Jacobian
            b = self._bounded
            gx[b] = gx[b] * (x[b] - self._lower) + 1.0
            return ll, gx

    def _rejected(self, want_grad):
        """The -inf sentinel of a rejected point, with a zero gradient."""
        return -math.inf, np.zeros(self.dim) if want_grad else None
