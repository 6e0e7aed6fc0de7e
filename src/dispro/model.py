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

from .priors import Prior, PriorSpec, TruncatedNormal, simulation_priors
from .types import (
    ConfigurationError,
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

    @staticmethod
    def from_name(name: str) -> ModelVariant:
        key = name.strip().lower().replace("-", "_")
        key = {"none": "no_disparities", "no_initial": "no_initial_severity",
               "no_visits": "no_visit"}.get(key, key)
        try:
            return ModelVariant(key)
        except ValueError:
            raise ConfigurationError(
                f"unknown model variant {name!r}") from None


# ---------------------------------------------------------------------------
# likelihood blocks on flat arrays
# ---------------------------------------------------------------------------

def _emission_block(L, B, V, cells_per_feature, sev0, rate, idx: DatasetIndex):
    """Partial sums of the Gaussian log-likelihood of the observed feature
    cells (the log(2 pi v) constant, taken once per feature, and the
    quadratic term), with the per-cell severity, precision-weighted residual
    and squared standardized residual that the gradient reuses."""
    sev = sev0[idx.cell_patient] + rate[idx.cell_patient] * idx.cell_time
    resid = idx.cell_value - (L[idx.cell_feature] * sev + B[idx.cell_feature])
    w = resid / V[idx.cell_feature]
    rw = resid * w
    parts = [-0.5 * float(np.sum(cells_per_feature * np.log(2.0 * np.pi * V))),
             -0.5 * float(np.sum(rw))]
    return parts, sev, w, rw


def _visit_block(vint, vsev, row_offset, sev0, rate, idx: DatasetIndex,
                 bin_width):
    """Partial sums of the censored-Poisson log-likelihood of the visit
    indicators over bins 1..horizon (severity at each bin's left edge), with
    the per-row severity and expected count q. None when a log rate exceeds
    the cap or an observed visit falls in a zero-probability bin."""
    sev = sev0[idx.row_patient] + rate[idx.row_patient] * idx.row_time
    eta = vint + vsev * sev + row_offset
    if eta.size and np.max(eta) > LOG_RATE_CAP:
        return None
    q = bin_width * np.exp(eta)
    q_event = q[idx.row_event]
    if np.any(q_event == 0.0):
        return None
    parts = [float(np.sum(np.log(-np.expm1(-q_event)))),
             -float(np.sum(q[~idx.row_event]))]
    return parts, sev, q


def _fsum(parts) -> float:
    """Correctly rounded sum of finite floats; nan when a part is not finite
    or the sum overflows, so callers fall through to the -inf sentinel."""
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
        return math.nan


# ---------------------------------------------------------------------------
# spec-level operations on parameter bundles
# ---------------------------------------------------------------------------

def _latent_arrays(latents: list[PatientLatents]):
    return (np.array([la.init_sev for la in latents], dtype=float),
            np.array([la.rate for la in latents], dtype=float))


def log_lik_emission(shared: SharedParams, latents: list[PatientLatents],
                     data: Dataset) -> float:
    """Gaussian log-likelihood of every observed feature cell; missing cells
    contribute nothing."""
    if np.any(shared.noise_vars <= 0):
        raise InvalidParameterError("noise variances must be positive")
    idx = DatasetIndex.build(data)
    counts = np.bincount(idx.cell_feature, minlength=data.n_features)
    parts = _emission_block(shared.loadings, shared.feat_intercepts,
                            shared.noise_vars, counts, *_latent_arrays(latents),
                            idx)[0]
    return math.fsum(parts)


def log_lik_visits(shared: SharedParams, groups: list[GroupParams],
                   latents: list[PatientLatents], data: Dataset) -> float:
    """Censored-Poisson log-likelihood of the visit indicators over bins
    1..horizon per patient. Severity is taken at each bin's left edge."""
    idx = DatasetIndex.build(data)
    offsets = np.array([g.visit_offset for g in groups])
    block = _visit_block(shared.visit_intercept, shared.visit_severity,
                         offsets[idx.group_of[idx.row_patient]],
                         *_latent_arrays(latents), idx, data.bin_width)
    return -math.inf if block is None else math.fsum(block[0])


def log_prior(shared: SharedParams, groups: list[GroupParams],
              latents: list[PatientLatents], data: Dataset, priors: PriorSpec,
              variant: ModelVariant = ModelVariant.FULL) -> float:
    """Log-prior of all sampled parameters plus per-patient latent densities
    under their group's distributions. Pinned quantities contribute nothing."""
    model = ProgressionModel(data, priors, variant)
    x = model.pack(shared, groups, latents)
    return model.logprior_constrained(x)


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
    lower: float | None


# roles bounded below at 0 where no truncated prior sets the bound
_POSITIVE_ROLES = ("loading0", "noise_var", "init_sev_sd", "rate_sd")


def _gather(x, table, defaults):
    """``x[..., table]`` with ``defaults`` where the table holds -1; x is one
    vector or a (rows, dim) matrix."""
    return np.where(table >= 0, x[..., table], defaults)


class ProgressionModel:
    """Flattened, differentiable posterior for one dataset and model variant.

    The unconstrained space maps lower-bounded coordinates through
    ``x = lower + exp(u)``; everything else is the identity. The density adds
    the log-Jacobian of that inverse map.
    """

    def __init__(self, data: Dataset, priors: PriorSpec | None = None,
                 variant: ModelVariant = ModelVariant.FULL):
        self.data = data
        self.priors = priors if priors is not None else simulation_priors()
        self.variant = variant
        self.idx = DatasetIndex.build(data)
        self._build_layout()
        self._build_prior_tables()
        # Per-feature emission cell counts for the constant log(2*pi*v) term.
        self._cells_per_feature = np.bincount(
            self.idx.cell_feature, minlength=data.n_features).astype(float)
        self._row_group = self.idx.group_of[self.idx.row_patient]
        # Patients per group, for the sum of per-patient log group sds.
        self._patients_per_group = np.bincount(
            self.idx.group_of, minlength=data.n_groups).astype(float)

    # -- layout ------------------------------------------------------------

    def _build_layout(self):
        data = self.data
        d = data.n_features
        rows, table = param_layout(d, data.n_groups, data.pinned_group,
                                   self.variant)
        entries = []
        for name, role, feature in rows:
            prior = self.priors.for_role(role, feature)
            lower = prior.lower if isinstance(prior, TruncatedNormal) else \
                (0.0 if role in _POSITIVE_ROLES else None)
            entries.append(ParamEntry(name, prior, lower))

        self.entries = entries
        self.n_global = len(entries)
        self.n_patients = data.n_patients
        self.dim = self.n_global + 2 * self.n_patients
        self._group_table = table
        # (4, N): the init and rate columns of each patient's group
        self._latent_table = table[self.idx.group_of, :4].T
        self.names = [e.name for e in entries] + latent_names(
            p.patient_id for p in data.patients)

        lower = np.full(self.dim, np.nan)
        lower[:self.n_global] = [np.nan if e.lower is None else e.lower
                                 for e in entries]
        self._bounded = ~np.isnan(lower)
        self._lower = np.where(self._bounded, lower, 0.0)

        self._sl_load = slice(0, d)
        self._sl_fint = slice(d, 2 * d)
        self._sl_noise = slice(2 * d, 3 * d)
        self._i_vint = 3 * d
        self._i_vsev = 3 * d + 1

    def _build_prior_tables(self):
        from scipy.special import log_ndtr

        mu = np.empty(self.n_global)
        sig = np.empty(self.n_global)
        const = np.empty(self.n_global)
        for i, prior in enumerate(e.prior for e in self.entries):
            mu[i] = prior.mu
            sig[i] = prior.sigma
            const[i] = -0.5 * _LOG_2PI - math.log(prior.sigma)
            if isinstance(prior, TruncatedNormal):
                # truncation normalizer: -log P(X > lower)
                const[i] -= float(log_ndtr((prior.mu - prior.lower) / prior.sigma))
        self._prior_mu = mu
        self._prior_sigma = sig
        self._prior_const_sum = float(const.sum())

    @property
    def global_names(self) -> list[str]:
        return self.names[:self.n_global]

    # -- transforms ----------------------------------------------------------

    def constrain(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            x = np.where(self._bounded, self._lower + np.exp(u), u)
        return x

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InvalidParameterError(f"expected vector of length {self.dim}")
        if not np.all(np.isfinite(x)):
            raise InvalidParameterError("non-finite parameter value")
        over = x[self._bounded] - self._lower[self._bounded]
        if np.any(over <= 0):
            bad = np.flatnonzero(self._bounded)[over <= 0][0]
            raise InvalidParameterError(
                f"{self.names[bad]} = {x[bad]} violates its lower bound")
        u = x.copy()
        u[self._bounded] = np.log(over)
        return u

    def log_jacobian(self, u: np.ndarray) -> float:
        return float(np.sum(u[self._bounded]))

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
        x[base::2], x[base + 1::2] = _latent_arrays(latents)
        return x

    def _group_arrays(self, x):
        """Each group's GROUP_ROLES values: five (G,) arrays for a vector x,
        five (rows, G) arrays for a (rows, dim) matrix."""
        v = _gather(x, self._group_table, _GROUP_DEFAULTS)
        return tuple(v[..., k] for k in range(5))

    def _latent_scales(self, x):
        """Per-patient (m_i, s_i, m_r, s_r): the mean and sd of the patient's
        group initial-severity and rate distributions, the scales of the
        latent map ``init_sev = m_i + s_i * u``, ``rate = m_r + s_r * w``.
        (N,) arrays for a vector x, (rows, N) for a (rows, dim) matrix."""
        v = _gather(x, self._latent_table, _GROUP_DEFAULTS[:4, None])
        return tuple(v[..., k, :] for k in range(4))

    # -- densities -----------------------------------------------------------

    def _prior_parts(self, xg, z_i, z_r):
        """Standardized globals and the partial sums of the global priors and
        of the standard-normal part of the latent priors, given the
        standardized latents ``z_i`` (initial severity) and ``z_r`` (rate)."""
        zg = (xg - self._prior_mu) / self._prior_sigma
        return zg, [self._prior_const_sum, -0.5 * float(np.sum(zg * zg)),
                    -self.n_patients * _LOG_2PI,
                    -0.5 * float(np.sum(z_i * z_i)),
                    -0.5 * float(np.sum(z_r * z_r))]

    def _log_sd_parts(self, gs, rs):
        """-sum over patients of log(group sd): the normalizers of the
        centered latent densities."""
        n = self._patients_per_group
        return [-float(np.sum(n * np.log(gs))), -float(np.sum(n * np.log(rs)))]

    def logprior_constrained(self, x: np.ndarray) -> float:
        """Log-prior of sampled globals plus latent densities, in constrained
        space (no Jacobian)."""
        base = self.n_global
        b = self._bounded[:base]
        if np.any(x[:base][b] <= self._lower[:base][b]):
            return -math.inf
        _, gs, _, rs, _ = self._group_arrays(x)
        m_i, s_i, m_r, s_r = self._latent_scales(x)
        z_i = (x[base::2] - m_i) / s_i
        z_r = (x[base + 1::2] - m_r) / s_r
        parts = self._prior_parts(x[:base], z_i, z_r)[1]
        return _fsum(parts + self._log_sd_parts(gs, rs))

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
        if not np.all(np.isfinite(theta)):
            raise InvalidParameterError("non-finite unconstrained input")
        sentinel = (-math.inf, np.zeros(self.dim) if want_grad else None)
        # Overflow, log 0 and inf/inf in rejected regions end at the sentinel.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = self.constrain(theta)
            L, B, V = x[self._sl_load], x[self._sl_fint], x[self._sl_noise]
            _, gs, _, rs, goff = self._group_arrays(x)
            if not (np.all(np.isfinite(x))
                    and min(V.min(), gs.min(), rs.min()) > 0.0):
                return sentinel
            idx = self.idx
            base = self.n_global
            m_i, s_i, m_r, s_r = self._latent_scales(x)
            if non_centered:
                z_i, z_r = x[base::2], x[base + 1::2]
                sev0 = m_i + s_i * z_i
                rate = m_r + s_r * z_r
            else:
                sev0, rate = x[base::2], x[base + 1::2]
                z_i = (sev0 - m_i) / s_i
                z_r = (rate - m_r) / s_r

            parts, sev_c, w_c, rw = _emission_block(
                L, B, V, self._cells_per_feature, sev0, rate, idx)
            visits = _visit_block(x[self._i_vint], x[self._i_vsev],
                                  goff[self._row_group], sev0, rate, idx,
                                  self.data.bin_width)
            if visits is None:
                return sentinel
            visit_parts, sev_v, q = visits
            parts += visit_parts
            zg, prior_parts = self._prior_parts(x[:base], z_i, z_r)
            parts += prior_parts
            if not non_centered:
                parts += self._log_sd_parts(gs, rs)
            # Jacobian of the constraining transform
            parts.append(float(np.sum(theta[self._bounded])))
            ll = _fsum(parts)
            if not np.isfinite(ll):
                return sentinel
            if not want_grad:
                return ll, None

            # ------- gradient in constrained space -------
            gx = np.zeros(self.dim)
            d, N = self.data.n_features, self.n_patients
            cf = idx.cell_feature
            gx[self._sl_load] = np.bincount(cf, weights=w_c * sev_c, minlength=d)
            gx[self._sl_fint] = np.bincount(cf, weights=w_c, minlength=d)
            gx[self._sl_noise] = ((np.bincount(cf, weights=rw, minlength=d)
                                   - self._cells_per_feature) / (2.0 * V))
            u_c = w_c * L[cf]
            d_sev = np.bincount(idx.cell_patient, weights=u_c, minlength=N)
            d_rate = np.bincount(idx.cell_patient, weights=u_c * idx.cell_time,
                                 minlength=N)

            # d(loglik)/d(eta): q / expm1(q) on event rows, -q otherwise
            c_eta = -q
            event = idx.row_event
            c_eta[event] = q[event] / np.expm1(q[event])
            vsev = x[self._i_vsev]
            gx[self._i_vint] = np.sum(c_eta)
            gx[self._i_vsev] = np.sum(c_eta * sev_v)
            c_pat = np.bincount(idx.row_patient, weights=c_eta, minlength=N)
            d_sev += vsev * c_pat
            d_rate += vsev * np.bincount(idx.row_patient,
                                         weights=c_eta * idx.row_time,
                                         minlength=N)

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
            # per-patient terms summed by group into the group table's
            # coordinates, in group order where a shared coordinate repeats
            by_group = np.stack([np.bincount(idx.group_of, weights=t,
                                             minlength=self.data.n_groups)
                                 for t in (*group_terms, c_pat)], axis=1)
            free = self._group_table >= 0
            np.add.at(gx, self._group_table[free], by_group[free])

            # chain rule through x = lower + exp(u), plus d/du of the Jacobian
            b = self._bounded
            gx[b] = gx[b] * (x[b] - self._lower[b]) + 1.0
            return ll, gx

    # -- initialization -------------------------------------------------------

    def init_from_priors(self, rng: np.random.Generator,
                         non_centered: bool = False) -> np.ndarray:
        """Unconstrained initial point: globals drawn from their priors,
        latents from the drawn group distributions (standard normal residuals
        in the non-centered parameterization)."""
        base = self.n_global
        x = np.empty(self.dim)
        x[:base] = [e.prior.draw(rng) for e in self.entries]
        if non_centered:
            x[base:] = rng.standard_normal(2 * self.n_patients)
        else:
            m_i, s_i, m_r, s_r = self._latent_scales(x)
            x[base::2] = rng.normal(m_i, s_i)
            x[base + 1::2] = rng.normal(m_r, s_r)
        return self.unconstrain(x)
