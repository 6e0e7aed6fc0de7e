"""Core domain types: cohort data containers and model parameter bundles.

Time convention: each patient's record starts at their first visit (bin 0)
and covers ``horizon`` further bins, so arrays indexed by bin have length
``horizon + 1``. Bin ``t`` corresponds to normalized time ``t * bin_width``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter value violates its constraint (non-finite, out of bounds)."""


class ConfigurationError(ValueError):
    """A configuration object (priors, sim/sampler settings) is malformed."""


class DataError(ValueError):
    """A dataset violates its structural invariants."""


@dataclass(frozen=True)
class GroupId:
    """Demographic group label. Exactly one group per dataset is pinned
    (``Dataset.pinned_group``): its initial-severity distribution is fixed to
    N(0, 1) and its visit-rate offset to 0, which fixes the latent severity
    scale."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ConfigurationError(f"group index must be non-negative, got {self.index}")


@dataclass
class SharedParams:
    """Population-level parameters shared across demographic groups.

    loadings        per-feature scaling of severity (feature units per severity unit)
    feat_intercepts per-feature intercepts (feature units)
    noise_vars      per-feature emission noise variances (squared feature units)
    visit_intercept log visit rate intercept (log visits per unit time)
    visit_severity  log visit rate slope in severity (log-rate per severity unit)

    The first loading is sign-pinned positive; all noise variances are
    strictly positive.
    """

    loadings: np.ndarray
    feat_intercepts: np.ndarray
    noise_vars: np.ndarray
    visit_intercept: float
    visit_severity: float

    def __post_init__(self):
        self.loadings = np.asarray(self.loadings, dtype=float)
        self.feat_intercepts = np.asarray(self.feat_intercepts, dtype=float)
        self.noise_vars = np.asarray(self.noise_vars, dtype=float)
        d = self.loadings.shape[0]
        if self.feat_intercepts.shape != (d,) or self.noise_vars.shape != (d,):
            raise InvalidParameterError("loadings, feat_intercepts, noise_vars must share length")
        if not (np.all(np.isfinite(self.loadings))
                and np.all(np.isfinite(self.feat_intercepts))
                and np.all(np.isfinite(self.noise_vars))
                and np.isfinite(self.visit_intercept)
                and np.isfinite(self.visit_severity)):
            raise InvalidParameterError("shared parameters must be finite")
        if np.any(self.noise_vars <= 0):
            raise InvalidParameterError("noise variances must be strictly positive")

    @property
    def n_features(self) -> int:
        return self.loadings.shape[0]


@dataclass
class GroupParams:
    """Group-specific parameters: initial-severity and progression-rate
    distributions plus the visit-rate offset. For the pinned group,
    init_sev_mean = 0, init_sev_sd = 1, visit_offset = 0 by construction."""

    init_sev_mean: float
    init_sev_sd: float
    rate_mean: float
    rate_sd: float
    visit_offset: float

    def __post_init__(self):
        vals = (self.init_sev_mean, self.init_sev_sd, self.rate_mean,
                self.rate_sd, self.visit_offset)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidParameterError("group parameters must be finite")
        if self.init_sev_sd <= 0 or self.rate_sd <= 0:
            raise InvalidParameterError("group scale parameters must be strictly positive")


@dataclass
class PatientLatents:
    """Per-patient latent state: severity at the first visit and the linear
    progression rate (severity per unit of normalized time)."""

    init_sev: float
    rate: float

    def severity(self, time: float) -> float:
        return self.init_sev + self.rate * time


@dataclass
class PatientRecord:
    """One patient's observed record.

    visits    length (horizon + 1) 0/1 array; visits[0] == 1 always.
    features  (horizon + 1, d) array; NaN marks a missing cell. Cells may be
              observed only at visit bins, and every visit bin has at least
              one observed feature.
    """

    patient_id: str
    group: GroupId
    horizon: int
    visits: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.visits = np.asarray(self.visits, dtype=np.int8)
        self.features = np.asarray(self.features, dtype=float)
        n_bins = self.horizon + 1
        if self.horizon < 1:
            raise DataError(f"{self.patient_id}: horizon must be a positive bin count")
        if self.visits.shape != (n_bins,):
            raise DataError(f"{self.patient_id}: visits must have length horizon + 1")
        if self.features.shape[0] != n_bins:
            raise DataError(f"{self.patient_id}: features must have horizon + 1 rows")
        if self.visits[0] != 1:
            raise DataError(f"{self.patient_id}: bin 0 is the first visit, D[0] must be 1")
        if not np.all((self.visits == 0) | (self.visits == 1)):
            raise DataError(f"{self.patient_id}: visit indicators must be 0/1")
        observed = np.isfinite(self.features)
        if np.any(observed[self.visits == 0]):
            raise DataError(f"{self.patient_id}: features observed at a non-visit bin")
        if np.any(~observed[self.visits == 1].any(axis=1)):
            raise DataError(f"{self.patient_id}: a visit bin has no observed features")

    def visit_bins(self) -> np.ndarray:
        return np.flatnonzero(self.visits == 1)


@dataclass
class Dataset:
    """A cohort of patient records sharing feature space and time scale.

    bin_width is the width of one time bin in normalized time units, so a
    full record of n bins spans n * bin_width time units.
    """

    patients: list[PatientRecord]
    n_groups: int
    n_features: int
    bin_width: float
    pinned_group: int = 0

    def __post_init__(self):
        if not 0 < self.bin_width < np.inf:
            raise DataError(f"bin_width must be positive and finite, got "
                            f"{self.bin_width}")
        if self.n_groups < 1:
            raise DataError("need at least one group")
        if not (0 <= self.pinned_group < self.n_groups):
            raise DataError("pinned_group out of range")
        seen = set()
        for p in self.patients:
            if p.patient_id in seen:
                raise DataError(f"duplicate patient_id {p.patient_id!r}")
            seen.add(p.patient_id)
            if p.features.shape[1] != self.n_features:
                raise DataError(f"{p.patient_id}: feature dimension mismatch")
            if not (0 <= p.group.index < self.n_groups):
                raise DataError(f"{p.patient_id}: group index out of range")

    @property
    def n_patients(self) -> int:
        return len(self.patients)


@dataclass
class DatasetIndex:
    """Flat index arrays over a dataset for vectorized likelihood work.

    Emission rows are the visit bins, one per (patient, bin) with a visit:
    ``PatientRecord`` guarantees that each observes at least one feature
    and that no other bin observes any. Their values form a feature-major
    (n_features, n_visits) matrix, 0 at a missing cell; ``visit_missing``
    marks those cells. Visits are modeled over bins 1..horizon per patient
    (bin 0 is conditioned on): the model sums all bins in closed form from
    the horizon, so only the observed visits in those bins are kept, one
    event row each."""

    group_of: np.ndarray        # (n_patients,) int
    horizon: np.ndarray         # (n_patients,) float, last modeled bin
    visit_patient: np.ndarray   # (n_visits,) int
    visit_time: np.ndarray      # (n_visits,) float, bin * bin_width
    visit_value: np.ndarray     # (n_features, n_visits) float, C order
    visit_missing: np.ndarray   # (n_features, n_visits) bool
    cells_per_feature: np.ndarray  # (n_features,) float, observed cells
    event_patient: np.ndarray   # (n_events,) int
    event_bin: np.ndarray       # (n_events,) float, bin k in 1..horizon

    @staticmethod
    def build(data: Dataset) -> "DatasetIndex":
        bins = [p.visit_bins() for p in data.patients]
        values = np.ascontiguousarray(np.concatenate(
            [np.empty((0, data.n_features))]
            + [p.features[b] for p, b in zip(data.patients, bins)]).T)
        missing = ~np.isfinite(values)
        patients = np.arange(data.n_patients)
        return DatasetIndex(
            group_of=np.array([p.group.index for p in data.patients], dtype=np.intp),
            horizon=np.array([p.horizon for p in data.patients], dtype=float),
            visit_patient=np.repeat(patients, [b.size for b in bins]),
            visit_time=np.concatenate([np.empty(0), *bins]) * data.bin_width,
            visit_value=np.where(missing, 0.0, values),
            visit_missing=missing,
            cells_per_feature=(~missing).sum(axis=1).astype(float),
            # bin 0 is always a visit, and never an event
            event_patient=np.repeat(patients, [b.size - 1 for b in bins]),
            event_bin=np.concatenate([np.empty(0), *(b[1:] for b in bins)]),
        )
