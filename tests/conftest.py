import csv
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dispro import (
    Dataset,
    GroupId,
    GroupParams,
    PatientRecord,
    SharedParams,
    SimConfig,
    simulate_dataset,
)
from dispro.dataio import _SIDECAR_TYPES, dataset_meta_path, read_json
from dispro.model import _emission_block, _visit_block
from dispro.types import ConfigurationError, DataError, DatasetIndex

# the @given tests draw the same examples every run and keep no example
# database
settings.register_profile("dispro", derandomize=True, database=None)
settings.load_profile("dispro")


def pytest_configure(config):
    """Hypothesis caches the constants it reads from the source (at
    collection, whatever the profile) in a temporary directory, not in
    ``.hypothesis/`` of the working directory."""
    home = tempfile.TemporaryDirectory()
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def no_constant(name):
    """A ``json.loads`` parse_constant for strict JSON: NaN and the
    infinities fail."""
    raise AssertionError(f"{name} in strict JSON")


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_patient(pid, group_idx, visits, features):
    visits = np.asarray(visits)
    return PatientRecord(
        patient_id=pid,
        group=GroupId(group_idx),
        horizon=len(visits) - 1,
        visits=visits,
        features=np.asarray(features, dtype=float),
    )


def init_from_priors(model, rng: np.random.Generator,
                     non_centered: bool = False) -> np.ndarray:
    """Unconstrained initial point of ``model``: globals drawn from their
    priors, latents from the drawn group distributions (standard normal
    residuals in the non-centered parameterization)."""
    base = model.n_global
    x = np.empty(model.dim)
    x[:base] = [p.draw(rng) for p in model.priors]
    if non_centered:
        x[base:] = rng.standard_normal(2 * model.n_patients)
    else:
        m_i, s_i, m_r, s_r = model._latent_scales(x)
        x[base::2] = rng.normal(m_i, s_i)
        x[base + 1::2] = rng.normal(m_r, s_r)
    return model.unconstrain(x)


def single_cell_dataset(x_value, bin_width=1.0):
    """One patient, one visit at t=0, one observed feature."""
    pat = make_patient("p0", 0, [1, 0], [[x_value], [np.nan]])
    return Dataset(patients=[pat], n_groups=1, n_features=1, bin_width=bin_width)


def unit_shared(d=1):
    return SharedParams(loadings=np.ones(d), feat_intercepts=np.zeros(d),
                        noise_vars=np.ones(d), visit_intercept=0.0,
                        visit_severity=0.0)


def pinned_group_params(rate_mean=0.0, rate_sd=1.0):
    return GroupParams(0.0, 1.0, rate_mean, rate_sd, 0.0)


@pytest.fixture(scope="session")
def small_sim():
    """A 12-patient cohort with both groups, reused across unit tests."""
    cfg = SimConfig(n_patients=12, n_bins=20, bin_width=0.05, seed=321)
    return simulate_dataset(cfg)


@pytest.fixture(scope="session")
def ten_patient_sim():
    cfg = SimConfig(n_patients=10, n_bins=15, bin_width=1.0 / 15, seed=77)
    return simulate_dataset(cfg)


def missing_cell_cohort():
    """A 10-patient, 4-feature cohort in which about a third of the cells
    at visit bins are missing (every visit keeps at least one), with the
    same patients as ``ten_patient_sim``."""
    data, _ = simulate_dataset(SimConfig(n_patients=10, n_bins=15,
                                         bin_width=1.0 / 15, seed=77))
    rng = np.random.default_rng(0)
    records = []
    for p in data.patients:
        feats = p.features.copy()
        for t in p.visit_bins():
            drop = rng.random(data.n_features) < 0.35
            drop[rng.integers(data.n_features)] = False
            feats[t, drop] = np.nan
        records.append(make_patient(p.patient_id, p.group.index, p.visits,
                                    feats))
    return Dataset(records, data.n_groups, data.n_features, data.bin_width,
                   data.pinned_group)


def truth_bundles(data, truth):
    """Rebuild (SharedParams, groups, latents) from a truth sidecar."""
    shared, groups = truth.param_bundles()
    latents = [truth.latent(p.patient_id) for p in data.patients]
    return shared, groups, latents


def block_sums(data, shared, latents, groups=None):
    """The emission and visit log-likelihoods of parameter bundles, from the
    density's own blocks on ``DatasetIndex.build(data)``: each the
    ``math.fsum`` of its block's partial sums, the visit one None where
    ``_visit_block`` rejects the point. Without ``groups`` every visit
    offset is 0."""
    idx = DatasetIndex.build(data)
    sev0 = np.array([la[0] for la in latents])
    rate = np.array([la[1] for la in latents])
    emission = _emission_block(shared.loadings, shared.feat_intercepts,
                               shared.noise_vars, sev0, rate, idx)[0]
    offsets = (np.zeros(data.n_groups) if groups is None
               else np.array([g.visit_offset for g in groups]))
    visits = _visit_block(shared.visit_intercept, shared.visit_severity,
                          offsets[idx.group_of], sev0, rate, idx,
                          data.bin_width)
    return math.fsum(emission), None if visits is None else math.fsum(visits[0])


# (id, group, horizon, init_sev, rate, visit bins in 1..horizon) of the edge
# cohort. With bin width 1 and visit intercept 1.5, severity coefficient 1
# and group-1 offset -0.5, patient i's log visit rate in bin k is
# a_i + c_i k with c_i = rate.
EDGE_PATIENTS = (
    ("every_bin", 0, 12, -3.0, 0.05, range(1, 13)),  # S0 = the event sum
    ("flat", 0, 10, -2.5, 0.0, (3, 7)),              # c == 0
    ("tiny_slope", 0, 10, -2.5, 1e-9, (2, 5, 10)),   # |c| H = 1e-8
    ("series_end", 0, 10, -2.5, 9e-4, (4, 6)),       # |c| H = 0.009
    ("closed_start", 0, 10, -2.5, -1.1e-3, (4, 6)),  # |c| H = 0.011
    ("up_40", 1, 40, -41.0, 1.0, (30, 38, 40)),      # eta -39 .. 0
    ("down_40", 1, 40, 0.0, -1.0, (1, 2, 9)),        # eta 0 .. -39
)
# |c| H = 800: eta runs between about -780 and 0, so exp underflows to 0 at
# the far end, and for up_800 the form anchored at the first bin,
# e^(a + c) expm1(c H) / expm1(c), is 0 * inf.
EDGE_PATIENTS_STEEP = (
    ("up_800", 1, 40, -801.0, 20.0, (39, 40)),
    ("down_800", 1, 40, 19.0, -20.0, (1,)),
)


def edge_visit_cohort(patients=EDGE_PATIENTS):
    """A cohort whose visit processes sit at the edges of the closed-form
    visit likelihood, with one feature observed near its mean at each visit,
    and the parameter bundles that put them there:
    (data, shared, groups, latents)."""
    records, latents = [], []
    for pid, g, horizon, sev0, rate, bins in patients:
        visits = np.zeros(horizon + 1, dtype=int)
        visits[[0, *bins]] = 1
        feats = np.full((horizon + 1, 1), np.nan)
        on = np.flatnonzero(visits)
        feats[on, 0] = sev0 + rate * on + 0.1 * (-1.0) ** on
        records.append(make_patient(pid, g, visits, feats))
        latents.append((sev0, rate))
    data = Dataset(records, 2, 1, 1.0)
    shared = SharedParams([1.0], [0.0], [1.0], 1.5, 1.0)
    groups = [GroupParams(0.0, 1.0, 0.0, 0.5, 0.0),
              GroupParams(-20.0, 1.1, 0.0, 1.0, -0.5)]
    return data, shared, groups, latents


# The one-method forecast and the labelled MAPE that
# ``dispro.baselines.trajectory_baselines`` and ``mape`` replaced, kept
# verbatim as references for the one-pass versions.
def _reference_polyfit_or_none(t, y, degree):
    if t.size < degree + 1:
        return None
    # least squares on a Vandermonde basis; well-posed given enough points
    return np.polynomial.polynomial.polyfit(t, y, degree)


def reference_trajectory_baselines(data, train_window: int, method: str) -> list:
    """Predict features at held-out visit bins (bin >= train_window): one
    row (patient_id, bin, feature, predicted, actual) per held-out cell.

    linear/quadratic: per-patient per-feature least squares on training
    observations, falling back to the feature's population training mean with
    fewer than 2 (linear) or 3 (quadratic) points, and clipping predictions
    to the feature's observed training range. latest: last observed training
    value, else the population mean.
    """
    if method not in ("linear", "quadratic", "latest"):
        raise ConfigurationError(f"unknown method {method!r}")
    if train_window < 1:
        raise ConfigurationError("train_window must be a positive bin count")
    d = data.n_features

    pop_sum = np.zeros(d)
    pop_n = np.zeros(d)
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    for p in data.patients:
        upto = min(train_window, p.horizon + 1)
        seg = p.features[:upto]
        obs = np.isfinite(seg)
        pop_sum += np.where(obs, seg, 0.0).sum(axis=0)
        pop_n += obs.sum(axis=0)
        for j in range(d):
            col = seg[obs[:, j], j]
            if col.size:
                lo[j] = min(lo[j], float(col.min()))
                hi[j] = max(hi[j], float(col.max()))
    if not pop_n.any():
        raise ConfigurationError("empty training window")
    pop_mean = np.where(pop_n > 0, pop_sum / np.maximum(pop_n, 1), 0.0)

    rows = []
    for p in data.patients:
        upto = min(train_window, p.horizon + 1)
        for j in range(d):
            col = p.features[:, j]
            train_bins = np.flatnonzero(np.isfinite(col[:upto]))
            test_bins = [t for t in np.flatnonzero(np.isfinite(col))
                         if t >= train_window]
            if len(test_bins) == 0:
                continue
            tt = train_bins.astype(float)
            yy = col[train_bins]
            # one curve per (patient, feature); the fallback where there is none
            coef, pred = None, float(pop_mean[j])
            if method == "latest":
                if tt.size:
                    pred = float(yy[-1])
            else:
                coef = _reference_polyfit_or_none(tt, yy, 1 if method == "linear" else 2)
            for t in test_bins:
                if coef is not None:
                    pred = float(np.polynomial.polynomial.polyval(float(t), coef))
                    if np.isfinite(lo[j]) and np.isfinite(hi[j]):
                        pred = min(max(pred, float(lo[j])), float(hi[j]))
                rows.append((p.patient_id, int(t), j, pred, float(col[t])))
    return rows


def reference_mape(predicted, actual, feature_of=None, feature_subset=None) -> float | None:
    """Mean absolute percentage error over scorable cells, as a percentage;
    None when no cell is scorable. Cells whose actual value is exactly 0 are
    excluded; feature_subset restricts scoring to those feature indices."""
    predicted = np.asarray(predicted, dtype=float).ravel()
    actual = np.asarray(actual, dtype=float).ravel()
    if predicted.shape != actual.shape:
        raise ConfigurationError("predicted and actual must align")
    keep = np.isfinite(actual) & np.isfinite(predicted)
    if feature_subset is not None:
        if feature_of is None:
            raise ConfigurationError("feature_subset needs feature_of labels")
        feature_of = np.asarray(feature_of).ravel()
        keep &= np.isin(feature_of, list(feature_subset))
    scored = keep & (actual != 0.0)
    if not scored.any():
        return None
    return float(np.mean(np.abs(predicted[scored] - actual[scored])
                         / np.abs(actual[scored])) * 100.0)


# The per-row reader that ``dispro.dataio.read_dataset`` replaced, kept
# verbatim (bar its name) as the reference for the columnar one.
def reference_read_dataset(path) -> Dataset:
    path = Path(path)
    meta_path = dataset_meta_path(path)
    meta = read_json(meta_path, _SIDECAR_TYPES)
    pinned, n_features = meta["pinned_group"], meta["n_features"]

    per_patient: dict[str, list] = {}
    order: list[str] = []
    try:
        with path.open(newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None or header[:4] != ["patient_id", "group", "t", "D"]:
                raise DataError(f"{path}: not a dataset table")
            if len(header) != 4 + n_features:
                raise DataError(f"{path}: expected {n_features} feature columns")
            for row in r:
                if len(row) != len(header):
                    raise DataError(f"{path}: line {r.line_num} has {len(row)} "
                                    f"cells, the header {len(header)}")
                pid = row[0]
                if pid not in per_patient:
                    per_patient[pid] = []
                    order.append(pid)
                per_patient[pid].append(row)
    except csv.Error as exc:  # a cell past the csv module's field limit
        raise DataError(f"{path}: line {r.line_num}: {exc}") from None
    n_rows = sum(map(len, per_patient.values()))
    # per-group work then scales with the file, not with a sidecar number
    if meta["n_groups"] > n_rows:
        raise DataError(f"{meta_path}: n_groups {meta['n_groups']} exceeds "
                        f"the table's {n_rows} data rows")

    patients = []
    for pid in order:
        rows = sorted(per_patient[pid], key=lambda r: int(r[2]))
        bins = [int(r[2]) for r in rows]
        if bins != list(range(len(bins))):
            raise DataError(f"{pid}: bins must cover 0..horizon")
        group_idx = {int(r[1]) for r in rows}
        if len(group_idx) != 1:
            raise DataError(f"{pid}: inconsistent group labels")
        g = group_idx.pop()  # Dataset checks it lies in 0..n_groups-1
        if any(r[3] not in ("0", "1") for r in rows):
            raise DataError(f"{pid}: a D cell is not 0 or 1")
        visits = np.array([int(r[3]) for r in rows], dtype=np.int8)
        features = np.full((len(rows), n_features), np.nan)
        for t, r in enumerate(rows):
            for j, cell in enumerate(r[4:]):
                if cell != "":  # only an empty cell means missing
                    value = float(cell)
                    if not math.isfinite(value):
                        raise DataError(f"{pid}: non-finite feature x{j} "
                                        f"at bin {t}: {cell!r}")
                    features[t, j] = value
        patients.append(PatientRecord(
            patient_id=pid, group=GroupId(g),
            horizon=len(rows) - 1, visits=visits, features=features))
    return Dataset(patients=patients, n_groups=meta["n_groups"],
                   n_features=n_features, bin_width=float(meta["bin_width"]),
                   pinned_group=pinned)
