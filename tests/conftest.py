import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dispro import (
    Dataset,
    GroupId,
    GroupParams,
    PatientLatents,
    PatientRecord,
    SharedParams,
    SimConfig,
    simulate_dataset,
)
from dispro.model import _emission_block, _visit_block
from dispro.types import DatasetIndex

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
    x[:base] = [e.prior.draw(rng) for e in model.entries]
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
    sev0 = np.array([la.init_sev for la in latents])
    rate = np.array([la.rate for la in latents])
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
        latents.append(PatientLatents(sev0, rate))
    data = Dataset(records, 2, 1, 1.0)
    shared = SharedParams([1.0], [0.0], [1.0], 1.5, 1.0)
    groups = [GroupParams(0.0, 1.0, 0.0, 0.5, 0.0),
              GroupParams(-20.0, 1.1, 0.0, 1.0, -0.5)]
    return data, shared, groups, latents
