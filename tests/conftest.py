import numpy as np
import pytest

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


def make_patient(pid, group_idx, visits, features, pinned_idx=0):
    visits = np.asarray(visits)
    return PatientRecord(
        patient_id=pid,
        group=GroupId(group_idx, is_pinned=(group_idx == pinned_idx)),
        horizon=len(visits) - 1,
        visits=visits,
        features=np.asarray(features, dtype=float),
    )


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


def truth_bundles(data, truth):
    """Rebuild (SharedParams, groups, latents) from a truth sidecar."""
    shared, groups = truth.param_bundles()
    latents = [truth.latent(p.patient_id) for p in data.patients]
    return shared, groups, latents
