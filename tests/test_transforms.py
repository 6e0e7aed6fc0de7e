"""Constraining-transform contracts: examples, round trips, Jacobian."""

import math

import numpy as np
import pytest

from dispro import InvalidParameterError, ProgressionModel, simulation_priors
from dispro.ablation import ModelVariant

from conftest import truth_bundles


def test_log_identity_examples(small_sim):
    data, truth = small_sim
    model = ProgressionModel(data)
    shared, groups, latents = truth_bundles(data, truth)
    x = model.pack(shared, groups, latents)

    i_noise = model.names.index("noise_var[0]")
    x[i_noise] = 1.0
    assert model.unconstrain(x)[i_noise] == pytest.approx(0.0, abs=1e-15)

    i_rsd = model.names.index("rate_sd[0]")
    x[i_rsd] = math.e
    assert model.unconstrain(x)[i_rsd] == pytest.approx(1.0, abs=1e-15)

    # first loading is bounded below by its prior truncation point (0.5)
    i_l0 = model.names.index("loading[0]")
    x[i_l0] = 1.5
    assert model.unconstrain(x)[i_l0] == pytest.approx(math.log(1.0), abs=1e-15)

    # unbounded coordinates map identically
    i_b = model.names.index("feat_intercept[1]")
    x[i_b] = -2.25
    assert model.unconstrain(x)[i_b] == -2.25


def test_roundtrip_100_prior_draws(small_sim):
    data, _ = small_sim
    model = ProgressionModel(data)
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = model.init_from_priors(rng)
        x = model.constrain(theta)
        theta2 = model.unconstrain(x)
        x2 = model.constrain(theta2)
        denom = np.maximum(np.abs(x), 1e-300)
        assert float(np.max(np.abs(x2 - x) / denom)) < 1e-12


def test_jacobian_is_sum_of_bounded_coords(small_sim):
    data, _ = small_sim
    model = ProgressionModel(data)
    rng = np.random.default_rng(1)
    theta = model.init_from_priors(rng)
    expect = float(np.sum(theta[model._bounded]))
    assert model.log_jacobian(theta) == pytest.approx(expect, rel=1e-15)
    # d(logJ)/d(theta_i) = 1 exactly on bounded coordinates: the density with
    # flat everything else would shift linearly; checked through the full
    # gradient in test_gradient instead.


def test_nonfinite_input_rejected(small_sim):
    data, _ = small_sim
    model = ProgressionModel(data)
    x = model.constrain(model.init_from_priors(np.random.default_rng(2)))
    x[0] = np.inf
    with pytest.raises(InvalidParameterError):
        model.unconstrain(x)


def test_bound_violation_rejected(small_sim):
    data, _ = small_sim
    model = ProgressionModel(data)
    x = model.constrain(model.init_from_priors(np.random.default_rng(3)))
    x[model.names.index("noise_var[0]")] = -0.5
    with pytest.raises(InvalidParameterError):
        model.unconstrain(x)


def test_pinned_quantities_absent(small_sim):
    """Pinned coordinates are not part of the parameter vector at all."""
    data, _ = small_sim
    model = ProgressionModel(data)
    pinned = data.pinned_group
    assert f"init_sev_mean[{pinned}]" not in model.names
    assert f"init_sev_sd[{pinned}]" not in model.names
    assert f"visit_offset[{pinned}]" not in model.names
    assert f"init_sev_mean[{1 - pinned}]" in model.names


def test_canonical_ordering(small_sim):
    data, _ = small_sim
    model = ProgressionModel(data)
    d = data.n_features
    expect_head = ([f"loading[{j}]" for j in range(d)]
                   + [f"feat_intercept[{j}]" for j in range(d)]
                   + [f"noise_var[{j}]" for j in range(d)]
                   + ["visit_intercept", "visit_severity"])
    assert model.names[:len(expect_head)] == expect_head
    tail = model.names[model.n_global:]
    pids = [p.patient_id for p in data.patients]
    assert tail == [n for pid in pids
                    for n in (f"init_sev[{pid}]", f"rate[{pid}]")]


def test_prior_spec_draws_respect_bounds():
    priors = simulation_priors()
    rng = np.random.default_rng(9)
    draws = priors.loading0.draw(rng, size=5000)
    assert np.all(draws > 0.5)
    draws = priors.visit_severity.draw(rng, size=5000)
    assert np.all(draws > 0.1)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_constrain_noncentered_matrix_matches_rows(small_sim, variant):
    """A (rows, dim) matrix of non-centered draws maps bit for bit as each
    row does alone."""
    data, _ = small_sim
    model = ProgressionModel(data, variant=variant)
    rng = np.random.default_rng(4)
    thetas = np.array([model.init_from_priors(rng, non_centered=True)
                       for _ in range(7)])
    rows = np.array([model.constrain_noncentered(t) for t in thetas])
    assert model.constrain_noncentered(thetas).tobytes() == rows.tobytes()


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_to_noncentered_inverts_constrain_noncentered(small_sim, variant):
    data, _ = small_sim
    model = ProgressionModel(data, variant=variant)
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = model.init_from_priors(rng, non_centered=True)
        back = model.to_noncentered(model.constrain_noncentered(theta))
        np.testing.assert_allclose(back, theta, rtol=1e-12, atol=1e-12)
