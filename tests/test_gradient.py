"""Analytic gradient versus central finite differences, plus closed-form
spot checks."""

import numpy as np
import pytest

from dispro import ProgressionModel

from conftest import edge_visit_cohort, truth_bundles


FD_H = 1e-5


def fd_gradient(fn, theta, h=FD_H):
    g = np.empty(theta.size)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


def gradient_rel_err(analytic, fd, lp, h=FD_H):
    """Relative error with an allowance for the finite-difference scheme's
    own cancellation noise, which dominates on gradient components much
    smaller than the density's magnitude.

    The denominator floor is ``1e-11 * |lp| / h``; against the callers'
    ``1e-5`` bound that allows an absolute error of ``1e-16 * |lp| / h``.
    One ulp of lp is 1.1e-16 to 2.2e-16 of |lp|, so the allowance is about
    one ulp of lp per 2h: the check passes only when the density is
    accumulated to about one ulp (a correctly rounded or compensated sum),
    not when every block addition rounds on its own."""
    fd_noise = 1e-11 * max(abs(lp), 1.0) / h
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), fd_noise)
    return np.abs(analytic - fd) / denom


def test_matches_finite_differences_100_draws(ten_patient_sim):
    data, _ = ten_patient_sim
    model = ProgressionModel(data)
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_checked = 0
    for _ in range(100):
        theta = model.init_from_priors(rng)
        lp, grad = model.logp_and_grad(theta)
        if not np.isfinite(lp):
            continue
        n_checked += 1
        fd = fd_gradient(model.log_posterior, theta)
        worst = max(worst, float(np.max(gradient_rel_err(grad, fd, lp))))
    assert n_checked >= 95
    assert worst < 1e-5


def test_noncentered_matches_finite_differences(ten_patient_sim):
    data, _ = ten_patient_sim
    model = ProgressionModel(data)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        theta = model.init_from_priors(rng, non_centered=True)
        lp, grad = model.logp_and_grad_noncentered(theta)
        if not np.isfinite(lp):
            continue
        fd = fd_gradient(
            lambda t: model.logp_and_grad_noncentered(t, want_grad=False)[0],
            theta)
        worst = max(worst, float(np.max(gradient_rel_err(grad, fd, lp))))
    assert worst < 1e-5


@pytest.mark.parametrize("non_centered", [False, True])
def test_edge_visit_cohort_matches_finite_differences(non_centered):
    """At the edge cohort's own point: a patient with a visit in every bin,
    visit-rate slopes of exactly 0 and 1e-9 (the difference steps stay in
    the series branch of the mean bin), slopes on either side of that
    branch's end and |c| H = 40 of both signs."""
    data, shared, groups, latents = edge_visit_cohort()
    model = ProgressionModel(data)
    x = model.pack(shared, groups, latents)
    if non_centered:
        theta, fn = model.to_noncentered(x), model.logp_and_grad_noncentered
    else:
        theta, fn = model.unconstrain(x), model.logp_and_grad
    lp, grad = fn(theta)
    assert np.isfinite(lp)
    fd = fd_gradient(lambda t: fn(t, want_grad=False)[0], theta)
    assert np.max(gradient_rel_err(grad, fd, lp)) < 1e-5


def test_feature_intercept_gradient_closed_form(ten_patient_sim):
    """The emission gradient w.r.t. an intercept is the residual sum over
    that feature's observed cells divided by its noise variance."""
    data, truth = ten_patient_sim
    model = ProgressionModel(data)
    shared, groups, latents = truth_bundles(data, truth)
    theta = model.unconstrain(model.pack(shared, groups, latents))
    _, grad = model.logp_and_grad(theta)

    j = 1
    resid_sum = 0.0
    for p, lat in zip(data.patients, latents):
        for t in range(p.horizon + 1):
            xv = p.features[t, j]
            if not np.isfinite(xv):
                continue
            sev = lat.init_sev + lat.rate * t * data.bin_width
            resid_sum += (xv - (shared.loadings[j] * sev
                                + shared.feat_intercepts[j]))
    expect = resid_sum / shared.noise_vars[j]
    # the intercept is unbounded: its only other density term is its prior
    i_b = model.names.index(f"feat_intercept[{j}]")
    prior_term = -(shared.feat_intercepts[j] - 0.0) / 1.0 ** 2
    assert grad[i_b] == pytest.approx(expect + prior_term, rel=1e-9)
    # finite differences agree with the closed form too
    fd = fd_gradient(model.log_posterior, theta)[i_b]
    assert fd == pytest.approx(expect + prior_term, rel=1e-4)


def test_sentinel_gradient_is_zero(ten_patient_sim):
    data, truth = ten_patient_sim
    model = ProgressionModel(data)
    shared, groups, latents = truth_bundles(data, truth)
    x = model.pack(shared, groups, latents)
    x[model.names.index("visit_intercept")] = 60.0
    theta = model.unconstrain(x)
    lp, grad = model.logp_and_grad(theta)
    assert lp == -np.inf
    assert np.all(grad == 0.0)
