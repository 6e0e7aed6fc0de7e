"""Analytic gradient versus central finite differences, a per-cell loop
reference and closed-form spot checks."""

import math

import numpy as np
import pytest

from dispro import ProgressionModel
from dispro.model import ModelVariant

from conftest import (edge_visit_cohort, init_from_priors, missing_cell_cohort,
                      truth_bundles)


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
        theta = init_from_priors(model, rng)
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
        theta = init_from_priors(model, rng, non_centered=True)
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


def _start_points(model, non_centered, n, seed):
    """The first ``n`` prior draws at which the density is finite."""
    rng = np.random.default_rng(seed)
    fn = model.logp_and_grad_noncentered if non_centered else model.logp_and_grad
    points = []
    for _ in range(50):
        theta = init_from_priors(model, rng, non_centered=non_centered)
        if np.isfinite(fn(theta, want_grad=False)[0]):
            points.append(theta)
        if len(points) == n:
            return fn, points
    raise AssertionError("too few finite prior draws")


VARIANT_PARAMS = [(v, nc) for v in ModelVariant for nc in (False, True)]
VARIANT_IDS = [f"{v.value}-{'nc' if nc else 'c'}" for v, nc in VARIANT_PARAMS]


@pytest.mark.parametrize("variant, non_centered", VARIANT_PARAMS,
                         ids=VARIANT_IDS)
def test_missing_cells_match_finite_differences(variant, non_centered):
    """Missing cells at visit bins, where the emission block has to leave
    a visit's missing features out of every sum."""
    model = ProgressionModel(missing_cell_cohort(), variant=variant)
    fn, points = _start_points(model, non_centered, 2, seed=19)
    for theta in points:
        lp, grad = fn(theta)
        fd = fd_gradient(lambda t: fn(t, want_grad=False)[0], theta)
        assert np.max(gradient_rel_err(grad, fd, lp)) < 1e-5


def reference_gradient(model, theta, non_centered):
    """d log p / d theta by plain loops over observed cells, visit bins and
    prior factors. Every coordinate collects its terms in a list, summed
    once with ``math.fsum``; returns the gradient and, per coordinate, the
    ``math.fsum`` of the terms' absolute values, the scale of the rounding
    error any summation order can make."""
    data, base = model.data, model.n_global
    w = data.bin_width
    pos = {name: k for k, name in enumerate(model.names[:base])}
    x = [theta[k] if p.lower is None else p.lower + math.exp(theta[k])
         for k, p in enumerate(model.priors)]
    terms = [[] for _ in range(model.dim)]  # d/dx for globals, d/dtheta else

    def coord(name, default):
        """(value, coordinate) of a global, (default, None) where absent."""
        k = pos.get(name)
        return (default, None) if k is None else (x[k], k)

    def add(k, t):
        if k is not None:
            terms[k].append(t)

    d = data.n_features
    L, B, V = x[:d], x[d:2 * d], x[2 * d:3 * d]
    vint, vsev = x[3 * d], x[3 * d + 1]
    for i, p in enumerate(data.patients):
        g = p.group.index
        m_i, k_mi = coord(f"init_sev_mean[{g}]", 0.0)
        s_i, k_si = coord(f"init_sev_sd[{g}]", 1.0)
        m_r, k_mr = coord(f"rate_mean[{g}]", None)
        if k_mr is None:
            m_r, k_mr = coord("rate_mean", None)
        s_r, k_sr = coord(f"rate_sd[{g}]", None)
        if k_sr is None:
            s_r, k_sr = coord("rate_sd", None)
        off, k_off = coord(f"visit_offset[{g}]", 0.0)
        ci, cr = base + 2 * i, base + 2 * i + 1
        if non_centered:
            u_i, u_r = theta[ci], theta[cr]
            sev0, rate = m_i + s_i * u_i, m_r + s_r * u_r
        else:
            sev0, rate = theta[ci], theta[cr]
        d_sev, d_rate = [], []  # likelihood terms in sev0 and rate
        for t in p.visit_bins():
            sev = sev0 + rate * (t * w)
            for j in range(d):
                xv = p.features[t, j]
                if not np.isfinite(xv):
                    continue
                r = xv - (L[j] * sev + B[j])
                terms[j].append(r / V[j] * sev)
                terms[d + j].append(r / V[j])
                terms[2 * d + j] += [-0.5 / V[j], 0.5 * r * r / V[j] ** 2]
                d_sev.append(L[j] * r / V[j])
                d_rate.append(L[j] * r / V[j] * (t * w))
        for k in range(1, p.horizon + 1):
            sev = sev0 + rate * (k * w)
            q = w * math.exp(vint + vsev * sev + off)
            e = q / math.expm1(q) if p.visits[k] else -q
            terms[3 * d].append(e)
            terms[3 * d + 1].append(e * sev)
            add(k_off, e)
            d_sev.append(vsev * e)
            d_rate.append(vsev * e * (k * w))
        if non_centered:
            # sev0 = m + s u: the likelihood terms fan out to u, m and s;
            # the prior on u is standard normal
            for k_lat, u, dl, k_m, k_s, s in ((ci, u_i, d_sev, k_mi, k_si, s_i),
                                              (cr, u_r, d_rate, k_mr, k_sr, s_r)):
                terms[k_lat] += [t * s for t in dl] + [-u]
                for t in dl:
                    add(k_m, t)
                    add(k_s, t * u)
        else:
            for k_lat, z, dl, k_m, k_s, m, s in (
                    (ci, sev0, d_sev, k_mi, k_si, m_i, s_i),
                    (cr, rate, d_rate, k_mr, k_sr, m_r, s_r)):
                terms[k_lat] += dl + [-(z - m) / s ** 2]
                add(k_m, (z - m) / s ** 2)
                add(k_s, -1.0 / s + (z - m) ** 2 / s ** 3)
    for k, p in enumerate(model.priors):
        terms[k].append(-(x[k] - p.mu) / p.sigma ** 2)
        if p.lower is not None:  # x = lower + e^theta, plus the Jacobian
            terms[k] = [t * math.exp(theta[k]) for t in terms[k]] + [1.0]
    grad = np.array([math.fsum(t) for t in terms])
    scale = np.array([math.fsum(abs(v) for v in t) for t in terms])
    return grad, scale


@pytest.mark.parametrize("variant, non_centered", VARIANT_PARAMS,
                         ids=VARIANT_IDS)
def test_matches_per_cell_reference(variant, non_centered):
    """The analytic gradient against ``reference_gradient`` on the
    missing-cell cohort, to 1e-12 of each coordinate's term scale."""
    model = ProgressionModel(missing_cell_cohort(), variant=variant)
    fn, points = _start_points(model, non_centered, 3, seed=23)
    for theta in points:
        grad = fn(theta)[1]
        ref, scale = reference_gradient(model, theta, non_centered)
        assert np.max(np.abs(grad - ref) / scale) < 1e-12


@pytest.mark.parametrize("variant, non_centered", VARIANT_PARAMS,
                         ids=VARIANT_IDS)
def test_value_path_matches_gradient_path(variant, non_centered):
    """The value-only call returns the gradient call's log-density to the
    last bit, on cohorts with and without missing cells."""
    for data in (missing_cell_cohort(), edge_visit_cohort()[0]):
        model = ProgressionModel(data, variant=variant)
        fn, points = _start_points(model, non_centered, 3, seed=29)
        for theta in points:
            assert fn(theta, want_grad=False)[0] == fn(theta)[0]


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
            sev = lat[0] + lat[1] * t * data.bin_width
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
