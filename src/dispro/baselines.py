"""Reconstruction and forecasting baselines.

Dimensionality-reduction baselines (PCA, EM factor analysis) reconstruct
feature vectors from a small number of components, at the visit level (one
component per visit) or the patient level (two components for a concatenation
of the first three visits). Forecasting baselines fit per-patient, per-feature
curves on a training window and predict held-out visits. Scores are mean
absolute percentage error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .types import ConfigurationError, DataError


def mean_impute(X: np.ndarray) -> np.ndarray:
    """Replace missing cells (NaN) with their column means. A column with no
    observed values imputes to 0."""
    X = np.array(X, dtype=float)
    for j in range(X.shape[1]):
        col = X[:, j]
        obs = np.isfinite(col)
        fill = float(col[obs].mean()) if obs.any() else 0.0
        col[~obs] = fill
    return X


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaFit:
    components: np.ndarray  # (k_effective, p), orthonormal rows
    means: np.ndarray       # (p,)


def pca_fit(X, k: int) -> PcaFit:
    """Top-k principal directions of the mean-imputed data by
    eigendecomposition of the sample covariance. Directions with ~zero
    variance are dropped, so degenerate (all-rows-equal) input yields zero
    components and reconstruction falls back to the mean."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < 2:
        raise ConfigurationError("pca needs at least 2 rows")
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= n_features")
    Xi = mean_impute(X)
    means = Xi.mean(axis=0)
    C = np.cov(Xi - means, rowvar=False, ddof=1).reshape(p, p)
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1][:k]
    scale = max(float(np.max(evals)), 1.0)
    keep = [i for i in order if evals[i] > 1e-12 * scale]
    components = evecs[:, keep].T
    return PcaFit(components=components, means=means)


def pca_reconstruct(X, fit: PcaFit) -> np.ndarray:
    """Mean + projection of the (imputed) rows onto the fitted components."""
    Xi = mean_impute(np.asarray(X, dtype=float))
    centered = Xi - fit.means
    if fit.components.size == 0:
        return np.tile(fit.means, (Xi.shape[0], 1))
    scores = centered @ fit.components.T
    return fit.means + scores @ fit.components


# ---------------------------------------------------------------------------
# factor analysis by EM
# ---------------------------------------------------------------------------

FA_MAX_ITER = 1000
FA_TOL = 1e-8  # relative log-likelihood change that ends EM

@dataclass
class FaFit:
    loadings: np.ndarray       # (p, k)
    uniquenesses: np.ndarray   # (p,)
    means: np.ndarray          # (p,)
    loglik_trace: list[float]
    n_iter: int


def _fa_loglik(S, loadings, uniq, n):
    p = S.shape[0]
    sigma = loadings @ loadings.T + np.diag(uniq)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return -math.inf
    return -0.5 * n * (p * math.log(2.0 * math.pi) + logdet
                       + float(np.trace(np.linalg.solve(sigma, S))))


def _fa_em_step(S, loadings, uniq, floor):
    """One EM update of (loadings, uniquenesses) for the covariance S."""
    k = loadings.shape[1]
    # E-step moments: beta = E[f | x] map, gamma = E[f f^T | x] pieces
    psi_inv_l = loadings / uniq[:, None]
    g = np.linalg.inv(np.eye(k) + loadings.T @ psi_inv_l)
    beta = g @ psi_inv_l.T                       # (k, p)
    s_beta_t = S @ beta.T                        # (p, k)
    second = g + beta @ s_beta_t                 # E[f f^T] averaged
    loadings = s_beta_t @ np.linalg.inv(second)
    uniq = np.maximum(np.diag(S) - np.einsum("pk,kp->p", loadings, beta @ S),
                      floor)
    return loadings, uniq


def fa_fit(X, k: int) -> FaFit:
    """Maximum-likelihood factor analysis on mean-imputed data via EM.

    Deterministic initialization from the principal eigenstructure. Each
    iteration is a SQUAREM cycle (Varadhan & Roland 2008, scheme S3): two
    EM steps, a step of length alpha >= 1 along their extrapolation, one EM
    step from there, and the two plain steps instead where that ends lower;
    alpha's cap grows fourfold when reached and shrinks when a step fails.
    The log-likelihood trace is recorded per iteration (it is
    non-decreasing, a property the test suite asserts). Uniquenesses are
    bounded below by 0.005 x their sample variances (R ``factanal``'s
    default), so a Heywood case stops at the bound instead of creeping
    toward 0. Non-convergence inside FA_MAX_ITER iterations leaves a
    warning with the iteration count.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= n_features")
    if n < 2:
        raise ConfigurationError("factor analysis needs at least 2 rows")
    Xi = mean_impute(X)
    means = Xi.mean(axis=0)
    S = np.cov(Xi - means, rowvar=False, ddof=0).reshape(p, p)
    floor = np.maximum(0.005 * np.diag(S), 1e-10)

    evals, evecs = np.linalg.eigh(S)
    order = np.argsort(evals)[::-1][:k]
    lam = np.sqrt(np.maximum(evals[order], 1e-8))
    loadings = evecs[:, order] * lam
    uniq = np.maximum(np.diag(S) - np.sum(loadings ** 2, axis=1), 1e-6)

    trace = []
    prev = -math.inf
    converged = False
    it = 0
    step_max = 1.0
    for it in range(1, FA_MAX_ITER + 1):
        l1, u1 = _fa_em_step(S, loadings, uniq, floor)
        l2, u2 = _fa_em_step(S, l1, u1, floor)
        ll = _fa_loglik(S, l2, u2, n)
        r_l, r_u = l1 - loadings, u1 - uniq
        v_l, v_u = l2 - l1 - r_l, u2 - u1 - r_u
        vv = float(np.sum(v_l * v_l) + np.sum(v_u * v_u))
        alpha = 1.0
        if vv > 0.0:
            rr = float(np.sum(r_l * r_l) + np.sum(r_u * r_u))
            alpha = min(max(math.sqrt(rr / vv), 1.0), step_max)
        if alpha == step_max:
            step_max *= 4.0
        l3, u3 = _fa_em_step(
            S, loadings + 2.0 * alpha * r_l + alpha * alpha * v_l,
            np.maximum(uniq + 2.0 * alpha * r_u + alpha * alpha * v_u, floor),
            floor)
        ll3 = _fa_loglik(S, l3, u3, n)
        if ll3 >= ll:
            loadings, uniq, ll = l3, u3, ll3
        else:
            loadings, uniq = l2, u2
            step_max = max(1.0, step_max / 4.0)
        trace.append(ll)
        if np.isfinite(prev) and abs(ll - prev) <= FA_TOL * max(1.0, abs(prev)):
            converged = True
            break
        prev = ll
    if not converged:
        warnings.warn(f"factor analysis EM did not converge in {it} iterations",
                      RuntimeWarning, stacklevel=2)
    return FaFit(loadings=loadings, uniquenesses=uniq, means=means,
                 loglik_trace=trace, n_iter=it)


def fa_reconstruct(X, fit: FaFit) -> np.ndarray:
    """Reconstruction through the posterior factor means:
    mean + loadings @ E[f | x]."""
    Xi = mean_impute(np.asarray(X, dtype=float))
    centered = Xi - fit.means
    lam, uniq = fit.loadings, fit.uniquenesses
    k = lam.shape[1]
    g = np.linalg.inv(np.eye(k) + lam.T @ (lam / uniq[:, None]))
    scores = centered @ (lam / uniq[:, None]) @ g.T
    return fit.means + scores @ lam.T


# ---------------------------------------------------------------------------
# matrices for the two comparison levels
# ---------------------------------------------------------------------------

def visit_matrix(data):
    """One row per visit over the first three visits of eligible patients
    (those with at least 3 visits), matching the patient-level comparison
    cohort."""
    rows = []
    for p in data.patients:
        vbins = p.visit_bins()
        if vbins.size < 3:
            continue
        for t in vbins[:3]:
            rows.append(p.features[t])
    if len(rows) < 6:  # the patient-level fits need 2 rows
        raise DataError(f"baselines need at least 2 patients with 3 visits, "
                        f"the dataset has {len(rows) // 3}")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# per-patient forecasting baselines
# ---------------------------------------------------------------------------

TRAJECTORY_METHODS = ("linear", "quadratic", "latest")


def trajectory_baselines(data, train_window: int) -> dict:
    """Predict features at held-out visit bins (bin >= train_window) by each
    of TRAJECTORY_METHODS: {method: rows}, one row (patient_id, bin, feature,
    predicted, actual) per held-out cell.

    linear/quadratic: per-patient per-feature least squares on training
    observations, falling back to the feature's population training mean with
    fewer than 2 (linear) or 3 (quadratic) points, and clipping predictions
    to the feature's observed training range. latest: last observed training
    value, else the population mean.
    """
    if train_window < 1:
        raise ConfigurationError("train_window must be a positive bin count")
    d = data.n_features

    pop_sum = np.zeros(d)
    pop_n = np.zeros(d)
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    for p in data.patients:
        seg = p.features[:train_window]
        obs = np.isfinite(seg)
        pop_sum += np.where(obs, seg, 0.0).sum(axis=0)
        pop_n += obs.sum(axis=0)
        lo = np.minimum(lo, np.where(obs, seg, np.inf).min(axis=0))
        hi = np.maximum(hi, np.where(obs, seg, -np.inf).max(axis=0))
    if not pop_n.any():
        raise ConfigurationError("empty training window")
    pop_mean = np.where(pop_n > 0, pop_sum / np.maximum(pop_n, 1), 0.0)

    rows = {method: [] for method in TRAJECTORY_METHODS}
    poly = np.polynomial.polynomial
    for p in data.patients:
        for j in range(d):
            col = p.features[:, j]
            test_bins = train_window + np.flatnonzero(
                np.isfinite(col[train_window:]))
            if test_bins.size == 0:
                continue
            train_bins = np.flatnonzero(np.isfinite(col[:train_window]))
            tt, yy = train_bins.astype(float), col[train_bins]
            fallback = np.full(test_bins.size, pop_mean[j])
            preds = {"latest": np.full(test_bins.size, yy[-1]) if yy.size
                     else fallback}
            # one curve per (patient, feature), evaluated at every held-out bin
            for method, degree in (("linear", 1), ("quadratic", 2)):
                preds[method] = fallback if yy.size <= degree else np.clip(
                    poly.polyval(test_bins.astype(float),
                                 poly.polyfit(tt, yy, degree)), lo[j], hi[j])
            for method, pred in preds.items():
                rows[method].extend(
                    (p.patient_id, t, j, y, a) for t, y, a in zip(
                        test_bins.tolist(), pred.tolist(),
                        col[test_bins].tolist()))
    return rows


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def mape(predicted, actual) -> float | None:
    """Mean absolute percentage error over scorable cells, as a percentage;
    None when no cell is scorable. A cell is scorable when both values are
    finite and the actual one is not exactly 0."""
    predicted = np.asarray(predicted, dtype=float).ravel()
    actual = np.asarray(actual, dtype=float).ravel()
    if predicted.shape != actual.shape:
        raise ConfigurationError("predicted and actual must align")
    scored = np.isfinite(actual) & np.isfinite(predicted) & (actual != 0.0)
    if not scored.any():
        return None
    return float(np.mean(np.abs(predicted[scored] - actual[scored])
                         / np.abs(actual[scored])) * 100.0)


def _scores(predicted, actual, feature_of, feature_subset) -> dict:
    """MAPE over all cells and, given feature_subset, over the cells whose
    feature is in it; feature_of labels the last axis with feature indices."""
    row = {"mape_all": mape(predicted, actual)}
    if feature_subset is not None:
        keep = np.isin(feature_of, list(feature_subset))
        row["mape_informative"] = mape(predicted[..., keep], actual[..., keep])
    return row


def reconstruction_table(data, feature_subset=None):
    """Reconstruction comparison over the first-three-visit cohort: visit- and
    patient-level PCA and factor analysis, scored by MAPE on all features and
    on the given informative subset."""
    d = data.n_features
    Xv = visit_matrix(data)
    Xp = Xv.reshape(-1, 3 * d)  # a patient's three visits in one row
    out = {}
    for label, X, k, fitter, recon in (
            ("pca_visit", Xv, 1, pca_fit, pca_reconstruct),
            ("fa_visit", Xv, 1, fa_fit, fa_reconstruct),
            ("pca_patient", Xp, 2, pca_fit, pca_reconstruct),
            ("fa_patient", Xp, 2, fa_fit, fa_reconstruct)):
        R = recon(X, fitter(X, k))
        out[label] = _scores(R, X, np.arange(X.shape[1]) % d, feature_subset)
    return out


def prediction_table(data, train_window: int, feature_subset=None):
    """Forecasting comparison: per-method MAPE at held-out visits."""
    out = {}
    for method, rows in trajectory_baselines(data, train_window).items():
        feat, pred, act = (np.array([r[i] for r in rows]) for i in (2, 3, 4))
        out[method] = {**_scores(pred, act, feat, feature_subset),
                       "n_predictions": len(rows)}
    return out
