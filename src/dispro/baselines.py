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
from dataclasses import dataclass, field

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
    explained: np.ndarray   # (k_effective,) eigenvalues, descending


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
    return PcaFit(components=components, means=means,
                  explained=evals[keep])


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

@dataclass
class FaFit:
    loadings: np.ndarray       # (p, k)
    uniquenesses: np.ndarray   # (p,)
    means: np.ndarray          # (p,)
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = True
    n_iter: int = 0


def _fa_loglik(S, loadings, uniq, n):
    p = S.shape[0]
    sigma = loadings @ loadings.T + np.diag(uniq)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return -math.inf
    return -0.5 * n * (p * math.log(2.0 * math.pi) + logdet
                       + float(np.trace(np.linalg.solve(sigma, S))))


def fa_fit(X, k: int, max_iter: int = 1000, tol: float = 1e-8) -> FaFit:
    """Maximum-likelihood factor analysis on mean-imputed data via EM.

    Deterministic initialization from the principal eigenstructure; the
    log-likelihood trace is recorded per iteration (it is non-decreasing, a
    property the test suite asserts). Uniquenesses are bounded below by 0.005
    x their sample variances (R ``factanal``'s default), so a Heywood case
    stops at the bound instead of creeping toward 0. Non-convergence inside
    max_iter leaves a warning with the iteration count.
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
    eye = np.eye(k)
    for it in range(1, max_iter + 1):
        # E-step moments: beta = E[f | x] map, gamma = E[f f^T | x] pieces
        psi_inv_l = loadings / uniq[:, None]
        g = np.linalg.inv(eye + loadings.T @ psi_inv_l)
        beta = g @ psi_inv_l.T                       # (k, p)
        s_beta_t = S @ beta.T                        # (p, k)
        second = g + beta @ s_beta_t                 # E[f f^T] averaged
        loadings = s_beta_t @ np.linalg.inv(second)
        uniq = np.maximum(np.diag(S) - np.einsum("pk,kp->p", loadings,
                                                 beta @ S), floor)
        ll = _fa_loglik(S, loadings, uniq, n)
        trace.append(ll)
        if np.isfinite(prev) and abs(ll - prev) <= tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = ll
    if not converged:
        warnings.warn(f"factor analysis EM did not converge in {it} iterations",
                      RuntimeWarning, stacklevel=2)
    return FaFit(loadings=loadings, uniquenesses=uniq, means=means,
                 loglik_trace=trace, converged=converged, n_iter=it)


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
    if not rows:
        raise DataError("no eligible patients with 3 visits")
    return np.asarray(rows, dtype=float)


def patient_matrix(data):
    """One row per eligible patient: features from the first three visits
    concatenated (3 * d columns)."""
    return visit_matrix(data).reshape(-1, 3 * data.n_features)


# ---------------------------------------------------------------------------
# per-patient forecasting baselines
# ---------------------------------------------------------------------------

TRAJECTORY_METHODS = ("linear", "quadratic", "latest")


@dataclass
class PredictionTable:
    rows: list  # (patient_id, bin, feature, predicted, actual)

    def arrays(self):
        pred = np.array([r[3] for r in self.rows])
        act = np.array([r[4] for r in self.rows])
        feat = np.array([r[2] for r in self.rows])
        return pred, act, feat


def _polyfit_or_none(t, y, degree):
    if t.size < degree + 1:
        return None
    # least squares on a Vandermonde basis; well-posed given enough points
    return np.polynomial.polynomial.polyfit(t, y, degree)


def trajectory_baselines(data, train_window: int, method: str) -> PredictionTable:
    """Predict features at held-out visit bins (bin >= train_window).

    linear/quadratic: per-patient per-feature least squares on training
    observations, falling back to the feature's population training mean with
    fewer than 2 (linear) or 3 (quadratic) points, and clipping predictions
    to the feature's observed training range. latest: last observed training
    value, else the population mean.
    """
    if method not in TRAJECTORY_METHODS:
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
                coef = _polyfit_or_none(tt, yy, 1 if method == "linear" else 2)
            for t in test_bins:
                if coef is not None:
                    pred = float(np.polynomial.polynomial.polyval(float(t), coef))
                    if np.isfinite(lo[j]) and np.isfinite(hi[j]):
                        pred = min(max(pred, float(lo[j])), float(hi[j]))
                rows.append((p.patient_id, int(t), j, pred, float(col[t])))
    return PredictionTable(rows=rows)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass
class MapeResult:
    value: float | None     # percent; None when no scorable cells
    n_scored: int
    n_zero_actual: int


def mape(predicted, actual, feature_of=None, feature_subset=None) -> MapeResult:
    """Mean absolute percentage error over scorable cells, as a percentage.
    Cells whose actual value is exactly 0 are excluded and counted;
    feature_subset restricts scoring to those feature indices."""
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
    zero = keep & (actual == 0.0)
    scored = keep & (actual != 0.0)
    n_scored = int(scored.sum())
    if n_scored == 0:
        return MapeResult(value=None, n_scored=0, n_zero_actual=int(zero.sum()))
    value = float(np.mean(np.abs(predicted[scored] - actual[scored])
                          / np.abs(actual[scored])) * 100.0)
    return MapeResult(value=value, n_scored=n_scored,
                      n_zero_actual=int(zero.sum()))


def reconstruction_table(data, feature_subset=None):
    """Reconstruction comparison over the first-three-visit cohort: visit- and
    patient-level PCA and factor analysis, scored by MAPE on all features and
    on the given informative subset."""
    d = data.n_features
    Xv = visit_matrix(data)
    Xp = patient_matrix(data)
    feat_v = np.tile(np.arange(d), (Xv.shape[0], 1))
    feat_p = np.tile(np.tile(np.arange(d), 3), (Xp.shape[0], 1))
    out = {}
    for label, X, feats, k, fitter, recon in (
            ("pca_visit", Xv, feat_v, 1, pca_fit, pca_reconstruct),
            ("fa_visit", Xv, feat_v, 1, fa_fit, fa_reconstruct),
            ("pca_patient", Xp, feat_p, 2, pca_fit, pca_reconstruct),
            ("fa_patient", Xp, feat_p, 2, fa_fit, fa_reconstruct)):
        fit = fitter(X, k)
        R = recon(X, fit)
        row = {"mape_all": mape(R, X, feats).value}
        if feature_subset is not None:
            row["mape_informative"] = mape(R, X, feats,
                                           feature_subset=feature_subset).value
        out[label] = row
    return out


def prediction_table(data, train_window: int, feature_subset=None):
    """Forecasting comparison: per-method MAPE at held-out visits."""
    out = {}
    for method in TRAJECTORY_METHODS:
        table = trajectory_baselines(data, train_window, method)
        pred, act, feat = table.arrays()
        row = {"mape_all": mape(pred, act, feat).value,
               "n_predictions": len(table.rows)}
        if feature_subset is not None:
            row["mape_informative"] = mape(pred, act, feat,
                                           feature_subset=feature_subset).value
        out[method] = row
    return out
