"""Reconstruction and forecasting baseline fixtures and oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispro import baselines
from dispro.baselines import (
    fa_fit,
    fa_reconstruct,
    mape,
    mean_impute,
    pca_fit,
    pca_reconstruct,
    prediction_table,
    reconstruction_table,
    trajectory_baselines,
    visit_matrix,
)
from dispro.types import ConfigurationError, Dataset

from conftest import (
    make_patient,
    reference_mape,
    reference_trajectory_baselines,
)


class TestPca:
    def test_rank_one_line_exact(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=60)
        direction = np.array([1.0, -2.0, 0.5])
        X = np.outer(t, direction) + np.array([3.0, 1.0, -1.0])
        fit = pca_fit(X, 1)
        R = pca_reconstruct(X, fit)
        assert mape(R, X) == pytest.approx(0.0, abs=1e-8)

    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 4))
        fit = pca_fit(X, 4)
        R = pca_reconstruct(X, fit)
        np.testing.assert_allclose(R, X, atol=1e-10)

    def test_degenerate_rows_give_zero_components(self):
        X = np.tile([2.0, -1.0, 0.5], (10, 1))
        fit = pca_fit(X, 2)
        assert fit.components.shape[0] == 0
        R = pca_reconstruct(X, fit)
        np.testing.assert_allclose(R, X, atol=1e-12)

    def test_svd_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        for k in (1, 2, 3):
            fit = pca_fit(X, k)
            R = pca_reconstruct(X, fit)
            Xc = X - X.mean(axis=0)
            U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
            R_svd = X.mean(axis=0) + (U[:, :k] * S[:k]) @ Vt[:k]
            np.testing.assert_allclose(R, R_svd, atol=1e-8)

    def test_reconstruction_error_monotone_in_k(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 6))
        errs = []
        for k in range(1, 7):
            R = pca_reconstruct(X, pca_fit(X, k))
            errs.append(float(np.sum((R - X) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_mean_imputation(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 8.0]])
        Xi = mean_impute(X)
        assert Xi[0, 1] == pytest.approx(6.0)
        assert Xi[2, 0] == pytest.approx(2.0)


class TestFactorAnalysis:
    def simulate_one_factor(self, n, loadings, uniq, seed=0):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=n)
        noise = rng.normal(size=(n, len(loadings))) * np.sqrt(uniq)
        return np.outer(f, loadings) + noise

    def test_loading_recovery_up_to_sign(self):
        loadings = np.array([1.0, -0.8, 0.6, 1.4])
        uniq = np.array([0.3, 0.5, 0.4, 0.2])
        X = self.simulate_one_factor(10_000, loadings, uniq, seed=5)
        fit = fa_fit(X, 1)
        lam = fit.loadings[:, 0]
        if np.sign(lam[0]) != np.sign(loadings[0]):
            lam = -lam
        assert float(np.max(np.abs(lam - loadings) / np.abs(loadings))) < 0.05

    def test_uniquenesses_positive(self):
        X = self.simulate_one_factor(500, np.array([1.0, 0.5]),
                                     np.array([0.4, 0.6]), seed=1)
        fit = fa_fit(X, 1)
        assert np.all(fit.uniquenesses > 0)

    def test_loglik_monotone_every_iteration(self):
        for seed in range(4):
            X = self.simulate_one_factor(300, np.array([1.0, -0.7, 0.4]),
                                         np.array([0.5, 0.3, 0.8]), seed=seed)
            fit = fa_fit(X, 1)
            trace = np.array(fit.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-7 * np.abs(trace[:-1]))

    def test_fixed_point_diagonal_identity(self, monkeypatch):
        X = self.simulate_one_factor(2000, np.array([1.2, -0.9, 0.5]),
                                     np.array([0.4, 0.3, 0.6]), seed=7)
        monkeypatch.setattr(baselines, "FA_TOL", 1e-12)
        fit = fa_fit(X, 1)
        Xi = mean_impute(X)
        S = np.cov(Xi - Xi.mean(axis=0), rowvar=False, ddof=0)
        sigma = fit.loadings @ fit.loadings.T + np.diag(fit.uniquenesses)
        np.testing.assert_allclose(np.diag(sigma), np.diag(S), rtol=1e-6)

    def test_nonconvergence_warns(self, monkeypatch):
        X = self.simulate_one_factor(200, np.array([1.0, 0.6]),
                                     np.array([0.5, 0.5]), seed=2)
        monkeypatch.setattr(baselines, "FA_MAX_ITER", 3)
        with pytest.warns(RuntimeWarning, match="did not converge in 3"):
            fa_fit(X, 1)

    def test_heywood_case_converges_at_the_bound(self):
        """8 rows of rank 5 under 12 columns: the ML uniquenesses go to 0.
        EM stops at the bound of 0.005 x each sample variance, converges
        without a warning, and its log-likelihood never falls."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 5)) @ rng.normal(size=(5, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fa_fit(X, 2)
        assert fit.n_iter < baselines.FA_MAX_ITER
        bound = 0.005 * X.var(axis=0)
        assert np.all(fit.uniquenesses >= bound)
        assert np.any(fit.uniquenesses == bound)
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-7 * np.abs(trace[:-1]))

    def test_demo_cohort_visit_matrix_converges(self):
        """The visit matrix of the demo-02 cohort (219 x 4, k = 1), where
        plain EM ran out of iterations at a log-likelihood of -2128.2468:
        the accelerated EM converges without a warning, at least as high,
        and its log-likelihood never falls."""
        from dispro import SimConfig, simulate_dataset

        data, _ = simulate_dataset(SimConfig(n_patients=150, n_bins=40,
                                             bin_width=1 / 40.0, seed=2025))
        X = visit_matrix(data)
        assert X.shape == (219, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fa_fit(X, 1)
        assert fit.n_iter < baselines.FA_MAX_ITER
        assert fit.loglik_trace[-1] >= -2128.2468
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)

    def test_reconstruction_shrinks_toward_mean(self):
        X = self.simulate_one_factor(400, np.array([1.0, 1.0]),
                                     np.array([0.2, 0.2]), seed=3)
        fit = fa_fit(X, 1)
        R = fa_reconstruct(X, fit)
        assert R.shape == X.shape
        assert float(np.mean((R - X) ** 2)) < float(np.var(X))


def trajectory_dataset(values_fn, n_bins=9, d=1, cover=None):
    """One patient fully observed at every bin with feature values from
    values_fn(t). ``cover`` optionally adds constant-valued patients so the
    population training range spans [cover[0], cover[1]] and the range clip
    stays inactive for interior predictions."""
    visits = np.ones(n_bins + 1, dtype=np.int8)
    feats = np.array([[values_fn(t, j) for j in range(d)]
                      for t in range(n_bins + 1)], dtype=float)
    patients = [make_patient("p0", 0, visits, feats)]
    if cover is not None:
        for tag, v in zip("lo hi".split(), cover):
            cfeats = np.full((n_bins + 1, d), float(v))
            patients.append(make_patient(f"c_{tag}", 0, visits, cfeats))
    return Dataset(patients, 1, d, 1.0)


class TestTrajectoryBaselines:
    def test_linear_method_exact_on_linear_data(self):
        data = trajectory_dataset(lambda t, j: 2.0 + 0.5 * t,
                                  cover=(0.0, 10.0))
        rows = trajectory_baselines(data, train_window=5)["linear"]
        rows = [r for r in rows if r[0] == "p0"]
        pred = np.array([r[3] for r in rows])
        act = np.array([r[4] for r in rows])
        assert pred.size > 0
        np.testing.assert_allclose(pred, act, atol=1e-9)

    def test_latest_method_exact_on_constant_data(self):
        data = trajectory_dataset(lambda t, j: 4.2)
        rows = trajectory_baselines(data, train_window=4)["latest"]
        assert rows
        np.testing.assert_allclose([r[3] for r in rows], [r[4] for r in rows],
                                   atol=1e-12)

    def test_quadratic_on_collinear_points_matches_linear(self):
        # exactly 3 training points on a line: the quadratic term vanishes
        data = trajectory_dataset(lambda t, j: 1.0 - 0.3 * t, n_bins=6,
                                  cover=(-5.0, 5.0))
        lin = trajectory_baselines(data, train_window=3)["linear"]
        quad = trajectory_baselines(data, train_window=3)["quadratic"]
        np.testing.assert_allclose([r[3] for r in quad], [r[3] for r in lin],
                                   atol=1e-10)

    @pytest.mark.parametrize("method", ["linear", "quadratic"])
    def test_one_fit_per_patient_feature(self, small_sim, monkeypatch, method):
        """The curve does not depend on the held-out bin, so it is fit once
        per (patient, feature) that has held-out cells and more training
        points than its degree."""
        data, _ = small_sim
        window, degree = 8, {"linear": 1, "quadratic": 2}[method]
        calls = []
        fit = np.polynomial.polynomial.polyfit

        def counted(t, y, deg):
            calls.append(deg)
            return fit(t, y, deg)

        monkeypatch.setattr(np.polynomial.polynomial, "polyfit", counted)
        rows = trajectory_baselines(data, train_window=window)[method]
        held_out = {(r[0], r[2]) for r in rows}
        assert len(rows) > len(held_out)  # some pair has several bins
        features = {p.patient_id: p.features for p in data.patients}
        fitted = [pair for pair in held_out if np.isfinite(
            features[pair[0]][:window, pair[1]]).sum() > degree]
        assert calls.count(degree) == len(fitted) > 0

    def test_population_mean_fallback(self):
        # patient with a single training observation falls back for linear
        visits = np.array([1, 0, 1, 1], dtype=np.int8)
        feats = np.array([[2.0], [np.nan], [4.0], [6.0]])
        pat1 = make_patient("a", 0, visits, feats)
        visits2 = np.ones(4, dtype=np.int8)
        feats2 = np.array([[1.0], [1.5], [2.0], [2.5]])
        pat2 = make_patient("b", 0, visits2, feats2)
        data = Dataset([pat1, pat2], 1, 1, 1.0)
        rows = trajectory_baselines(data, train_window=2)["linear"]
        rows_a = [r for r in rows if r[0] == "a"]
        pop_mean = np.mean([2.0, 1.0, 1.5])
        for _, t, j, pred, act in rows_a:
            assert pred == pytest.approx(pop_mean)

    def test_clipping_to_training_range(self):
        # steep line overshoots its training range at far horizons
        data = trajectory_dataset(lambda t, j: float(t), n_bins=9)
        rows = trajectory_baselines(data, train_window=4)["linear"]
        for _, t, j, pred, act in rows:
            assert 0.0 <= pred <= 3.0

    def test_clip_inactive_within_range(self):
        rng = np.random.default_rng(4)
        data = trajectory_dataset(lambda t, j: 5.0 + 0.01 * t
                                  + 0.001 * rng.normal(), n_bins=9,
                                  cover=(4.0, 6.0))
        rows = trajectory_baselines(data, train_window=6)["linear"]
        # predictions stay interior, so clipping must not modify them:
        # re-derive the unclipped least-squares prediction and compare
        tt = np.arange(6, dtype=float)
        yy = data.patients[0].features[:6, 0]
        coef = np.polynomial.polynomial.polyfit(tt, yy, 1)
        for pid, t, j, pred, act in rows:
            if pid != "p0":
                continue
            raw = float(np.polynomial.polynomial.polyval(float(t), coef))
            assert pred == pytest.approx(raw, rel=1e-12)

    def test_empty_training_window_rejected(self):
        data = trajectory_dataset(lambda t, j: 1.0)
        with pytest.raises(ConfigurationError):
            trajectory_baselines(data, train_window=0)


def edge_forecast_cohort():
    """Three features, train window 3 (bins 0-2 train, 3+ held out): a
    missing cell inside the window, a patient without a training value of
    x1, a feature (x2) no patient observes in the window, a horizon that
    ends before the window, patients with exactly 1 and exactly 2 training
    values of x0 (the linear and quadratic fallbacks), steep lines the
    training range clips, and a held-out actual of 0, which MAPE skips."""
    nan = np.nan
    cohort = {
        "gap": [[1.0, 2.0, nan], [nan, 2.5, nan], [3.0, 3.5, nan],
                [4.0, 4.0, 1.0], [5.5, nan, 2.0], [7.0, 5.0, 0.0]],
        "no_x1_train": [[2.0, nan, nan], [2.5, nan, nan], [2.0, nan, nan],
                        [1.5, 6.0, 3.0], [1.0, 0.0, nan]],
        "short": [[0.5, 1.0, nan], [0.7, 1.2, nan]],
        "one_point": [[3.0, 1.0, nan], [nan, 1.5, nan], [nan, 2.0, nan],
                      [9.0, nan, 4.0], [-2.0, 3.0, nan], [4.0, 3.5, 5.0]],
        "two_points": [[-1.0, 0.0, nan], [nan, 0.5, nan], [8.0, -3.0, nan],
                       [2.0, 2.0, nan], [3.0, nan, 1.5]],
        "steep": [[0.0, 9.0, nan], [4.0, 6.0, nan], [9.0, 2.0, nan],
                  [12.0, 1.0, 2.5], [20.0, -4.0, nan], [30.0, -9.0, 1.0]],
    }
    patients = [make_patient(pid, i % 2, np.ones(len(f), dtype=np.int8), f)
                for i, (pid, f) in enumerate(cohort.items())]
    return Dataset(patients, 2, 3, 1.0)


class TestOnePassMatchesReference:
    """The one-pass forecasts and the table scores equal, bit for bit, the
    per-method forecast and the labelled MAPE they replaced."""

    @pytest.mark.parametrize("window", [1, 2, 3, 8])
    def test_small_sim_rows(self, small_sim, window):
        data, _ = small_sim
        rows = trajectory_baselines(data, window)
        assert list(rows) == list(baselines.TRAJECTORY_METHODS)
        for method, got in rows.items():
            assert got == reference_trajectory_baselines(data, window, method)

    def test_edge_cohort_rows(self):
        data = edge_forecast_cohort()
        rows = trajectory_baselines(data, 3)
        for method, got in rows.items():
            assert got == reference_trajectory_baselines(data, 3, method)
        # each (patient, feature)'s prediction at its last held-out bin
        lin, quad, latest = ({(r[0], r[2]): r[3] for r in rows[m]}
                             for m in baselines.TRAJECTORY_METHODS)
        pop_x0 = np.mean([1.0, 3.0, 2.0, 2.5, 2.0, 0.5, 0.7, 3.0, -1.0, 8.0,
                          0.0, 4.0, 9.0])
        pop_x1 = np.mean([2.0, 2.5, 3.5, 1.0, 1.2, 1.0, 1.5, 2.0, 0.0, 0.5,
                          -3.0, 9.0, 6.0, 2.0])
        # 1 training value: both curves fall back, latest takes it
        assert lin["one_point", 0] == pytest.approx(pop_x0)
        assert quad["one_point", 0] == pytest.approx(pop_x0)
        assert latest["one_point", 0] == 3.0
        # 2 training values: a line, no parabola
        assert quad["two_points", 0] == pytest.approx(pop_x0)
        assert lin["two_points", 0] != pytest.approx(pop_x0)
        # no training value of the patient's x1: every method falls back
        for by_pair in (lin, quad, latest):
            assert by_pair["no_x1_train", 1] == pytest.approx(pop_x1)
        # no patient has x2 in the window, so its population mean is 0
        assert {r[3] for m in rows.values() for r in m if r[2] == 2} == {0.0}
        # steep lines end at the training range
        assert (lin["steep", 0], lin["steep", 1]) == (9.0, -3.0)
        assert all(r[0] != "short" for r in rows["latest"])

    @pytest.mark.parametrize("subset", [[0, 1], [1, 0]])
    @pytest.mark.parametrize("cohort", ["small_sim", "edge"])
    def test_table_scores(self, small_sim, subset, cohort):
        data = small_sim[0] if cohort == "small_sim" else edge_forecast_cohort()
        window = 8 if cohort == "small_sim" else 3
        pred = prediction_table(data, window, feature_subset=subset)
        for method, row in pred.items():
            ref = reference_trajectory_baselines(data, window, method)
            feat, p, a = (np.array([r[i] for r in ref]) for i in (2, 3, 4))
            assert row == {"mape_all": reference_mape(p, a, feat),
                           "mape_informative": reference_mape(
                               p, a, feat, feature_subset=subset),
                           "n_predictions": len(ref)}
        d = data.n_features
        recon = reconstruction_table(data, feature_subset=subset)
        Xv = visit_matrix(data)
        Xp = Xv.reshape(-1, 3 * d)
        for label, X, k, fitter, rebuild in (
                ("pca_visit", Xv, 1, pca_fit, pca_reconstruct),
                ("fa_visit", Xv, 1, fa_fit, fa_reconstruct),
                ("pca_patient", Xp, 2, pca_fit, pca_reconstruct),
                ("fa_patient", Xp, 2, fa_fit, fa_reconstruct)):
            R = rebuild(X, fitter(X, k))
            feats = np.tile(np.arange(X.shape[1]) % d, (X.shape[0], 1))
            assert recon[label] == {
                "mape_all": reference_mape(R, X, feats),
                "mape_informative": reference_mape(R, X, feats,
                                                   feature_subset=subset)}


class TestMape:
    def test_perfect_prediction(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_uniform_relative_error(self):
        actual = np.array([1.0, -2.0, 4.0])
        assert mape(1.1 * actual, actual) == pytest.approx(10.0, rel=1e-12)

    def test_hand_loop_oracle(self):
        pred = np.array([1.0, 2.0, -3.0, 0.5])
        act = np.array([2.0, 2.5, -2.0, 1.0])
        expect = np.mean([abs(1 - 2) / 2, abs(2 - 2.5) / 2.5,
                          abs(-3 + 2) / 2, abs(0.5 - 1) / 1]) * 100
        assert mape(pred, act) == pytest.approx(expect, rel=1e-12)

    def test_zero_actuals_excluded(self):
        # only the cell with a nonzero actual is scored: |5 - 4| / 4
        assert mape([1.0, 5.0], [0.0, 4.0]) == pytest.approx(25.0)

    def test_no_scorable_cells(self):
        assert mape([1.0], [0.0]) is None

    @given(st.lists(st.floats(min_value=0.5, max_value=50), min_size=1,
                    max_size=30),
           st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, actual, rel):
        actual = np.asarray(actual)
        pred = actual * (1 + rel)
        assert mape(pred, actual) == pytest.approx(abs(rel) * 100, rel=1e-9,
                                                   abs=1e-9)


class TestComparisonTables:
    def test_visit_level_pca_near_zero_noise(self):
        """Data from a one-factor emission with vanishing noise is rank one
        per visit, so one-component reconstruction is near exact."""
        from dispro import SimConfig, simulate_dataset
        from dispro.priors import Normal
        from dispro import GroupParams, SharedParams

        cfg = SimConfig(n_patients=60, n_bins=8, bin_width=0.125, seed=44)
        shared = SharedParams(loadings=[1.0, 2.0, -1.5, 0.7],
                              feat_intercepts=[5.0, -4.0, 3.0, 8.0],
                              noise_vars=[1e-10] * 4,
                              visit_intercept=3.0, visit_severity=0.2)
        groups = [GroupParams(0.0, 1.0, 0.5, 0.3, 0.0),
                  GroupParams(1.0, 1.0, 0.5, 0.3, 0.0)]
        data, _ = simulate_dataset(cfg, params=(shared, groups))
        X = visit_matrix(data)
        R = pca_reconstruct(X, pca_fit(X, 1))
        assert mape(R, X) < 0.1

    def test_tables_have_expected_shape(self, small_sim):
        data, _ = small_sim
        recon = reconstruction_table(data, feature_subset=[0, 1])
        assert set(recon) == {"pca_visit", "fa_visit", "pca_patient",
                              "fa_patient"}
        for row in recon.values():
            assert "mape_all" in row and "mape_informative" in row
        pred = prediction_table(data, train_window=10, feature_subset=[0, 1])
        assert set(pred) == {"linear", "quadratic", "latest"}

    def test_patient_matrix_concatenates_three_visits(self, small_sim):
        """The visit matrix, one row per patient, holds the features of each
        patient with 3 visits at their first three visits, in order."""
        data, _ = small_sim
        Xp = visit_matrix(data).reshape(-1, 3 * data.n_features)
        np.testing.assert_array_equal(Xp, [
            p.features[p.visit_bins()[:3]].ravel() for p in data.patients
            if p.visit_bins().size >= 3])

    @pytest.mark.parametrize("eligible, code", [(1, 2), (2, 0)])
    def test_baselines_need_two_patients_with_three_visits(
            self, tmp_path, capsys, eligible, code):
        """The patient-level fits need 2 rows, one per patient with 3
        visits: with 1 such patient (and 3 with fewer visits) baselines mode
        ends in a data error, with 2 it runs."""
        from dispro.cli import main
        from dispro.dataio import write_dataset

        rng = np.random.default_rng(6)
        pats = []
        for i in range(eligible + 3):
            visits = np.array([1, 1, 1, 0, 1] if i < eligible
                              else [1, 0, 0, 1, 0])
            feats = np.where(visits[:, None] == 1, rng.normal(size=(5, 2)),
                             np.nan)
            pats.append(make_patient(f"p{i}", i % 2, visits, feats))
        write_dataset(Dataset(pats, 2, 2, 0.25), tmp_path / "dataset.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # EM on 2 rows may not converge
            assert main(["evaluate", "--mode", "baselines", "--dataset",
                         str(tmp_path / "dataset.csv"), "--train-window", "2",
                         "--out", str(tmp_path / "out")]) == code
        if code:
            assert ("data error: baselines need at least 2 patients with 3 "
                    "visits, the dataset has 1") in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
