"""Model-variant structure, high-risk profiling, and the conditional
expectation oracles for the three bias directions."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispro import ProgressionModel, TruthSidecar, simulation_priors
from dispro.ablation import (
    ModelVariant,
    high_risk_profile,
    run_bias_trial,
    underserved_group,
)
from dispro.oracles import (
    GaussianLatent,
    PrecisionError,
    SeverityScenario,
    Theorem,
    VisitScenario,
    mlrp_bias_oracle,
    scenario_grid,
    verify_theorems,
)
from dispro.sampler import SamplerConfig
from dispro.types import ConfigurationError, Dataset

from conftest import truth_bundles


class TestVariants:
    def test_full_has_five_more_params_than_none(self, small_sim):
        data, _ = small_sim
        full = ProgressionModel(data, variant=ModelVariant.FULL)
        none = ProgressionModel(data, variant=ModelVariant.NO_DISPARITIES)
        assert full.n_global - none.n_global == 5

    def test_no_visit_same_emission(self, small_sim):
        from dispro import log_lik_emission

        data, truth = small_sim
        shared, groups, latents = truth_bundles(data, truth)
        # emission does not involve the visit block at all
        ll = log_lik_emission(shared, latents, data)
        assert np.isfinite(ll)
        variant = ModelVariant.NO_VISIT
        assert (variant.group_visits is False and variant.group_init
                and variant.group_rates)

    def test_variant_parameter_sets(self, small_sim):
        data, _ = small_sim
        names = {
            ModelVariant.FULL: {"init_sev_mean[1]", "rate_mean[0]",
                                "rate_mean[1]", "visit_offset[1]"},
            ModelVariant.NO_INITIAL_SEVERITY: {"rate_mean[0]", "rate_mean[1]",
                                               "visit_offset[1]"},
            ModelVariant.NO_RATE: {"init_sev_mean[1]", "rate_mean",
                                   "visit_offset[1]"},
            ModelVariant.NO_VISIT: {"init_sev_mean[1]", "rate_mean[0]",
                                    "rate_mean[1]"},
            ModelVariant.NO_DISPARITIES: {"rate_mean"},
        }
        for variant, expect in names.items():
            model = ProgressionModel(data, variant=variant)
            have = set(model.global_names)
            assert expect <= have
            if variant in (ModelVariant.NO_INITIAL_SEVERITY,
                           ModelVariant.NO_DISPARITIES):
                assert "init_sev_mean[1]" not in have
            if variant in (ModelVariant.NO_VISIT, ModelVariant.NO_DISPARITIES):
                assert "visit_offset[1]" not in have
            if variant in (ModelVariant.NO_RATE, ModelVariant.NO_DISPARITIES):
                assert "rate_mean[0]" not in have

    def test_no_disparities_invariant_under_label_swap(self, small_sim):
        data, truth = small_sim
        priors = simulation_priors()
        variant = ModelVariant.NO_DISPARITIES
        model = ProgressionModel(data, priors, variant)
        shared, groups, latents = truth_bundles(data, truth)
        # blind model: groups all share the pinned latent distributions
        from dispro import GroupParams

        blind = [GroupParams(0.0, 1.0, 0.8, 0.4, 0.0) for _ in range(2)]
        theta = model.unconstrain(model.pack(shared, blind, latents))
        lp = model.log_posterior(theta)

        from conftest import make_patient

        swapped = [make_patient(p.patient_id, 1 - p.group.index, p.visits,
                                p.features) for p in data.patients]
        data2 = Dataset(swapped, data.n_groups, data.n_features,
                        data.bin_width)
        model2 = ProgressionModel(data2, priors, variant)
        theta2 = model2.unconstrain(model2.pack(shared, blind, latents))
        lp2 = model2.log_posterior(theta2)
        assert lp2 == pytest.approx(lp, abs=1e-9)

    def test_variant_names(self):
        assert ModelVariant.from_name("no-rate") is ModelVariant.NO_RATE
        assert ModelVariant.from_name("NONE") is ModelVariant.NO_DISPARITIES
        with pytest.raises(ConfigurationError):
            ModelVariant.from_name("bogus")

    def test_underserved_designation(self):
        truth = TruthSidecar(
            params={"init_sev_mean[0]": 0.0, "init_sev_mean[1]": 1.2,
                    "rate_mean[0]": 0.9, "rate_mean[1]": 0.3,
                    "visit_offset[0]": 0.0, "visit_offset[1]": -0.4},
            latents={})
        assert underserved_group(ModelVariant.FULL, truth) == 1
        assert underserved_group(ModelVariant.NO_INITIAL_SEVERITY, truth) == 1
        assert underserved_group(ModelVariant.NO_RATE, truth) == 0
        assert underserved_group(ModelVariant.NO_VISIT, truth) == 1


def test_bias_trial_scores_one_fit_at_a_time(monkeypatch):
    """A two-variant trial on a tiny cohort returns a bias report and a
    high-risk profile per variant, freeing each fit's draws before the next
    fit starts."""
    import dispro.ablation as ablation

    fit, seen = ablation.fit_model, []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in seen), "a previous fit is alive"
        draws = fit(*args, **kwargs)
        seen.append(weakref.ref(draws))
        return draws

    monkeypatch.setattr(ablation, "fit_model", tracked)
    variants = [ModelVariant.FULL, ModelVariant.NO_VISIT]
    reports, profiles = run_bias_trial(
        3, n_patients=20, n_bins=10, variants=variants,
        config=SamplerConfig(chains=2, warmup=20, draws=20, seed=3,
                             max_leapfrog=31))
    assert len(seen) == 2
    assert list(reports) == list(profiles) == variants
    for variant in variants:
        assert reports[variant].variant is variant
        assert set(reports[variant].group_bias) == {0, 1}
        prof = profiles[variant]
        assert prof.quantile == 0.25 and not prof.degenerate
        assert sum(prof.visits_by_group.values()) == prof.n_total
    assert profiles[variants[0]].visits_by_group == \
        profiles[variants[1]].visits_by_group


class TestHighRiskProfile:
    def test_sort_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        groups = rng.integers(0, 2, size=500)
        prof = high_risk_profile(values, groups, q=0.25)
        order = np.sort(values)
        thr = order[math.ceil(0.75 * 500) - 1]
        flagged = values > thr
        for g in (0, 1):
            m = groups == g
            assert prof.flagged_share_by_group[g] == pytest.approx(
                flagged[m].mean(), abs=1e-15)

    def test_total_flagged_near_quantile(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=1000)  # continuous, ties negligible
        groups = np.zeros(1000, dtype=int)
        prof = high_risk_profile(values, groups, q=0.25)
        assert prof.flagged_total == math.floor(0.25 * 1000)

    def test_shifted_group_dominates(self):
        rng = np.random.default_rng(2)
        v0 = rng.normal(size=400)
        v1 = rng.normal(size=400) + 10.0
        values = np.concatenate([v0, v1])
        groups = np.concatenate([np.zeros(400, int), np.ones(400, int)])
        prof = high_risk_profile(values, groups, q=0.25)
        assert prof.flagged_share_by_group[1] > 0.45
        assert prof.flagged_share_by_group[0] == 0.0

    def test_degenerate_ties(self):
        prof = high_risk_profile(np.ones(50), np.zeros(50, int), q=0.25)
        assert prof.degenerate
        assert prof.flagged_total == 0

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=4, max_size=200),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_threshold_rule_property(self, values, q):
        values = np.asarray(values)
        groups = np.zeros(values.size, dtype=int)
        prof = high_risk_profile(values, groups, q=q)
        if prof.degenerate:
            assert np.all(values == values[0])
            return
        order = np.sort(values)
        rank = max(1, math.ceil((1.0 - q) * values.size))
        assert prof.threshold == order[rank - 1]
        # never flag more than the top-q share allows, up to tie rounding
        assert prof.flagged_total <= values.size - rank


class TestOracles:
    def test_full_grid_holds(self):
        """The whole 160-scenario grid of the three theorems, as
        ``dispro evaluate --mode oracles`` runs it."""
        ok, rows = verify_theorems()
        assert len(rows) == 160
        assert sum(r["holds"] for r in rows) == 160
        assert ok

    def test_theorem2_worked_example(self):
        # population N(0,1), group N(1,1), one unit-noise feature observed 0
        sc = SeverityScenario(shift=1.0, observed=0.0)
        res = mlrp_bias_oracle(Theorem.INITIAL_SEVERITY, sc)
        assert res.e_population == pytest.approx(0.0, abs=1e-8)
        assert res.e_group == pytest.approx(0.5, abs=1e-8)
        assert res.inequality_holds

    def test_conjugate_closed_form(self):
        # normal prior + normal likelihood has an exact posterior mean
        for sc in scenario_grid(Theorem.INITIAL_SEVERITY):
            res = mlrp_bias_oracle(Theorem.INITIAL_SEVERITY, sc)
            m, v, s2 = sc.init.mean, sc.init.sd ** 2, sc.noise_sd ** 2
            pop = m + v * (sc.observed - m) / (v + s2)
            m_g = m + sc.shift
            grp = m_g + v * (sc.observed - m_g) / (v + s2)
            assert res.e_population == pytest.approx(pop, abs=1e-6)
            assert res.e_group == pytest.approx(grp, abs=1e-6)

    def test_rate_theorem_positive_time(self):
        sc = SeverityScenario(shift=1.0, t=0.5, observed=0.3,
                              rate=GaussianLatent(0.5, 1.0))
        res = mlrp_bias_oracle(Theorem.RATE, sc)
        assert res.inequality_holds
        with pytest.raises(ConfigurationError):
            mlrp_bias_oracle(Theorem.RATE,
                             SeverityScenario(shift=1.0, t=0.0))

    def test_rate_theorem_2d_conjugate(self):
        # Z_t = Z0 + R t is normal, so the 1-D quadrature over the severity
        # density has the normal-normal closed form
        for sc in scenario_grid(Theorem.RATE):
            res = mlrp_bias_oracle(Theorem.RATE, sc)
            m = sc.init.mean + sc.rate.mean * sc.t
            v = sc.init.sd ** 2 + sc.t ** 2 * sc.rate.sd ** 2
            s2 = sc.noise_sd ** 2
            pop = m + v * (sc.observed - m) / (v + s2)
            m_g = m + sc.shift * sc.t
            grp = m_g + v * (sc.observed - m_g) / (v + s2)
            assert res.e_population == pytest.approx(pop, abs=1e-6)
            assert res.e_group == pytest.approx(grp, abs=1e-6)

    def test_visit_theorem_both_events(self):
        for event in (1, 0):
            res = mlrp_bias_oracle(Theorem.VISIT_FREQUENCY,
                                   VisitScenario(shift=0.7, event=event))
            assert res.inequality_holds
            assert res.e_group > res.e_population

    def test_no_disparity_no_bias(self):
        res = mlrp_bias_oracle(Theorem.INITIAL_SEVERITY,
                               SeverityScenario(shift=0.0, observed=0.4))
        assert res.e_group == pytest.approx(res.e_population, abs=1e-8)
        assert res.inequality_holds

    def test_antisymmetry(self):
        for theorem, mk in ((Theorem.INITIAL_SEVERITY,
                             lambda s: SeverityScenario(shift=s, observed=0.2)),
                            (Theorem.VISIT_FREQUENCY,
                             lambda s: VisitScenario(shift=s))):
            up = mlrp_bias_oracle(theorem, mk(0.9))
            down = mlrp_bias_oracle(theorem, mk(-0.9))
            assert up.e_group > up.e_population
            assert down.e_group < down.e_population

    def test_grid_includes_both_directions(self):
        grid = scenario_grid(Theorem.INITIAL_SEVERITY)
        assert len(grid) >= 20
        shifts = {sc.shift for sc in grid}
        assert any(s > 0 for s in shifts) and any(s < 0 for s in shifts)

    def test_visit_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            VisitScenario(severity_coef=-1.0)
        with pytest.raises(ConfigurationError):
            VisitScenario(event=2)

    def test_precision_error_is_loud(self):
        sc = SeverityScenario(shift=1.0, observed=0.0)
        with pytest.raises(PrecisionError):
            mlrp_bias_oracle(Theorem.INITIAL_SEVERITY, sc, tol=1e-16)
