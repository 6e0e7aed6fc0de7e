"""The joint density against oracles that do not call it: hand-computed
values, scalar loops over cells and bins, and a 40-digit ``decimal`` sum,
for its emission and visit blocks (``_emission_block`` and
``_visit_block``, read through ``conftest.block_sums``), its prior (read
off the density less the blocks and the log-Jacobian), and the whole
density against the blocks plus ``Prior.logpdf`` terms and a scalar
reimplementation; then its sentinel, parameterizations and determinism."""

import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import dispro
from dispro import (
    Dataset,
    GroupParams,
    InvalidParameterError,
    PatientLatents,
    ProgressionModel,
    SharedParams,
    SimConfig,
    simulate_dataset,
    simulation_priors,
)
from dispro.model import LOG_RATE_CAP, ModelVariant, _visit_block, param_layout
from dispro.priors import Normal, TruncatedNormal
from dispro.types import DatasetIndex

from conftest import (
    EDGE_PATIENTS,
    EDGE_PATIENTS_STEEP,
    block_sums,
    edge_visit_cohort,
    init_from_priors,
    make_patient,
    pinned_group_params,
    single_cell_dataset,
    truth_bundles,
    unit_shared,
)

LOG_2PI = math.log(2.0 * math.pi)


class TestEmission:
    def test_standard_normal_at_mode(self):
        data = single_cell_dataset(0.0)
        ll, _ = block_sums(data, unit_shared(), [PatientLatents(0.0, 0.0)])
        assert ll == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)

    def test_two_sd_residual(self):
        data = single_cell_dataset(2.0)
        ll, _ = block_sums(data, unit_shared(), [PatientLatents(0.0, 0.0)])
        assert ll == pytest.approx(-0.5 * LOG_2PI - 2.0, abs=1e-14)

    def test_brute_force_cell_sum(self, small_sim):
        data, truth = small_sim
        shared, groups, latents = truth_bundles(data, truth)
        ll, _ = block_sums(data, shared, latents, groups)
        # independent scalar loop over every observed cell
        total = 0.0
        for p, lat in zip(data.patients, latents):
            for t in range(p.horizon + 1):
                for j in range(data.n_features):
                    x = p.features[t, j]
                    if not np.isfinite(x):
                        continue
                    sev = lat.init_sev + lat.rate * t * data.bin_width
                    mean = shared.loadings[j] * sev + shared.feat_intercepts[j]
                    v = shared.noise_vars[j]
                    total += (-0.5 * math.log(2 * math.pi * v)
                              - (x - mean) ** 2 / (2 * v))
        assert ll == pytest.approx(total, rel=1e-12)

    def test_missing_cells_contribute_nothing(self):
        pat_full = make_patient("p0", 0, [1, 1], [[1.0, 2.0], [0.5, 1.5]])
        pat_miss = make_patient("p0", 0, [1, 1],
                                [[1.0, np.nan], [0.5, np.nan]])
        d_full = Dataset([pat_full], 1, 2, 1.0)
        d_miss = Dataset([pat_miss], 1, 2, 1.0)
        lat = [PatientLatents(0.3, -0.2)]
        sh = unit_shared(2)
        ll_full, _ = block_sums(d_full, sh, lat)
        ll_miss, _ = block_sums(d_miss, sh, lat)
        # removing the second feature's cells removes exactly their terms
        lost = 0.0
        for t in (0, 1):
            sev = 0.3 - 0.2 * t
            lost += -0.5 * LOG_2PI - (([2.0, 1.5][t]) - sev) ** 2 / 2.0
        assert ll_full - ll_miss == pytest.approx(lost, abs=1e-12)

    def test_invalid_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            SharedParams(loadings=[1.0], feat_intercepts=[0.0],
                         noise_vars=[-1.0], visit_intercept=0.0,
                         visit_severity=0.0)


class TestVisits:
    def make_one_bin(self, d_value):
        feats = [[0.0], [0.0 if d_value else np.nan]]
        pat = make_patient("p0", 0, [1, d_value], feats)
        return Dataset([pat], 1, 1, 1.0)

    def test_no_event_bin(self):
        data = self.make_one_bin(0)
        _, ll = block_sums(data, unit_shared(), [PatientLatents(0.0, 0.0)],
                           [pinned_group_params()])
        assert ll == pytest.approx(-1.0, abs=1e-14)

    def test_event_bin(self):
        data = self.make_one_bin(1)
        _, ll = block_sums(data, unit_shared(), [PatientLatents(0.0, 0.0)],
                           [pinned_group_params()])
        assert ll == pytest.approx(math.log(1.0 - math.exp(-1.0)), abs=1e-12)
        assert ll == pytest.approx(-0.4587, abs=5e-5)

    def test_first_bin_not_modeled(self):
        # bin 0 is conditioned on; only bins 1..T contribute
        pat = make_patient("p0", 0, [1, 0, 1],
                           [[0.0], [np.nan], [0.1]])
        data = Dataset([pat], 1, 1, 1.0)
        _, ll = block_sums(data, unit_shared(), [PatientLatents(0.0, 0.0)],
                           [pinned_group_params()])
        assert ll == pytest.approx(-1.0 + math.log(1 - math.exp(-1.0)), abs=1e-12)

    def test_brute_force_bin_sum(self, small_sim):
        data, truth = small_sim
        shared, groups, latents = truth_bundles(data, truth)
        _, ll = block_sums(data, shared, latents, groups)
        total = 0.0
        for p, lat in zip(data.patients, latents):
            gp = groups[p.group.index]
            for t in range(1, p.horizon + 1):
                sev = lat.init_sev + lat.rate * t * data.bin_width
                lam = math.exp(shared.visit_intercept
                               + shared.visit_severity * sev + gp.visit_offset)
                q = lam * data.bin_width
                total += math.log(1 - math.exp(-q)) if p.visits[t] else -q
        assert ll == pytest.approx(total, rel=1e-10)

    @pytest.mark.parametrize("patients", [EDGE_PATIENTS, EDGE_PATIENTS_STEEP],
                             ids=["edge", "steep"])
    def test_closed_form_matches_bin_loop(self, patients):
        """The closed-form visit log-likelihood and its per-patient
        derivatives A and K in the intercept a and slope c of the log rate,
        against a bin-by-bin ``math.fsum`` loop: a patient with a visit in
        every bin, slopes of exactly 0 and 1e-9, |c| H on either side of
        the mean bin's switch to its series, |c| H = 40 of both signs and
        |c| H = 800, where exp underflows at one end."""
        data, shared, groups, latents = edge_visit_cohort(patients)
        w = data.bin_width
        total, A, K = [], [], []
        for p, lat in zip(data.patients, latents):
            off = groups[p.group.index].visit_offset
            dA, dK = [], []
            for t in range(1, p.horizon + 1):
                sev = lat.init_sev + lat.rate * t * w
                q = w * math.exp(shared.visit_intercept
                                 + shared.visit_severity * sev + off)
                if p.visits[t]:
                    total.append(math.log(-math.expm1(-q)))
                    d = q / math.expm1(q)
                else:
                    total.append(-q)
                    d = -q
                dA.append(d)
                dK.append(t * d)
            A.append(math.fsum(dA))
            K.append(math.fsum(dK))
        _, ll = block_sums(data, shared, latents, groups)
        assert ll == pytest.approx(math.fsum(total), rel=1e-10)

        model = ProgressionModel(data)
        offsets = np.array([g.visit_offset for g in groups])[model.idx.group_of]
        _, got_a, got_k = _visit_block(
            shared.visit_intercept, shared.visit_severity, offsets,
            np.array([la.init_sev for la in latents]),
            np.array([la.rate for la in latents]), model.idx, w,
            want_grad=True)
        assert got_a == pytest.approx(A, rel=1e-10)
        assert got_k == pytest.approx(K, rel=1e-10)

    def test_expected_count_carries_exponent_rounding(self):
        """One exponential stands for all of a patient's bins, so the
        rounding of its exponent ``a + max(c, c H)`` must be compensated:
        with no visits after bin 0, -A_i is exactly the expected count S0_i,
        and over 400 patients with log rates of 15-29 its relative error
        against a 40-digit per-bin sum of the exact rates stays at the level
        of a few roundings: 1.6e-16 RMS here, 1.0e-15 uncompensated.
        The severity coefficient is 1, so ``vsev * sev0`` is exact."""
        rng = np.random.default_rng(0)
        n, w, vint, vsev = 400, 0.02, 1.5, 1.0
        offsets = np.array([0.0, -0.5])
        H = rng.integers(1, 51, size=n)
        g = rng.integers(0, 2, size=n)
        rate = rng.uniform(-5.0, 5.0, size=n)
        c = rate * w
        sev0 = (rng.uniform(15.0 - np.minimum(c, c * H),
                            29.0 - np.maximum(c, c * H)) - vint - offsets[g])
        data = Dataset([make_patient(f"p{i}", g[i], [1] + [0] * h,
                                     [[0.0]] + [[np.nan]] * h)
                        for i, h in enumerate(H.tolist())], 2, 1, w)
        idx = DatasetIndex.build(data)
        _, A, _ = _visit_block(vint, vsev, offsets[idx.group_of], sev0, rate,
                               idx, w, want_grad=True)
        rel = []
        with localcontext() as ctx:
            ctx.prec = 40
            for i in range(n):
                a_i, c_i = (Decimal(vint) + Decimal(vsev) * Decimal(sev0[i])
                            + Decimal(offsets[g[i]]),
                            Decimal(vsev) * Decimal(rate[i]) * Decimal(w))
                s0 = sum(Decimal(w) * (a_i + c_i * k).exp()
                         for k in range(1, int(H[i]) + 1))
                rel.append(float((Decimal(-A[i]) - s0) / s0))
        assert math.sqrt(np.mean(np.square(rel))) < 5e-16

    def test_cap_checked_at_the_far_endpoint(self):
        """Only the last bin's log rate exceeds the cap, the first is far
        below it: the visit block still rejects the point and the density
        ends at the sentinel; just under the cap both are finite."""
        data, shared, groups, latents = edge_visit_cohort()
        i = [p.patient_id for p in data.patients].index("up_40")
        model = ProgressionModel(data)
        for shift, finite in ((LOG_RATE_CAP - 0.5, True),
                              (LOG_RATE_CAP + 0.5, False)):
            bumped = list(latents)
            bumped[i] = PatientLatents(latents[i].init_sev + shift,
                                       latents[i].rate)
            _, ll = block_sums(data, shared, bumped, groups)
            theta = model.unconstrain(model.pack(shared, groups, bumped))
            lp, grad = model.logp_and_grad(theta)
            assert (ll is not None) == np.isfinite(lp) == finite
            if not finite:
                assert lp == -math.inf
                assert np.all(grad == 0.0)


class TestPrior:
    def test_pinned_patient_latent_contribution(self):
        """With one pinned-group patient, the density's prior (the density
        less the two likelihood blocks and the log-Jacobian) decomposes into
        the seven sampled-global prior terms plus the two latent terms; the
        z0 = 0 term is exactly -log sqrt(2 pi)."""
        data = single_cell_dataset(0.0)
        priors = simulation_priors()
        shared = SharedParams([1.0], [0.0], [1.0], 1.5, 0.5)
        gp = pinned_group_params(rate_mean=0.4, rate_sd=0.7)
        model = ProgressionModel(data)

        def prior_at(latent):
            theta = model.unconstrain(model.pack(shared, [gp], [latent]))
            return (model.log_posterior(theta) - model.log_jacobian(theta)
                    - math.fsum(block_sums(data, shared, [latent], [gp])))

        lp = prior_at(PatientLatents(0.0, 0.9))
        globals_part = (priors.loading0.logpdf(1.0)
                        + priors.feat_intercept.logpdf(0.0)
                        + priors.noise_var.logpdf(1.0)
                        + priors.visit_intercept.logpdf(1.5)
                        + priors.visit_severity.logpdf(0.5)
                        + priors.rate_mean.logpdf(0.4)
                        + priors.rate_sd.logpdf(0.7))
        z0_term = lp - globals_part - Normal(0.4, 0.7).logpdf(0.9)
        assert z0_term == pytest.approx(-0.5 * LOG_2PI, abs=1e-10)
        # shifting z0 moves the prior by the unit-normal density difference
        lp1 = prior_at(PatientLatents(1.0, 0.9))
        assert lp - lp1 == pytest.approx(0.5, abs=1e-12)

    def test_normal_prior_closed_form(self):
        p = Normal(0.0, 4.0)
        assert p.logpdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi * 16),
                                              abs=1e-14)

    def test_truncated_normal_vs_quadrature(self):
        from scipy.integrate import quad

        p = TruncatedNormal(1.0, 0.1, 0.0)
        # quadrature oracle: normalize the untruncated density over (0, inf)
        norm, err = quad(lambda x: math.exp(Normal(1.0, 0.1).logpdf(x)),
                         0.0, 3.0, epsabs=1e-12)
        assert err < 1e-10
        expect = Normal(1.0, 0.1).logpdf(1.0) - math.log(norm)
        assert p.logpdf(1.0) == pytest.approx(expect, abs=1e-9)
        # and equals the stated closed form: untruncated minus log Phi(10)
        from scipy.special import log_ndtr
        assert p.logpdf(1.0) == pytest.approx(
            Normal(1.0, 0.1).logpdf(1.0) - float(log_ndtr(10.0)), abs=1e-14)

    def test_sigma_validation(self):
        from dispro import ConfigurationError

        with pytest.raises(ConfigurationError):
            Normal(0.0, -1.0)
        with pytest.raises(ConfigurationError):
            TruncatedNormal(0.0, 0.0, 0.0)


class TestLogPosterior:
    def test_composition_identity(self, small_sim):
        data, truth = small_sim
        priors = simulation_priors()
        shared, groups, latents = truth_bundles(data, truth)
        model = ProgressionModel(data)
        x = model.pack(shared, groups, latents)
        theta = model.unconstrain(x)
        lp = model.log_posterior(theta)
        rows, _ = param_layout(data.n_features, data.n_groups,
                               data.pinned_group, ModelVariant.FULL)
        assert [name for name, _, _ in rows] == [e.name for e in model.entries]
        global_priors = [priors.for_role(role).logpdf(v)
                         for (_, role, _), v in zip(rows, x)]
        latent_priors = []
        for p, la in zip(data.patients, latents):
            g = groups[p.group.index]
            latent_priors += [Normal(g.init_sev_mean, g.init_sev_sd).logpdf(
                la.init_sev), Normal(g.rate_mean, g.rate_sd).logpdf(la.rate)]
        parts = (math.fsum(block_sums(data, shared, latents, groups))
                 + math.fsum(global_priors) + math.fsum(latent_priors)
                 + model.log_jacobian(theta))
        assert lp == pytest.approx(parts, rel=1e-12, abs=1e-9)

    def test_patient_permutation_invariance(self, small_sim):
        data, truth = small_sim
        model = ProgressionModel(data)
        shared, groups, latents = truth_bundles(data, truth)
        theta = model.unconstrain(model.pack(shared, groups, latents))
        lp = model.log_posterior(theta)

        order = np.random.default_rng(5).permutation(len(data.patients))
        data2 = Dataset([data.patients[i] for i in order], data.n_groups,
                        data.n_features, data.bin_width)
        model2 = ProgressionModel(data2)
        lat2 = [latents[i] for i in order]
        theta2 = model2.unconstrain(model2.pack(shared, groups, lat2))
        lp2 = model2.log_posterior(theta2)
        assert abs(lp - lp2) < 1e-10 * max(1.0, abs(lp))

    def test_straight_line_reimplementation(self):
        """Fully independent scalar reimplementation on a 2-patient dataset."""
        pats = [
            make_patient("a", 0, [1, 1, 0],
                         [[0.5, np.nan], [0.2, 1.0], [np.nan, np.nan]]),
            make_patient("b", 1, [1, 0, 1],
                         [[-0.3, 0.4], [np.nan, np.nan], [0.9, np.nan]]),
        ]
        data = Dataset(pats, 2, 2, 0.5)
        shared = SharedParams([1.2, -0.7], [0.1, -0.2], [0.8, 1.5], 0.4, 0.3)
        groups = [GroupParams(0.0, 1.0, 0.6, 0.5, 0.0),
                  GroupParams(0.8, 1.1, 0.9, 0.4, -0.3)]
        lats = [PatientLatents(0.2, 0.7), PatientLatents(-0.4, 1.2)]
        model = ProgressionModel(data)
        theta = model.unconstrain(model.pack(shared, groups, lats))
        lp = model.log_posterior(theta)

        def norm_lpdf(x, mu, sd):
            return -0.5 * math.log(2 * math.pi * sd * sd) \
                - (x - mu) ** 2 / (2 * sd * sd)

        def tn_lpdf(x, mu, sd, lo):
            from scipy.stats import norm as scipy_norm
            return norm_lpdf(x, mu, sd) - math.log(scipy_norm.sf(lo, mu, sd))

        ref = 0.0
        # emission, cell by cell
        for pat, lat in zip(pats, lats):
            for t in range(3):
                for j in range(2):
                    xv = pat.features[t, j]
                    if not np.isfinite(xv):
                        continue
                    sev = lat.init_sev + lat.rate * t * 0.5
                    ref += norm_lpdf(xv, shared.loadings[j] * sev
                                     + shared.feat_intercepts[j],
                                     math.sqrt(shared.noise_vars[j]))
        # visits, bins 1..2
        for pat, lat in zip(pats, lats):
            gp = groups[pat.group.index]
            for t in (1, 2):
                sev = lat.init_sev + lat.rate * t * 0.5
                lam = math.exp(0.4 + 0.3 * sev + gp.visit_offset)
                q = lam * 0.5
                ref += math.log(1 - math.exp(-q)) if pat.visits[t] else -q
        # priors on sampled globals (simulation priors)
        ref += tn_lpdf(1.2, 1.0, 1.0, 0.5)            # first loading
        ref += norm_lpdf(-0.7, 0.0, 2.0)              # second loading
        ref += norm_lpdf(0.1, 0.0, 1.0) + norm_lpdf(-0.2, 0.0, 1.0)
        ref += tn_lpdf(0.8, 5.0, 1.0, 0.0) + tn_lpdf(1.5, 5.0, 1.0, 0.0)
        ref += norm_lpdf(0.4, 1.5, 0.1)               # visit intercept
        ref += tn_lpdf(0.3, 0.5, 0.1, 0.1)            # visit severity
        ref += norm_lpdf(0.8, 0.0, 4.0) + tn_lpdf(1.1, 1.0, 0.1, 0.0)
        ref += norm_lpdf(-0.3, 0.0, 2.0)              # group visit offset
        for g in (0, 1):
            ref += norm_lpdf(groups[g].rate_mean, 1.0, 4.0)
            ref += tn_lpdf(groups[g].rate_sd, 0.1, 0.4, 0.0)
        # latent priors
        ref += norm_lpdf(0.2, 0.0, 1.0) + norm_lpdf(0.7, 0.6, 0.5)
        ref += norm_lpdf(-0.4, 0.8, 1.1) + norm_lpdf(1.2, 0.9, 0.4)
        # Jacobian of the log transforms
        for name, val, lo in (("loading0", 1.2, 0.5), ("nv0", 0.8, 0.0),
                              ("nv1", 1.5, 0.0), ("vsev", 0.3, 0.1),
                              ("sd1", 1.1, 0.0), ("rsd0", 0.5, 0.0),
                              ("rsd1", 0.4, 0.0)):
            ref += math.log(val - lo)
        assert lp == pytest.approx(ref, abs=1e-10)

    def test_overflow_sentinel(self, small_sim):
        data, truth = small_sim
        model = ProgressionModel(data)
        shared, groups, latents = truth_bundles(data, truth)
        x = model.pack(shared, groups, latents)
        x[model.names.index("visit_intercept")] = LOG_RATE_CAP + 5.0
        theta = model.unconstrain(x)
        lp, grad = model.logp_and_grad(theta)
        assert lp == -math.inf
        assert np.all(grad == 0.0)

    def test_nonfinite_theta_rejected(self, small_sim):
        data, _ = small_sim
        model = ProgressionModel(data)
        theta = np.zeros(model.dim)
        theta[0] = np.nan
        with pytest.raises(InvalidParameterError):
            model.log_posterior(theta)

    @pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
    def test_noncentered_change_of_variables(self, small_sim, variant):
        """The non-centered density is the centered one at the same
        constrained point plus log|dz/du| of the latent map z = m + s * u,
        i.e. the sum over patients of log s for both latents, in every
        variant (pinned, per-group and shared sds)."""
        data, _ = small_sim
        model = ProgressionModel(data, variant)
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta_nc = init_from_priors(model, rng, non_centered=True)
            x = model.constrain_noncentered(theta_nc)
            theta_c = model.unconstrain(x)
            val = dict(zip(model.names, x))
            log_s = 0.0
            for p in data.patients:
                g = p.group.index
                log_s += math.log(val.get(f"init_sev_sd[{g}]", 1.0))
                log_s += math.log(val.get(f"rate_sd[{g}]", val.get("rate_sd")))
            lp_nc = model.logp_and_grad_noncentered(theta_nc)[0]
            lp_c = model.logp_and_grad(theta_c)[0]
            assert np.isfinite(lp_nc)
            assert lp_nc == pytest.approx(lp_c + log_s, rel=1e-12)

    def test_underflowing_scales_rejected_without_warnings(self):
        """A noise variance or group sd that underflows to 0 ends at the
        sentinel in both parameterizations, and no floating-point warning
        escapes on the way."""
        data, _ = simulate_dataset(SimConfig(n_patients=50, seed=7))
        model = ProgressionModel(data)
        scales = [i for i, n in enumerate(model.names[:model.n_global])
                  if n.startswith(("noise_var[", "init_sev_sd[", "rate_sd["))]
        assert len(scales) == 7
        rng = np.random.default_rng(0)
        for non_centered, fn in ((False, model.logp_and_grad),
                                 (True, model.logp_and_grad_noncentered)):
            start = init_from_priors(model, rng, non_centered=non_centered)
            assert np.isfinite(fn(start)[0])
            for i in scales:
                theta = start.copy()
                theta[i] = -800.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for want_grad in (True, False):
                        lp, grad = fn(theta, want_grad=want_grad)
                        assert lp == -math.inf
                        assert grad is None or np.all(grad == 0.0)

    def test_density_independent_of_blas_threads(self):
        """Identical log-densities, to the last digit, whatever the BLAS
        thread count: a 1000-patient cohort at 20 jittered non-centered
        starts, evaluated in one process per thread count."""
        probe = (
            "import numpy as np\n"
            "from dispro import ProgressionModel, SimConfig, simulate_dataset\n"
            "from dispro.fitting import jittered_init, rough_init\n"
            "data, _ = simulate_dataset(SimConfig(n_patients=1000, n_bins=50,"
            " seed=7))\n"
            "model = ProgressionModel(data)\n"
            "center = rough_init(model, data)\n"
            "rng = np.random.default_rng(0)\n"
            "for _ in range(20):\n"
            "    theta = jittered_init(model, center, rng, non_centered=True)\n"
            "    print(repr(model.logp_and_grad_noncentered(theta)[0]))\n")
        src = str(Path(dispro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, check=True)
            outs.append(run.stdout.split())
        assert len(outs[0]) == 20
        assert outs[0] == outs[1]

    def test_zero_visit_coef_decouples_latents(self, small_sim):
        """With the severity coefficient at zero, the visit likelihood is
        exactly invariant in every latent, i.e. its latent gradient is 0."""
        data, truth = small_sim
        shared, groups, latents = truth_bundles(data, truth)
        shared.visit_severity = 0.0
        _, base = block_sums(data, shared, latents, groups)
        rng = np.random.default_rng(8)
        for _ in range(5):
            i = int(rng.integers(len(latents)))
            bumped = list(latents)
            bumped[i] = PatientLatents(latents[i].init_sev + rng.normal(),
                                       latents[i].rate + rng.normal())
            assert block_sums(data, shared, bumped, groups)[1] == base
