"""Workload definitions and the model facts the benchmark re-derives on its own.

Everything here is plain data: cohort configs, `dispro` command lines, the
canonical parameter layout and the simulation priors. The checks use the
layout and priors to recompute program outputs without calling the program.
"""

from __future__ import annotations

import math

# Cohorts are fixed; --seed drives the fit (fit workloads) or the synthetic
# draws and density points (evaluate-n300). A simulated cohort's size swings
# tenfold with its seed (its visit offsets are drawn from a wide prior: at
# 1000 patients, seeds 1-20 give 11,536 to 112,640 observed cells), and the
# density's cost with it. Seed 20 gives ~15 observed cells per patient at
# either size; seed 2025 is the demo-02 cohort.
DRAWS_SEED_OFFSET = 20011  # synthetic posterior draws of evaluate-n300

FIT150 = {
    "cohort": {"n_patients": 150, "n_bins": 40, "bin_width": 0.025,
               "seed": 2025},
    "chains": 2, "warmup": 100, "draws": 100, "threads": 2,
    # At the default cap of 1023 steps a fit costs 26k-36k density calls,
    # but about one fit seed in twenty (seed 19) sends a chain's trees to
    # the cap and costs 142k: longer than a traced run may take.
    "max_leapfrog": 128,
}
PILOT1000 = {
    "cohort": {"n_patients": 1000, "n_bins": 50, "bin_width": 0.02,
               "seed": 20},
    "chains": 2, "warmup": 20, "draws": 20, "threads": 1,
    "max_leapfrog": 32,
    # One BLAS thread: the second one spins on a 2-core machine, doubles the
    # CPU time for no speed and widens the run-to-run spread (README).
    "env": {"OPENBLAS_NUM_THREADS": "1"},
}
EVAL300 = {
    "cohort": {"n_patients": 300, "n_bins": 50, "bin_width": 0.02,
               "seed": 20},
    "recovery_cohort": {"n_patients": 300, "n_bins": 50, "bin_width": 0.02,
                        "seed": 15},
    "chains": 4, "draws": 1000,
    "years_per_unit": 8.5, "train_window": 25, "informative": "0,1",
    "density_points": 2000,
}

WORKLOADS = ("fit-n150", "pilot-n1000", "evaluate-n300")

VARIANTS = {  # name -> (group_init, group_rates, group_visits)
    "full": (True, True, True),
    "no_initial_severity": (False, True, True),
    "no_rate": (True, False, True),
    "no_visit": (True, True, False),
    "no_disparities": (False, False, False),
}


def cohort_config(workload: str) -> dict:
    """The `dispro simulate` config of a workload's main cohort."""
    return dict({"fit-n150": FIT150, "pilot-n1000": PILOT1000,
                 "evaluate-n300": EVAL300}[workload]["cohort"])


def worker_env(workload: str) -> dict:
    """Environment variables the workload's processes run with, beyond the
    user's own."""
    return dict(PILOT1000["env"]) if workload == "pilot-n1000" else {}


def fit_spec(workload: str) -> dict:
    return FIT150 if workload == "fit-n150" else PILOT1000


def fit_argv(workload: str, seed: int, dataset: str, out: str) -> list[str]:
    f = fit_spec(workload)
    argv = ["fit", "--dataset", dataset, "--out", out,
            "--chains", str(f["chains"]), "--warmup", str(f["warmup"]),
            "--draws", str(f["draws"]), "--seed", str(seed),
            "--threads", str(f["threads"]),
            "--max-leapfrog", str(f["max_leapfrog"]), "--allow-nonconverged"]
    return argv


# -- the simulation priors, copied as data: role -> (mu, sigma, lower) -------

PRIORS = {
    "loading0": (1.0, 1.0, 0.5),
    "loading": (0.0, 2.0, None),
    "feat_intercept": (0.0, 1.0, None),
    "noise_var": (5.0, 1.0, 0.0),
    "visit_intercept": (1.5, 0.1, None),
    "visit_severity": (0.5, 0.1, 0.1),
    "init_sev_mean": (0.0, 4.0, None),
    "init_sev_sd": (1.0, 0.1, 0.0),
    "rate_mean": (1.0, 4.0, None),
    "rate_sd": (0.1, 0.4, 0.0),
    "visit_offset": (0.0, 2.0, None),
}
STRUCTURAL_LOWER = {"loading0": 0.0, "noise_var": 0.0, "init_sev_sd": 0.0,
                    "rate_sd": 0.0}


def role_of(name: str) -> str:
    base = name.split("[")[0]
    if base == "loading":
        return "loading0" if name == "loading[0]" else "loading"
    return base


def lower_bound(name: str):
    role = role_of(name)
    lower = PRIORS[role][2]
    return lower if lower is not None else STRUCTURAL_LOWER.get(role)


def log_prior(name: str, x: float) -> float:
    """Log-density of one global under its simulation prior, including the
    truncation normalizer -log P(X > lower)."""
    mu, sigma, lower = PRIORS[role_of(name)]
    z = (x - mu) / sigma
    lp = -0.5 * math.log(2.0 * math.pi) - math.log(sigma) - 0.5 * z * z
    if lower is not None:
        lp -= math.log(0.5 * math.erfc(-((mu - lower) / sigma) / math.sqrt(2.0)))
    return lp


def global_names(variant: str, n_features: int, n_groups: int,
                 pinned: int) -> list[str]:
    """Canonical global parameter order for a model variant (README,
    "Canonical parameter ordering")."""
    group_init, group_rates, group_visits = VARIANTS[variant]
    names = [f"loading[{j}]" for j in range(n_features)]
    names += [f"feat_intercept[{j}]" for j in range(n_features)]
    names += [f"noise_var[{j}]" for j in range(n_features)]
    names += ["visit_intercept", "visit_severity"]
    if not group_rates:
        names += ["rate_mean", "rate_sd"]
    for g in range(n_groups):
        if group_init and g != pinned:
            names += [f"init_sev_mean[{g}]", f"init_sev_sd[{g}]"]
        if group_rates:
            names += [f"rate_mean[{g}]", f"rate_sd[{g}]"]
        if group_visits and g != pinned:
            names.append(f"visit_offset[{g}]")
    return names


def latent_names(patient_ids) -> list[str]:
    out = []
    for pid in patient_ids:
        out += [f"init_sev[{pid}]", f"rate[{pid}]"]
    return out


def pinned_names(pinned: int) -> list[str]:
    """Parameters fixed by the identifiability pins: never a draws column."""
    return [f"init_sev_mean[{pinned}]", f"init_sev_sd[{pinned}]",
            f"visit_offset[{pinned}]"]


# -- metrics: name -> (unit, better) ----------------------------------------------

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "grad_evals_per_s": ("1/s", "higher"),
}
PER_LAYER = {
    "model.grad_calls": ("count", "lower"),
    "model.grad_us_p50": ("us", "lower"),
    "model.grad_us_p99": ("us", "lower"),
    "model.nc_grad_us": ("us", "lower"),
    "model.nc_value_us": ("us", "lower"),
    "model.c_grad_us": ("us", "lower"),
    "model.c_value_us": ("us", "lower"),
    "model.rejected_calls": ("count", "lower"),
    "model.page_faults_per_call": ("count", "lower"),
    "model.build_s": ("s", "lower"),
    "model.constrain_s": ("s", "lower"),
    "sampler.sample_s": ("s", "lower"),
    "sampler.overhead_us_per_leapfrog": ("us", "lower"),
    "sampler.leapfrogs_per_iter": ("count", "lower"),
    "sampler.min_ess": ("count", "higher"),
    "sampler.ess_per_kgrad": ("count", "higher"),
    "sampler.max_rhat": ("ratio", "lower"),
    "sampler.diagnostics_s": ("s", "lower"),
    "fitting.init_s": ("s", "lower"),
    "fitting.convergence_s": ("s", "lower"),
    "dataio.read_dataset_s": ("s", "lower"),
    "dataio.write_draws_s": ("s", "lower"),
    "dataio.write_draws_mb_per_s": ("MB/s", "higher"),
    "dataio.read_draws_s": ("s", "lower"),
    "dataio.read_draws_mb_per_s": ("MB/s", "higher"),
    "inference.recovery_s": ("s", "lower"),
    "inference.disparity_s": ("s", "lower"),
    "ablation.bias_s": ("s", "lower"),
    "baselines.reconstruction_s": ("s", "lower"),
    "baselines.prediction_s": ("s", "lower"),
    "baselines.fa_iterations": ("count", "lower"),
    "oracles.verify_s": ("s", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "simulate.cohort_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in (
        "cli", "dataio", "model", "sampler", "fitting", "inference",
        "ablation", "baselines", "oracles", "svgplot")},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
