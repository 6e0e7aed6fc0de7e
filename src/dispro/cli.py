"""Command-line pipeline: simulate -> fit -> evaluate -> report.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 non-convergence, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import (
    bias_report,
    high_risk_profile,
    visit_severity_estimates,
)
from .baselines import prediction_table, reconstruction_table
from .dataio import (
    _is_int,
    _is_number,
    read_dataset,
    read_draws,
    read_truth,
    write_dataset,
    write_draws,
    write_json,
    write_manifest,
    write_table,
    write_truth,
)
from .fitting import convergence_summary, fit_model
from .inference import disparity_summary, recovery_report
from .model import ModelVariant, latent_names
from .oracles import verify_theorems
from .priors import (
    ROLES,
    factor_seeded_priors,
    prior_from_dict,
    simulation_priors,
    weakly_informative_priors,
)
from .sampler import SamplerConfig
from .simulate import SimConfig, simulate_dataset
from .svgplot import svg_scatter
from .types import ConfigurationError, DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONVERGENCE = 3
EXIT_ORACLE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dispro", description=__doc__)
    p.add_argument("--version", action="version", version=f"dispro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a synthetic cohort")
    ps.add_argument("--config", required=True, help="JSON config file")
    ps.add_argument("--out", required=True)
    ps.add_argument("--seed", type=int, default=None, help="override config seed")

    pf = sub.add_parser("fit", help="fit a model variant by NUTS")
    pf.add_argument("--dataset", required=True)
    pf.add_argument("--out", required=True)
    pf.add_argument("--variant", default="full",
                    help="full | no_initial_severity | no_rate | no_visit | no_disparities")
    pf.add_argument("--priors", default="simulation",
                    choices=["simulation", "weak", "weak-fa"])
    pf.add_argument("--chains", type=int, default=4)
    pf.add_argument("--warmup", type=int, default=500)
    pf.add_argument("--draws", type=int, default=1000)
    pf.add_argument("--target-accept", type=float, default=0.8)
    pf.add_argument("--max-leapfrog", type=int, default=1024)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--threads", type=int, default=1,
                    help="ignored: chains run one after another")
    pf.add_argument("--allow-nonconverged", action="store_true")
    pf.add_argument("--rhat-threshold", type=float, default=1.1)

    pe = sub.add_parser("evaluate", help="post-process fits into reports")
    pe.add_argument("--mode", required=True,
                    choices=["recovery", "bias", "baselines", "oracles", "disparity"])
    pe.add_argument("--out", required=True)
    pe.add_argument("--fit", action="append", default=[],
                    help="fit output directory (repeatable)")
    pe.add_argument("--truth", action="append", default=[],
                    help="truth sidecar path (repeatable, matched to --fit)")
    pe.add_argument("--dataset", default=None)
    pe.add_argument("--years-per-unit", type=float, default=None)
    pe.add_argument("--quantile", type=float, default=0.25)
    pe.add_argument("--train-window", type=int, default=None)
    pe.add_argument("--informative", default=None,
                    help="comma-separated informative feature indices")
    pe.add_argument("--tol", type=float, default=1e-6)
    pe.add_argument("--seed", type=int, default=0)

    pr = sub.add_parser("report", help="render a text report from an output dir")
    pr.add_argument("--in", dest="in_dir", required=True)
    return p


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_TYPES = {
    **dict.fromkeys(("n_patients", "n_features", "n_bins", "n_groups", "seed"),
                    _is_int),
    **dict.fromkeys(("bin_width", "group_probability"), _is_number),
    "group_specific_rates": lambda v: isinstance(v, bool),
}


def _sim_config_from_json(text: str, seed_override) -> SimConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ConfigurationError("simulate config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(SimConfig)}
    if unknown:
        raise ConfigurationError(f"unknown simulate config keys: {sorted(unknown)}")
    priors = None
    if "priors" in doc:
        roles = doc.pop("priors")
        if not (isinstance(roles, dict) and set(roles) <= set(ROLES)):
            raise ConfigurationError(
                f"simulate config priors must be an object keyed by {ROLES}")
        priors = simulation_priors().replace(
            **{role: prior_from_dict(cfg) for role, cfg in roles.items()})
    if seed_override is not None:
        doc["seed"] = seed_override
    wrong = sorted(k for k, v in doc.items() if not _SIM_TYPES[k](v))
    if wrong:
        raise ConfigurationError(f"simulate config keys of the wrong type: {wrong}")
    return SimConfig(priors=priors, **doc)


def _cmd_simulate(args) -> int:
    config_text = Path(args.config).read_text()
    cfg = _sim_config_from_json(config_text, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, truth = simulate_dataset(cfg)
    write_dataset(data, out / "dataset.csv")
    write_truth(truth, out / "truth.json")
    write_manifest(out, "simulate", {"config": str(args.config)}, cfg.seed,
                   inputs={"config": args.config}, config_text=config_text,
                   outputs=["dataset.csv", "dataset.csv.meta.json", "truth.json"])
    print(f"wrote {data.n_patients} patients to {out / 'dataset.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    if args.chains < 2 or args.draws < 4:
        raise ConfigurationError(
            "R-hat needs --chains >= 2 and --draws >= 4")
    data = read_dataset(args.dataset)
    variant = ModelVariant.from_name(args.variant)
    if args.priors == "simulation":
        priors = simulation_priors()
    elif args.priors == "weak":
        priors = weakly_informative_priors()
    else:
        priors = factor_seeded_priors(data)
    config = SamplerConfig(chains=args.chains, warmup=args.warmup,
                           draws=args.draws, target_accept=args.target_accept,
                           max_leapfrog=args.max_leapfrog, seed=args.seed)
    draws = fit_model(data, priors=priors, variant=variant, config=config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_draws(draws, out / "draws.csv")
    diag = convergence_summary(draws)
    write_json(diag, out / "diagnostics.json")
    write_manifest(out, "fit",
                   {"dataset": args.dataset, "variant": args.variant,
                    "priors": args.priors, "chains": args.chains,
                    "warmup": args.warmup, "draws": args.draws,
                    "target_accept": args.target_accept,
                    "max_leapfrog": args.max_leapfrog,
                    "threads": args.threads},
                   args.seed, inputs={"dataset": args.dataset},
                   outputs=["draws.csv", "fit_meta.json", "diagnostics.json"])
    worst = diag["max_global_rhat"]
    print(f"fit {args.variant}: max global R-hat {worst:.4f}, "
          f"{diag['divergences']['fraction']:.2%} divergent")
    if worst > args.rhat_threshold and not args.allow_nonconverged:
        print(f"non-converged (R-hat > {args.rhat_threshold}); "
              "rerun with more warmup or --allow-nonconverged", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _check_latents(truth, pids, truth_path) -> None:
    if not set(latent_names(pids)) <= truth.latents.keys():
        raise DataError(f"{truth_path}: lacks latents of the evaluated "
                        "patients")


def _recovery_trial(fit_dir, truth_path):
    draws = read_draws(Path(fit_dir) / "draws.csv")
    truth = read_truth(truth_path)
    _check_latents(truth, draws.meta["patient_ids"], truth_path)
    return draws, truth


def _evaluate_recovery(args, out: Path) -> int:
    if not args.fit or len(args.fit) != len(args.truth):
        raise ConfigurationError(
            "recovery mode needs matched --fit and --truth lists")
    if len(args.fit) < 2:
        raise ConfigurationError("recovery mode needs at least 2 trials")
    report = recovery_report(map(_recovery_trial, args.fit, args.truth))
    rows = [(name, st["n"], st["pearson_r"], st["slope"])
            for name, st in sorted(report.per_param.items())]
    write_table(out / "recovery_params.tsv",
                ["parameter", "n_trials", "pearson_r", "slope"], rows)
    write_table(out / "scatter_data.tsv",
                ["trial", "parameter", "true", "estimated"], report.scatter)
    write_table(out / "severity_scatter_data.tsv",
                ["trial", "group", "mean_true_severity", "mean_estimated_severity"],
                report.severity_scatter)
    by_group = {}
    for _, g, tv, ev in report.severity_scatter:
        by_group.setdefault(f"group {g}", ([], []))
        by_group[f"group {g}"][0].append(tv)
        by_group[f"group {g}"][1].append(ev)
    svg_scatter(out / "severity_scatter.svg", by_group,
                title="Group mean severity: true vs estimated",
                xlabel="true mean severity", ylabel="estimated mean severity")
    zs = ([], [])
    for name, st in report.per_param.items():
        pts = [(tr, est) for (_, nm, tr, est) in report.scatter if nm == name]
        t = np.array([p[0] for p in pts])
        e = np.array([p[1] for p in pts])
        if t.std() > 0:
            zs[0].extend(((t - t.mean()) / t.std()).tolist())
            zs[1].extend(((e - e.mean()) / max(e.std(), 1e-12)).tolist())
    svg_scatter(out / "params_scatter.svg", {"standardized parameters": zs},
                title="Parameter recovery (standardized)",
                xlabel="true (z-scored per parameter)",
                ylabel="estimated (z-scored per parameter)")
    summary = {"mode": "recovery",
               "mean_pearson_r": report.mean_r(),
               "mean_slope": report.mean_slope(),
               "severity_calibration": report.severity_calibration,
               "n_trials": len(args.fit),
               "per_param": report.per_param}
    write_json(summary, out / "summary.json")
    print(f"recovery: mean r {report.mean_r():.4f}, "
          f"mean slope {report.mean_slope():.4f}")
    return EXIT_OK


def _evaluate_bias(args, out: Path) -> int:
    if not args.fit or len(args.truth) != 1 or args.dataset is None:
        raise ConfigurationError(
            "bias mode needs --dataset, one --truth, and one --fit per variant")
    data = read_dataset(args.dataset)
    truth = read_truth(args.truth[0])
    pids = {p.patient_id for p in data.patients}
    _check_latents(truth, pids, args.truth[0])
    reports = {}
    profiles = {}
    for fit_dir in args.fit:
        draws = read_draws(Path(fit_dir) / "draws.csv")
        if set(draws.meta["patient_ids"]) != pids:
            raise DataError(f"{fit_dir}: fit patients differ from "
                            f"{args.dataset}'s")
        variant = ModelVariant.from_flags(draws.meta["variant"])
        reports[variant] = bias_report(draws, data, truth, variant)
        values, groups, _, _ = visit_severity_estimates(draws, data)
        profiles[variant] = high_risk_profile(values, groups, q=args.quantile)
        del draws  # one fit's draws in memory at a time
    variants = list(reports)
    header = ["metric", "group", *[v.value for v in variants]]
    rows = []
    n_groups = data.n_groups
    for metric in ("bias", "correlation"):
        for g in range(n_groups):
            row = [metric, g]
            for v in variants:
                rep = reports[v]
                val = (rep.group_bias.get(g) if metric == "bias"
                       else rep.group_correlation.get(g))
                row.append(val)
            rows.append(row)
    for g in range(n_groups):
        rows.append([f"high_risk_share_q{args.quantile}", g,
                     *[profiles[v].flagged_share_by_group.get(g) for v in variants]])
    write_table(out / "bias_table.tsv", header, rows)
    summary = {"mode": "bias", "quantile": args.quantile,
               "variants": {v.value: {
                   "group_bias": reports[v].group_bias,
                   "group_correlation": reports[v].group_correlation,
                   "underserved_group": reports[v].underserved_group,
                   "max_global_rhat": reports[v].max_global_rhat,
                   "flagged_nonconverged": reports[v].flagged_nonconverged,
                   "high_risk_share": profiles[v].flagged_share_by_group,
               } for v in variants}}
    write_json(summary, out / "summary.json")
    flagged = [v.value for v in variants if reports[v].flagged_nonconverged]
    print(f"bias: {len(variants)} variants"
          + (f" (non-converged: {', '.join(flagged)})" if flagged else ""))
    return EXIT_OK


def _evaluate_baselines(args, out: Path) -> int:
    if args.dataset is None:
        raise ConfigurationError("baselines mode needs --dataset")
    data = read_dataset(args.dataset)
    subset = None
    if args.informative:
        subset = [int(s) for s in args.informative.split(",") if s != ""]
    recon = reconstruction_table(data, feature_subset=subset)
    write_table(out / "reconstruction.tsv",
                ["method", "mape_all", "mape_informative"],
                [(m, r["mape_all"], r.get("mape_informative"))
                 for m, r in recon.items()])
    result = {"mode": "baselines", "reconstruction": recon}
    if args.train_window is not None:
        pred = prediction_table(data, args.train_window, feature_subset=subset)
        write_table(out / "prediction.tsv",
                    ["method", "mape_all", "mape_informative", "n_predictions"],
                    [(m, r["mape_all"], r.get("mape_informative"),
                      r["n_predictions"]) for m, r in pred.items()])
        result["prediction"] = pred
    write_json(result, out / "summary.json")
    print("baselines: wrote reconstruction"
          + (" and prediction" if args.train_window is not None else "")
          + " tables")
    return EXIT_OK


def _evaluate_oracles(args, out: Path) -> int:
    ok, rows = verify_theorems(tol=args.tol)
    write_table(out / "oracle_log.tsv",
                ["theorem", "shift", "noise", "t_or_event", "e_population",
                 "e_group", "expected_sign", "holds"],
                [(r["theorem"], r["shift"], r["noise"],
                  r.get("t", r.get("event")), r["e_population"], r["e_group"],
                  r["expected_sign"], r["holds"]) for r in rows])
    n_pass = sum(1 for r in rows if r["holds"])
    write_json({"mode": "oracles", "all_passed": ok, "n_scenarios": len(rows),
                "n_passed": n_pass, "tolerance": args.tol},
               out / "summary.json")
    print(f"oracles: {n_pass}/{len(rows)} scenarios hold")
    return EXIT_OK if ok else EXIT_ORACLE


def _evaluate_disparity(args, out: Path) -> int:
    if len(args.fit) != 1:
        raise ConfigurationError("disparity mode needs exactly one --fit")
    if args.years_per_unit is None:
        raise ConfigurationError(
            "disparity mode needs --years-per-unit (dataset-specific; no default)")
    draws = read_draws(Path(args.fit[0]) / "draws.csv")
    summ = disparity_summary(draws, years_per_unit=args.years_per_unit)
    rows = []
    for g, entry in summ.per_group.items():
        rows.append([g, entry.get("init_sev_gap"), entry.get("delay_time_units"),
                     entry.get("delay_years"), entry.get("visit_offset"),
                     entry.get("visit_rate_ratio")])
    write_table(out / "disparity.tsv",
                ["group", "init_sev_gap", "delay_time_units", "delay_years",
                 "visit_offset", "visit_rate_ratio"], rows)
    write_json({"mode": "disparity", "reference_group": summ.reference_group,
                "mean_rate": summ.mean_rate,
                "years_per_unit": summ.years_per_unit,
                "per_group": summ.per_group}, out / "summary.json")
    print(f"disparity: reference group {summ.reference_group}, "
          f"mean rate {summ.mean_rate:.4f}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {"recovery": _evaluate_recovery, "bias": _evaluate_bias,
               "baselines": _evaluate_baselines, "oracles": _evaluate_oracles,
               "disparity": _evaluate_disparity}[args.mode]
    code = handler(args, out)
    write_manifest(out, f"evaluate:{args.mode}",
                   {k: v for k, v in vars(args).items()
                    if k not in ("command",)},
                   args.seed)
    return code


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    summary_path = in_dir / "summary.json"
    diag_path = in_dir / "diagnostics.json"
    if summary_path.exists():
        doc = json.loads(summary_path.read_text())
    elif diag_path.exists():
        doc = json.loads(diag_path.read_text())
    else:
        raise DataError(f"no summary.json or diagnostics.json in {in_dir}")
    lines = [f"# dispro report: {in_dir}", ""]
    lines.extend(_render(doc, 0))
    text = "\n".join(lines) + "\n"
    (in_dir / "report.md").write_text(text)
    print(text, end="")
    return EXIT_OK


def _render(obj, depth):
    pad = "  " * depth
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}- {k}:")
                lines.extend(_render(v, depth + 1))
            else:
                lines.append(f"{pad}- {k}: {v}")
    elif isinstance(obj, list):
        for v in obj[:50]:
            lines.append(f"{pad}- {v}")
        if len(obj) > 50:
            lines.append(f"{pad}- ... ({len(obj) - 50} more)")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "report":
            return _cmd_report(args)
        raise _UsageError(f"unknown command {args.command}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
