"""Command-line pipeline: simulate -> fit -> evaluate -> report.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 non-convergence, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .ablation import (
    HIGH_RISK_QUANTILE,
    UNDERSERVED_BY,
    bias_report,
    high_risk_profile,
    visit_severity_estimates,
)
from .baselines import prediction_table, reconstruction_table
from .dataio import (
    fit_meta,
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
from .fitting import RHAT_THRESHOLD, convergence_summary, fit_model
from .inference import disparity_summary, recovery_report
from .model import ModelVariant, latent_names
from .oracles import PrecisionError, verify_theorems
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


def _checked(convert, holds, what: str):
    """An argparse type: the text through ``convert``, a value that
    ``holds``; ``what`` names such a value in the error."""
    def number(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return number


# scales; bin counts
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_positive_int = _checked(int, lambda v: v > 0, "an integer > 0")


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
                    choices=[v.value for v in ModelVariant])
    pf.add_argument("--chains", type=int, default=4)
    pf.add_argument("--warmup", type=int, default=500)
    pf.add_argument("--draws", type=int, default=1000)
    pf.add_argument("--max-leapfrog", type=int, default=1024)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--threads", type=_positive_int, default=1,
                    help="run the chains in up to this many processes; "
                         "the files do not depend on it")
    pf.add_argument("--allow-nonconverged", action="store_true")

    pe = sub.add_parser("evaluate", help="post-process fits into reports")
    pe.add_argument("--mode", required=True,
                    choices=["recovery", "bias", "baselines", "oracles", "disparity"])
    pe.add_argument("--out", required=True)
    pe.add_argument("--fit", action="append", default=[],
                    help="fit output directory (repeatable)")
    pe.add_argument("--truth", action="append", default=[],
                    help="truth sidecar path (repeatable, matched to --fit)")
    pe.add_argument("--dataset", default=None)
    pe.add_argument("--years-per-unit", type=_positive, default=None)
    pe.add_argument("--train-window", type=_positive_int, default=None)
    pe.add_argument("--informative", default=None,
                    help="comma-separated informative feature indices")

    pr = sub.add_parser("report", help="render a text report from an output dir")
    pr.add_argument("--in", dest="in_dir", required=True)
    return p


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# the JSON types each simulate config key takes (a bool is not an int here)
_SIM_TYPES = {
    **dict.fromkeys(("n_patients", "n_features", "n_bins", "n_groups", "seed"),
                    (int,)),
    **dict.fromkeys(("bin_width", "group_probability"), (int, float)),
    "group_specific_rates": (bool,),
}


def _sim_config_from_json(text: str, seed_override) -> SimConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ConfigurationError("simulate config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(SimConfig)}
    if unknown:
        raise ConfigurationError(f"unknown simulate config keys: {sorted(unknown)}")
    if seed_override is not None:
        doc["seed"] = seed_override
    wrong = sorted(k for k, v in doc.items() if type(v) not in _SIM_TYPES[k])
    if wrong:
        raise ConfigurationError(f"simulate config keys of the wrong type: {wrong}")
    return SimConfig(**doc)


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
    if args.chains < 2 or args.draws < 8:  # ESS splits each chain in half
        raise ConfigurationError(
            "R-hat and ESS need --chains >= 2 and --draws >= 8")
    data = read_dataset(args.dataset)
    variant = ModelVariant(args.variant)
    config = SamplerConfig(chains=args.chains, warmup=args.warmup,
                           draws=args.draws, max_leapfrog=args.max_leapfrog,
                           seed=args.seed, processes=args.threads)
    draws = fit_model(data, variant=variant, config=config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_draws(draws, out / "draws.csv")
    diag = convergence_summary(draws)
    write_json(diag, out / "diagnostics.json")
    write_manifest(out, "fit",
                   {"dataset": args.dataset, "variant": args.variant,
                    "chains": args.chains, "warmup": args.warmup,
                    "draws": args.draws, "max_leapfrog": args.max_leapfrog,
                    "threads": args.threads},
                   args.seed, inputs={"dataset": args.dataset},
                   outputs=["draws.csv", "fit_meta.json", "diagnostics.json"])
    worst = diag["max_global_rhat"]
    print(f"fit {args.variant}: max global R-hat {worst:.4f}, "
          f"{diag['divergences']['fraction']:.2%} divergent")
    if worst > RHAT_THRESHOLD and not args.allow_nonconverged:
        print(f"non-converged (R-hat > {RHAT_THRESHOLD}); "
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


def _check_group_params(truth, n_groups, truth_path) -> None:
    """The truth holds, for every group, each parameter that
    ``underserved_group`` may read."""
    names = dict.fromkeys(name for name, _ in UNDERSERVED_BY.values())
    missing = [f"{name}[{g}]" for name in names for g in range(n_groups)
               if f"{name}[{g}]" not in truth.params]
    if missing:
        raise DataError(f"{truth_path}: lacks params {missing}")


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
    out.mkdir(parents=True, exist_ok=True)
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
    r, slope = ("undefined" if v is None else f"{v:.4f}"
                for v in (report.mean_r(), report.mean_slope()))
    print(f"recovery: mean r {r}, mean slope {slope}")
    return EXIT_OK


def _check_fit_of(draws, data, fit_dir, dataset_path) -> ModelVariant:
    """The fit's variant, after checking that the fit is one of ``data``: a
    fit of a dataset has the meta ``fit_model`` writes for it, seed aside."""
    variant = ModelVariant.from_flags(draws.meta["variant"])
    want, meta = fit_meta(data, variant, None), dict(draws.meta, seed=None)
    differ = sorted(k for k in want.keys() | meta.keys()
                    if want.get(k) != meta.get(k))
    if differ:
        raise DataError(f"{fit_dir}: not a fit of {dataset_path}; "
                        f"its meta differs in {differ}")
    return variant


def _evaluate_bias(args, out: Path) -> int:
    if not args.fit or len(args.truth) != 1 or args.dataset is None:
        raise ConfigurationError(
            "bias mode needs --dataset, one --truth, and one --fit per variant")
    data = read_dataset(args.dataset)
    truth = read_truth(args.truth[0])
    _check_latents(truth, [p.patient_id for p in data.patients], args.truth[0])
    _check_group_params(truth, data.n_groups, args.truth[0])
    reports = {}
    profiles = {}
    for fit_dir in args.fit:
        draws = read_draws(Path(fit_dir) / "draws.csv")
        variant = _check_fit_of(draws, data, fit_dir, args.dataset)
        if variant in reports:
            raise ConfigurationError(f"{fit_dir}: a second fit of variant "
                                     f"{variant.value}")
        reports[variant] = bias_report(draws, truth, variant)
        values, groups = visit_severity_estimates(draws, data)
        profiles[variant] = high_risk_profile(values, groups, HIGH_RISK_QUANTILE)
        del draws  # one fit's draws in memory at a time
    variants = list(reports)
    out.mkdir(parents=True, exist_ok=True)
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
        rows.append([f"high_risk_share_q{HIGH_RISK_QUANTILE}", g,
                     *[profiles[v].get(g) for v in variants]])
    write_table(out / "bias_table.tsv", header, rows)
    summary = {"mode": "bias", "quantile": HIGH_RISK_QUANTILE,
               "variants": {v.value: {
                   "group_bias": reports[v].group_bias,
                   "group_correlation": reports[v].group_correlation,
                   "underserved_group": reports[v].underserved_group,
                   "max_global_rhat": reports[v].max_global_rhat,
                   "flagged_nonconverged": reports[v].flagged_nonconverged,
                   "high_risk_share": profiles[v],
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
        subset = [s.strip() for s in args.informative.split(",") if s != ""]
        if not all(s.isdecimal() and int(s) < data.n_features for s in subset):
            raise ConfigurationError(
                f"--informative {args.informative!r} is not a list of "
                f"feature indices in 0..{data.n_features - 1}")
        subset = [int(s) for s in subset]
    recon = reconstruction_table(data, feature_subset=subset)
    out.mkdir(parents=True, exist_ok=True)
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
    ok, rows = verify_theorems()
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "oracle_log.tsv",
                ["theorem", "shift", "noise", "t_or_event", "e_population",
                 "e_group", "expected_sign", "holds"],
                [(r["theorem"], r["shift"], r["noise"],
                  r.get("t", r.get("event")), r["e_population"], r["e_group"],
                  r["expected_sign"], r["holds"]) for r in rows])
    n_pass = sum(1 for r in rows if r["holds"])
    write_json({"mode": "oracles", "all_passed": ok, "n_scenarios": len(rows),
                "n_passed": n_pass, "tolerance": oracles.TOLERANCE},
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
    if args.dataset is not None:
        _check_fit_of(draws, read_dataset(args.dataset), args.fit[0],
                      args.dataset)
    summ = disparity_summary(draws, years_per_unit=args.years_per_unit)
    out.mkdir(parents=True, exist_ok=True)
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
    """Run one evaluate mode, which makes ``--out`` once its inputs pass."""
    out = Path(args.out)
    handler = {"recovery": _evaluate_recovery, "bias": _evaluate_bias,
               "baselines": _evaluate_baselines, "oracles": _evaluate_oracles,
               "disparity": _evaluate_disparity}[args.mode]
    code = handler(args, out)
    write_manifest(out, f"evaluate:{args.mode}",
                   {k: v for k, v in vars(args).items()
                    if k not in ("command",)},
                   None)
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


def _steady_heap() -> None:
    """Give each block of 4 MiB and more (a draws table) its own mapping,
    returned on free. glibc otherwise raises that threshold to the largest
    block freed, later tables land in the heap, and whether a freed one is
    reused there depends on the small blocks placed around it: peak memory
    then varies by a table's size from run to run. Needs glibc's mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _steady_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"simulate": _cmd_simulate, "fit": _cmd_fit,
                   "evaluate": _cmd_evaluate, "report": _cmd_report}[args.command]
        return handler(args)
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
    except PrecisionError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
