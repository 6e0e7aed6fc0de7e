"""Benchmark of `dispro` fits and evaluation, end to end.

    python3 bench/run.py --workload fit-n150|pilot-n1000|evaluate-n300 \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout (it needs ``src/dispro``). One run:

1. sets up twice in fresh processes (interpreter start, ``import
   dispro``, ``dispro simulate`` of the workload's cohort) for ``setup_s``;
2. writes the inputs the benchmark makes itself (evaluate-n300's synthetic
   draws and malformed datasets) outside the measured process;
3. starts the measured process (bench/worker.py), which sets up once more
   and runs whole rounds of the workload's operations for T seconds;
4. checks the program's outputs against the benchmark's own computations
   and runs each check's self-test;
5. prints the machine it ran on, then, as the last line, one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the run measures the workload untraced and then again with spans around
every layer, and reports the per-layer metrics plus the tracing overhead
(traced ``wall_s`` minus untraced ``wall_s``). Outputs, logs and spans stay
under ``.bench_runs/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import readers  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 2
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _worker(mode, args, out: Path, config: Path, inputs=None, trace=0):
    """Run bench/worker.py; returns (its result, seconds from spawn to the
    end of its set-up)."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--config", str(config), "--dir", str(out),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    env = dict(os.environ, **spec.worker_env(args.workload))
    with open(out / "worker.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}; "
                         f"see {out / 'worker.log'}")
    result = json.loads((out / "result.json").read_text())
    return result, result["t_ready"] - t_spawn


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg) + "\n")
    return path


# -- metrics -----------------------------------------------------------------

def _round_walls(result):
    return [r[-1]["end"] - r[0]["start"] for r in result["rounds"]]


def _ops(result):
    return [op for r in result["rounds"] for op in r]


def end_to_end(result, setups) -> dict:
    ops = _ops(result)
    dense = [op for op in ops if op["name"] in ("fit", "score")]
    calls = sum(op["grad_calls"] for op in dense)
    secs = sum(op["end"] - op["start"] for op in dense)
    m = {"setup_s": statistics.median(setups),
         "wall_s": statistics.median(_round_walls(result)),
         "peak_rss_mb": result["maxrss_kb"] / 1024.0,
         "grad_evals_per_s": calls / secs}
    return {name: {"value": m[name], "unit": unit}
            for name, (unit, _) in spec.END_TO_END.items()}


def per_layer(result, untraced, run_dir: Path, workload) -> dict:
    rounds = result["rounds"]
    fit = spec.fit_spec(workload) if workload != "evaluate-n300" else None
    spans = tracing.read_spans(run_dir / "traced" / "spans.jsonl")
    m = tracing.derive(spans, rounds[0][0]["start"], rounds[-1][-1]["end"],
                       len(rounds), fit)
    micro = result["micro_us"]
    m.update({f"model.{k}_us": v for k, v in micro.items()})
    m["cli.import_s"] = result["import_s"]
    m["cli.cpu_s"] = result["cpu_s"] / len(rounds)
    min_ess = max_rhat = 0.0
    if fit:
        diag = readers.read_json(run_dir / "traced" / "round0" / "fit"
                                 / "diagnostics.json")
        min_ess = min(p["ess"] for p in diag["parameters"].values())
        max_rhat = diag["max_global_rhat"]
    m["sampler.min_ess"] = min_ess
    m["sampler.max_rhat"] = max_rhat
    grad_calls = m["model.grad_calls"]
    m["sampler.ess_per_kgrad"] = (min_ess / (grad_calls / 1000.0)
                                  if fit and grad_calls else 0.0)
    m["trace.overhead_s"] = (statistics.median(_round_walls(result))
                             - statistics.median(_round_walls(untraced)))
    if set(m) != set(spec.PER_LAYER):
        raise BenchError(f"per-layer metrics differ from spec: "
                         f"{sorted(set(m) ^ set(spec.PER_LAYER))}")
    return {name: {"value": float(m[name]), "unit": unit}
            for name, (unit, _) in spec.PER_LAYER.items()}


# -- checks ------------------------------------------------------------------

def fit_context(proc_dir: Path, workload, result):
    fit_dir = proc_dir / "round0" / "fit"
    cohort = proc_dir / "cohort"
    return {"draws": readers.read_draws(fit_dir / "draws.csv"),
            "dataset": readers.read_dataset(cohort / "dataset.csv"),
            "truth": readers.read_json(cohort / "truth.json"),
            "fit": spec.fit_spec(workload),
            "log_density": result["log_density"]}


def evaluate_context(proc_dir: Path, expected, r: int, result):
    out = proc_dir / f"round{r}"
    modes = ("recovery", "bias", "disparity", "baselines", "oracles")
    score = next(op["score"] for op in result["rounds"][r]
                 if op["name"] == "score")
    return {"summaries": {m: readers.read_json(out / m / "summary.json")
                          for m in modes},
            "reports": {m: (out / m / "report.md").read_text() for m in modes},
            "expected": expected, "score": score}


def evaluate_expected(cohort: Path, rec_cohort: Path, means) -> dict:
    ds = readers.read_dataset(cohort / "dataset.csv")
    truth = readers.read_json(cohort / "truth.json")
    rec_ds = readers.read_dataset(rec_cohort / "dataset.csv")
    rec_truth = readers.read_json(rec_cohort / "truth.json")
    e = spec.EVAL300
    return {
        "recovery": checks.expected_recovery(
            [(means["full"], truth, ds), (means["recovery"], rec_truth, rec_ds)]),
        "bias": checks.expected_bias(
            {v: means[v] for v in spec.VARIANTS}, truth, ds),
        "disparity": checks.expected_disparity(means["full"], ds["meta"],
                                               e["years_per_unit"]),
        "held_out": checks.held_out_cells(ds, e["train_window"]),
    }


def check_process(workload, proc_dir: Path, result, expected):
    """Check every round whose operations all succeeded."""
    failures, selftest = [], []
    for r, ops in enumerate(result["rounds"]):
        if not all(op["ok"] for op in ops if op["expect"] == 0):
            continue  # a failed operation is counted, not checked
        if workload == "evaluate-n300":
            ctx = evaluate_context(proc_dir, expected, r, result)
            pairs = checks.EVALUATE_CHECKS
        else:
            if r > 0:
                continue  # later rounds repeat round 0's fit and seed
            ctx = fit_context(proc_dir, workload, result)
            pairs = checks.FIT_CHECKS + (checks.RECOVERY_CHECKS
                                         if workload == "fit-n150" else [])
        f, s = checks.run_checks(pairs, ctx)
        failures += f
        selftest += s
    return failures, selftest


# -- one run -----------------------------------------------------------------

def run(args) -> dict:
    if not (ROOT / "src" / "dispro" / "__init__.py").is_file():
        raise BenchError("no src/dispro here: run from the root of a checkout")
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    config = _write_config(run_dir / "cohort.json",
                           spec.cohort_config(args.workload))

    setups, cohort_sha = [], []
    for k in range(SETUP_REPEATS):
        _, secs = _worker("setup", args, run_dir / f"setup{k}", config)
        setups.append(secs)
        cohort_sha.append(checks.sha256(run_dir / f"setup{k}" / "cohort"
                                        / "dataset.csv"))

    try:
        return _measure(args, run_dir, config, setups, cohort_sha)
    finally:  # the synthetic draws take ~300 MB; outputs and logs stay
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)


def _measure(args, run_dir: Path, config: Path, setups, cohort_sha) -> dict:
    cohort = run_dir / "setup0" / "cohort"
    inputs = expected = None
    if args.workload == "evaluate-n300":
        import inputs as make

        rec_cfg = _write_config(run_dir / "recovery_cohort.json",
                                spec.EVAL300["recovery_cohort"])
        _worker("setup", args, run_dir / "recovery_setup", rec_cfg)
        rec_cohort = run_dir / "recovery_setup" / "cohort"
        inputs = run_dir / "inputs"
        means = make.make_evaluate_inputs(cohort, rec_cohort, inputs, args.seed)
        expected = evaluate_expected(cohort, rec_cohort, means)

    procs = [("untraced", 0)] + ([("traced", 1)] if args.trace else [])
    results = {}
    for label, trace in procs:
        res, secs = _worker("run", args, run_dir / label, config, inputs, trace)
        results[label] = res
        setups.append(secs)
        cohort_sha.append(checks.sha256(run_dir / label / "cohort"
                                        / "dataset.csv"))

    failures, selftest = checks.run_checks([checks.SIMULATE_CHECK],
                                           {"cohort_sha": cohort_sha})
    attempted = failed = 0
    for label, res in results.items():
        ops = _ops(res)
        attempted += len(ops)
        failed += sum(not op["ok"] for op in ops)
        f, s = check_process(args.workload, run_dir / label, res, expected)
        failures += [f"{label}: {m}" for m in f]
        selftest += [f"{label}: {m}" for m in s]
    if args.trace and args.workload != "evaluate-n300":
        shas = [checks.sha256(run_dir / label / "round0" / "fit" / "draws.csv")
                for label in ("untraced", "traced")]
        f, s = checks.run_checks([checks.REPEAT_CHECK], {"repeat_sha": shas})
        failures += f
        selftest += s

    if args.trace:
        metrics = per_layer(results["traced"], results["untraced"], run_dir,
                            args.workload)
    else:
        metrics = end_to_end(results["untraced"], setups)
    report = {
        "machine": results["untraced"]["machine"],
        "setup_s": setups,
        "failed_operations": sorted({f"{op['name']}: "
                                     f"{op['error'] or 'exit ' + str(op['code'])}"
                                     for res in results.values()
                                     for op in _ops(res) if not op["ok"]}),
        "check_failures": failures, "selftest_failures": selftest,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            raise BenchError(f"non-finite metric in {metrics}")
    return {"report": report,
            "result": {"correct": not failures and not selftest,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        out = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": out["report"]["machine"],
                      "failed_operations": out["report"]["failed_operations"]}))
    for line in out["report"]["check_failures"] + out["report"]["selftest_failures"]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
