"""The measured process of one benchmark run.

    python3 bench/worker.py --mode setup|run --workload W --seed S \
        --config COHORT.json --dir OUT [--inputs DIR] [--seconds T] [--trace 0|1]

Set-up: import `dispro`, then `dispro simulate` the cohort in COHORT.json
into OUT/cohort. The parent times this from the moment it spawned the
process; the worker reports when set-up ended (``time.monotonic`` is one
clock for every process of the machine). In ``setup`` mode the worker stops
there. In ``run`` mode it then runs whole rounds of the workload's
operations until T seconds have passed, each through ``dispro.cli.main`` or
a public function, and afterwards, untimed, gathers what the checks need
from the program. Everything lands in OUT/result.json (and OUT/spans.jsonl
when traced); the program's own output goes to the parent's log file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import spec  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--inputs", default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# -- the operations of one round ---------------------------------------------

def _op(name, argv, expect=0):
    return {"name": name, "kind": "cli", "argv": argv, "expect": expect}


def round_ops(workload, seed, cohort: Path, inputs: Path | None, out: Path):
    """The operations of one round, writing under ``out``."""
    dataset = str(cohort / "dataset.csv")
    if workload != "evaluate-n300":
        return [_op("fit", spec.fit_argv(workload, seed, dataset,
                                         str(out / "fit")))]
    e = spec.EVAL300
    fits = {v: str(inputs / "draws" / v) for v in spec.VARIANTS}
    base = ["--train-window", str(e["train_window"]),
            "--informative", e["informative"]]
    ops = [
        _op("recovery", ["evaluate", "--mode", "recovery",
                         "--fit", fits["full"],
                         "--truth", str(cohort / "truth.json"),
                         "--fit", str(inputs / "recovery" / "full"),
                         "--truth", str(inputs / "recovery" / "truth.json"),
                         "--out", str(out / "recovery")]),
        _op("bias", ["evaluate", "--mode", "bias", "--dataset", dataset,
                     "--truth", str(cohort / "truth.json"),
                     *[a for v in spec.VARIANTS for a in ("--fit", fits[v])],
                     "--out", str(out / "bias")]),
        _op("disparity", ["evaluate", "--mode", "disparity",
                          "--fit", fits["full"], "--years-per-unit",
                          str(e["years_per_unit"]),
                          "--out", str(out / "disparity")]),
        _op("baselines", ["evaluate", "--mode", "baselines",
                          "--dataset", dataset, *base,
                          "--out", str(out / "baselines")]),
        _op("oracles", ["evaluate", "--mode", "oracles",
                        "--out", str(out / "oracles")]),
    ]
    ops += [_op(f"report-{m}", ["report", "--in", str(out / m)])
            for m in ("recovery", "bias", "disparity", "baselines", "oracles")]
    # Malformed datasets: each must end in exit 2 (data error).
    ops += [_op(f"malformed-{bad}",
                ["evaluate", "--mode", "baselines",
                 "--dataset", str(inputs / "malformed" / bad / "dataset.csv"),
                 *base, "--out", str(out / f"malformed-{bad}")], expect=2)
            for bad in ("short_row", "no_pinned_group", "inf_cell")]
    ops.append({"name": "score", "kind": "score", "dataset": dataset,
                "seed": seed, "expect": 0})
    return ops


def _score(dataset, n_calls, seed):
    """Density and gradient at fixed points of the cohort, through the public
    API: read, build the model, initialize, then evaluate."""
    import numpy as np

    from dispro import dataio, fitting
    from dispro.model import ProgressionModel

    data = dataio.read_dataset(dataset)
    model = ProgressionModel(data)
    center = fitting.rough_init(model, data)
    rngs = [np.random.default_rng([seed, k]) for k in range(4)]
    points = [fitting.jittered_init(model, center, r, non_centered=True)
              for r in rngs]
    lps = [model.logp_and_grad_noncentered(points[k % 4])[0]
           for k in range(n_calls)]
    return {"lp": lps[:4],
            "repeat_equal": all(lp == lps[k % 4] for k, lp in enumerate(lps))}


def _run_op(cli, op, calls):
    rec = {"name": op["name"], "expect": op["expect"], "code": None,
           "error": None}
    c0 = calls() if calls else 0
    t0 = perf_counter()
    try:
        if op["kind"] == "cli":
            rec["code"] = cli.main(op["argv"])
        else:
            rec["score"] = _score(op["dataset"],
                                  spec.EVAL300["density_points"], op["seed"])
            rec["code"] = 0
    except Exception as exc:  # a traceback is an outcome to count, not a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["start"], rec["end"] = t0, perf_counter()
    rec["grad_calls"] = (calls() - c0) if calls else None
    rec["ok"] = rec["error"] is None and rec["code"] == op["expect"]
    return rec


# -- untimed: what the checks need from the program ---------------------------

def program_log_density(dataset, draws_csv):
    """The program's log-density at the last draw of ``draws_csv``, centered
    and non-centered, on unconstrained vectors the benchmark builds itself."""
    import csv
    import math

    import numpy as np

    from dispro import dataio
    from dispro.model import ProgressionModel

    with open(draws_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    names, row = rows[0][2:], [float(v) for v in rows[-1][2:]]
    data = dataio.read_dataset(dataset)
    model = ProgressionModel(data)
    if model.names != names:
        return {"error": "draws columns differ from the model layout"}
    x = dict(zip(names, row))
    groups = {p.patient_id: p.group.index for p in data.patients}
    pinned = data.pinned_group
    theta = np.array(row)
    theta_nc = theta.copy()
    for i, name in enumerate(names):
        kind, _, pid = name.partition("[")
        if kind not in ("init_sev", "rate"):
            low = spec.lower_bound(name)
            if low is not None:
                theta[i] = theta_nc[i] = math.log(x[name] - low)
            continue
        g = groups[pid[:-1]]
        if kind == "init_sev":
            mean = 0.0 if g == pinned else x[f"init_sev_mean[{g}]"]
            sd = 1.0 if g == pinned else x[f"init_sev_sd[{g}]"]
        else:
            mean, sd = x[f"rate_mean[{g}]"], x[f"rate_sd[{g}]"]
        theta_nc[i] = (x[name] - mean) / sd
    return {"centered": float(model.log_posterior(theta)),
            "noncentered": float(
                model.logp_and_grad_noncentered(theta_nc, want_grad=False)[0])}


def micro_density(dataset, seed):
    """µs per call of the four density entry points at fixed points of the
    cohort, one call at a time with nothing else running."""
    import numpy as np

    from dispro import dataio, fitting
    from dispro.model import ProgressionModel

    data = dataio.read_dataset(dataset)
    model = ProgressionModel(data)
    center = fitting.rough_init(model, data)
    rng = np.random.default_rng([seed, 99])
    nc = [fitting.jittered_init(model, center, rng, True) for _ in range(4)]
    c = [fitting.jittered_init(model, center, rng, False) for _ in range(4)]
    kinds = {"nc_grad": (model.logp_and_grad_noncentered, nc, True),
             "nc_value": (model.logp_and_grad_noncentered, nc, False),
             "c_grad": (model.logp_and_grad, c, True),
             "c_value": (model.logp_and_grad, c, False)}
    out = {}
    for kind, (fn, points, want) in kinds.items():
        fn(points[0], want)
        times = []
        t_end = perf_counter() + 0.4
        while len(times) < 20 or (perf_counter() < t_end and len(times) < 400):
            x = points[len(times) % 4]
            t0 = perf_counter()
            fn(x, want)
            times.append(perf_counter() - t0)
        out[kind] = float(np.median(times)) * 1e6
    return out


def machine():
    """What the run ran on: cores, versions, numba, and the BLAS library
    this process loaded with its thread count."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for key, syms, rtype in (
                ("threads", ("openblas_get_num_threads",
                             "scipy_openblas_get_num_threads64_",
                             "openblas_get_num_threads64_"), ctypes.c_int),
                ("config", ("openblas_get_config",
                            "scipy_openblas_get_config64_",
                            "openblas_get_config64_"), ctypes.c_char_p)):
            for sym in syms:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = rtype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        blas.append(entry)
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": has_numba, "blas": blas,
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ}}


def main(argv=None) -> int:
    args = _parse(argv)
    out = Path(args.dir)
    t0 = perf_counter()
    import dispro.cli as cli
    import_s = perf_counter() - t0

    tracer = calls = None
    if args.mode == "run" and args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    elif args.mode == "run":
        from tracing import install_counter

        calls = install_counter()

    cohort = out / "cohort"
    code = cli.main(["simulate", "--config", args.config, "--out", str(cohort)])
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "import_s": import_s, "simulate_code": code}
    if args.mode == "setup" or code != 0:
        (out / "result.json").write_text(json.dumps(result))
        return 0 if code == 0 else 1

    inputs = Path(args.inputs) if args.inputs else None
    rounds = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t_begin = perf_counter()
    while not rounds or perf_counter() - t_begin < args.seconds:
        r_out = out / f"round{len(rounds)}"
        ops = round_ops(args.workload, args.seed, cohort, inputs, r_out)
        rounds.append([_run_op(cli, op, calls) for op in ops])
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "rounds": rounds,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "maxrss_kb": ru1.ru_maxrss,
    })

    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.jsonl")
        result["micro_us"] = micro_density(str(cohort / "dataset.csv"),
                                           args.seed)
    if args.workload != "evaluate-n300":
        draws_csv = out / "round0" / "fit" / "draws.csv"
        if draws_csv.exists():
            result["log_density"] = program_log_density(
                str(cohort / "dataset.csv"), str(draws_csv))
    result["machine"] = machine()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
