"""Spans around the calls into each `dispro` layer, recorded from outside.

The tracer replaces a layer's public functions at the place where their
callers look them up (``dispro.cli.read_draws``, ``dispro.fitting.sample``,
``ProgressionModel.logp_and_grad_noncentered``, ...) with wrappers that
record one span per call: (id, name, start, end, parent, thread, extra).
Spans stay in memory until the worker writes them out at the end. A span's
name is ``<layer>.<function>``; ``derive`` turns the spans into per-layer
metrics, including each layer's self time (its spans' durations minus the
part of each interval that child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import resource
import threading
from time import perf_counter

LAYERS = ("cli", "dataio", "model", "sampler", "fitting", "inference",
          "ablation", "baselines", "oracles", "svgplot")  # simulate runs in set-up

# (module, attribute, span name): one entry per place a caller looks a
# layer's public function up.
MODULE_WRAPS = [
    ("dispro.cli", "main", "cli.main"),
    ("dispro.cli", "simulate_dataset", "simulate.simulate_dataset"),
    ("dispro.cli", "read_dataset", "dataio.read_dataset"),
    ("dispro.cli", "read_draws", "dataio.read_draws"),
    ("dispro.cli", "read_truth", "dataio.read_truth"),
    ("dispro.cli", "write_dataset", "dataio.write_dataset"),
    ("dispro.cli", "write_truth", "dataio.write_truth"),
    ("dispro.cli", "write_draws", "dataio.write_draws"),
    ("dispro.cli", "write_json", "dataio.write_json"),
    ("dispro.cli", "write_table", "dataio.write_table"),
    ("dispro.cli", "write_manifest", "dataio.write_manifest"),
    ("dispro.cli", "fit_model", "fitting.fit_model"),
    ("dispro.cli", "convergence_summary", "fitting.convergence_summary"),
    ("dispro.cli", "recovery_report", "inference.recovery_report"),
    ("dispro.cli", "disparity_summary", "inference.disparity_summary"),
    ("dispro.cli", "bias_report", "ablation.bias_report"),
    ("dispro.cli", "visit_severity_estimates", "ablation.visit_severity_estimates"),
    ("dispro.cli", "high_risk_profile", "ablation.high_risk_profile"),
    ("dispro.cli", "reconstruction_table", "baselines.reconstruction_table"),
    ("dispro.cli", "prediction_table", "baselines.prediction_table"),
    ("dispro.cli", "verify_theorems", "oracles.verify_theorems"),
    ("dispro.cli", "svg_scatter", "svgplot.svg_scatter"),
    ("dispro.fitting", "sample", "sampler.sample"),
    ("dispro.fitting", "rhat", "sampler.rhat"),
    ("dispro.fitting", "ess", "sampler.ess"),
    ("dispro.fitting", "rough_init", "fitting.rough_init"),
    ("dispro.fitting", "jittered_init", "fitting.jittered_init"),
    ("dispro.fitting", "max_global_rhat", "fitting.max_global_rhat"),
    ("dispro.ablation", "max_global_rhat", "fitting.max_global_rhat"),
    ("dispro.ablation", "severity_means_by_patient",
     "fitting.severity_means_by_patient"),
    ("dispro.baselines", "pca_fit", "baselines.pca_fit"),
    ("dispro.baselines", "fa_fit", "baselines.fa_fit"),
    ("dispro.baselines", "trajectory_baselines", "baselines.trajectory_baselines"),
    ("dispro.oracles", "mlrp_bias_oracle", "oracles.mlrp_bias_oracle"),
    ("dispro.dataio", "read_dataset", "dataio.read_dataset"),
]
# ProgressionModel methods, looked up on the class by every caller.
MODEL_WRAPS = [
    ("__init__", "model.build"),
    ("constrain_noncentered", "model.constrain_noncentered"),
]
GRAD = "model.logp_and_grad_noncentered"


def install_counter():
    """The untraced run's bare counter on the density calls (``next`` on an
    ``itertools.count`` is atomic, so the chain threads lose no update).
    Returns a function giving the number of calls so far."""
    from dispro.model import ProgressionModel

    counter = itertools.count()
    reads = itertools.count()  # each read advances the counter once more
    inner = ProgressionModel.logp_and_grad_noncentered

    def counted(self, *args, **kwargs):
        next(counter)
        return inner(self, *args, **kwargs)

    ProgressionModel.logp_and_grad_noncentered = counted
    return lambda: next(counter) - next(reads)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a chain thread's calls belong to the span that started the thread
        return self._main_stack[-1] if self._main_stack else 0

    def call(self, name, fn, args, kwargs, extra=None, before=None):
        """Run fn inside a span. ``before()`` runs just before the call and
        ``extra(args, result, token)`` just after, where token is what
        ``before()`` returned; the latter's value is kept with the span."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        token = before() if before else None
        t0 = perf_counter()
        t1 = note = None
        try:
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            note = extra(args, result, token) if extra else None
            return result
        finally:  # a call that raises keeps its span, without the extra
            self.spans.append((sid, name, t0, t1 or perf_counter(), parent,
                               threading.get_ident(), note))
            stack.pop()

    def _wrap(self, fn, name, extra=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra, before)
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        from dispro.model import ProgressionModel

        extras = {
            "dataio.read_draws": lambda a, r, _: os.path.getsize(a[0]),
            "dataio.write_draws": lambda a, r, _: os.path.getsize(a[1]),
            "baselines.fa_fit": lambda a, r, _: int(r.n_iter),
        }
        for module, attr, name in MODULE_WRAPS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name,
                                              extras.get(name)))
        for attr, name in MODEL_WRAPS:
            self._patch(ProgressionModel, attr,
                        self._wrap(getattr(ProgressionModel, attr), name))

        # Density calls also keep (minor page faults of the calling thread,
        # whether the call ended at the -inf sentinel).
        def faults():
            return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt

        def outcome(args, result, f0):
            return (faults() - f0, result[0] == -math.inf)

        self._patch(ProgressionModel, "logp_and_grad_noncentered",
                    self._wrap(ProgressionModel.logp_and_grad_noncentered,
                               GRAD, outcome, faults))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- from spans to per-layer metrics ------------------------------------------

def read_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of it that
    its children cover (children in parallel threads count once)."""
    children = {}
    for sid, _, s, e, parent, _, _ in spans:
        children.setdefault(parent, []).append((s, e))
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, name, s, e, _, _, _ in spans:
        layer = name.split(".")[0]
        if layer in out:
            out[layer] += (e - s) - _covered(children.get(sid, ()), s, e)
    return out


def derive(spans, t_lo, t_hi, n_rounds, fit=None) -> dict[str, float]:
    """Per-round layer metrics from the spans of the timed operations
    (those inside [t_lo, t_hi]); ``fit`` is the fit spec of a fit workload."""
    timed = [s for s in spans if s[2] >= t_lo and s[3] <= t_hi]
    by_name = {}
    for s in timed:
        by_name.setdefault(s[1], []).append(s)

    def total(*names):
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, ())) \
            / n_rounds

    def extra_sum(name):
        return sum(s[6] or 0 for s in by_name.get(name, ()))

    grads = by_name.get(GRAD, [])
    outcomes = [s[6] for s in grads if s[6]]  # (page faults, rejected)
    us = sorted((s[3] - s[2]) * 1e6 for s in grads)

    def pct(q):
        return us[min(len(us) - 1, int(q * len(us)))] if us else 0.0

    # Sampler overhead: per sample span and chain thread, the time between
    # the thread's first and last density call not spent in density calls.
    samples = {s[0] for s in by_name.get("sampler.sample", ())}
    windows, busy, leapfrogs = {}, 0.0, 0
    for sid, _, s, e, parent, tid, _ in grads:
        if parent in samples:
            lo, hi = windows.get((parent, tid), (s, e))
            windows[(parent, tid)] = (min(lo, s), max(hi, e))
            busy += e - s
            leapfrogs += 1
    if fit:
        leapfrogs -= fit["chains"] * len(samples)  # one start-point call per chain
    overhead = sum(hi - lo for lo, hi in windows.values()) - busy
    iters = (fit["chains"] * (fit["warmup"] + fit["draws"]) * len(samples)
             if fit else 0)
    written = extra_sum("dataio.write_draws") / 1e6
    read = extra_sum("dataio.read_draws") / 1e6
    t_write, t_read = total("dataio.write_draws"), total("dataio.read_draws")
    out = {
        "model.grad_calls": len(grads) / n_rounds,
        "model.grad_us_p50": pct(0.50),
        "model.grad_us_p99": pct(0.99),
        "model.rejected_calls": sum(r for _, r in outcomes) / n_rounds,
        "model.page_faults_per_call": (sum(f for f, _ in outcomes)
                                       / len(outcomes) if outcomes else 0.0),
        "model.build_s": total("model.build"),
        "model.constrain_s": total("model.constrain_noncentered"),
        "sampler.sample_s": total("sampler.sample"),
        "sampler.overhead_us_per_leapfrog": (overhead / leapfrogs * 1e6
                                             if leapfrogs > 0 else 0.0),
        "sampler.leapfrogs_per_iter": leapfrogs / iters if iters else 0.0,
        "sampler.diagnostics_s": total("sampler.rhat", "sampler.ess"),
        "fitting.init_s": total("fitting.rough_init", "fitting.jittered_init"),
        "fitting.convergence_s": total("fitting.convergence_summary"),
        "dataio.read_dataset_s": total("dataio.read_dataset"),
        "dataio.write_draws_s": t_write,
        "dataio.write_draws_mb_per_s": (written / n_rounds / t_write
                                        if t_write else 0.0),
        "dataio.read_draws_s": t_read,
        "dataio.read_draws_mb_per_s": read / n_rounds / t_read if t_read else 0.0,
        "inference.recovery_s": total("inference.recovery_report"),
        "inference.disparity_s": total("inference.disparity_summary"),
        "ablation.bias_s": total("ablation.bias_report"),
        "baselines.reconstruction_s": total("baselines.reconstruction_table"),
        "baselines.prediction_s": total("baselines.prediction_table"),
        "baselines.fa_iterations": extra_sum("baselines.fa_fit") / n_rounds,
        "oracles.verify_s": total("oracles.verify_theorems"),
        "svgplot.render_s": total("svgplot.svg_scatter"),
        "simulate.cohort_s": sum(s[3] - s[2] for s in spans
                                 if s[1] == "simulate.simulate_dataset"
                                 and s[3] <= t_lo),
        "trace.spans": len(timed) / n_rounds,
    }
    for layer, secs in self_times(timed).items():
        out[f"{layer}.self_s"] = secs / n_rounds
    return out
