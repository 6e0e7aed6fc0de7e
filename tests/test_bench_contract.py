"""The names the benchmark harness looks up in ``dispro``.

``bench/tracing.py`` patches layer functions by (module, attribute) and
``bench/worker.py`` calls a few more directly; a rename or deletion in
``src`` would only surface as a crashed benchmark run. The tracer is read
with ``ast`` rather than imported, so this test does not depend on the
benchmark's own imports."""

import ast
import importlib
from pathlib import Path

from dispro.model import ProgressionModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# what bench/worker.py calls outside the tracer's tables
WORKER_MODULE_NAMES = [("dispro.fitting", "rough_init"),
                       ("dispro.fitting", "jittered_init"),
                       ("dispro.dataio", "read_dataset")]
WORKER_MODEL_NAMES = ["log_posterior", "logp_and_grad",
                      "logp_and_grad_noncentered"]


def _tracer_constants():
    tree = ast.parse(TRACING.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("MODULE_WRAPS", "MODEL_WRAPS", "GRAD")}


def test_bench_names_resolve():
    consts = _tracer_constants()
    assert set(consts) == {"MODULE_WRAPS", "MODEL_WRAPS", "GRAD"}
    module_names = [(m, a) for m, a, _ in consts["MODULE_WRAPS"]]
    model_names = [a for a, _ in consts["MODEL_WRAPS"]]
    model_names.append(consts["GRAD"].removeprefix("model."))
    missing = [f"{m}.{a}" for m, a in module_names + WORKER_MODULE_NAMES
               if not hasattr(importlib.import_module(m), a)]
    missing += [f"ProgressionModel.{a}" for a in model_names + WORKER_MODEL_NAMES
                if not hasattr(ProgressionModel, a)]
    assert not missing
