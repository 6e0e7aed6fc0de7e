"""The names the benchmark harness looks up in ``dispro``.

``bench/tracing.py`` patches layer functions by (module, attribute) and
``bench/worker.py`` calls a few more directly; a rename or deletion in
``src`` would only surface as a crashed benchmark run. The tracer is read
with ``ast`` rather than imported, so this test does not depend on the
benchmark's own imports."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from dispro.cli import main
from dispro.dataio import read_draws, write_dataset, write_truth
from dispro.model import (
    GROUP_ROLES,
    ModelVariant,
    ProgressionModel,
    latent_names,
    param_layout,
)
from dispro.priors import PRIORS

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"



@pytest.fixture
def bench_on_path(monkeypatch):
    """``bench/`` importable by path, without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))


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


def test_bench_call_forms(ten_patient_sim):
    """The calls ``bench/worker.py`` makes, in the forms it makes them, on a
    tiny cohort: a signature change fails here, not in a benchmark run."""
    from dispro import fitting

    data, _ = ten_patient_sim
    model = ProgressionModel(data)
    center = fitting.rough_init(model, data)
    rng = np.random.default_rng([3, 99])
    nc = [fitting.jittered_init(model, center, rng, True),
          fitting.jittered_init(model, center, rng, non_centered=True)]
    c = fitting.jittered_init(model, center, rng, False)
    for want in (True, False):
        lp, grad = model.logp_and_grad(c, want)
        assert np.isfinite(lp) and (grad is None) != want
        lp, grad = model.logp_and_grad_noncentered(nc[0], want)
        assert np.isfinite(lp) and (grad is None) != want
    assert np.isfinite(model.log_posterior(c))
    lp = model.logp_and_grad_noncentered(nc[1], want_grad=False)[0]
    assert np.isfinite(lp)
    assert model.constrain_noncentered(nc[0]).shape == (model.dim,)
    assert model.constrain_noncentered(np.array(nc)).shape == (2, model.dim)


@pytest.mark.parametrize("variant", [v.value for v in ModelVariant])
def test_bench_synthetic_draws_pass_read_draws(ten_patient_sim, tmp_path,
                                               bench_on_path, variant):
    """The draws evaluate-n300 writes itself (``bench/inputs.py``) meet the
    ``fit_meta.json`` contract and bias mode's rule that a fit be one of
    ``--dataset``, so a stricter reader or rule fails here rather than as
    failed benchmark operations."""
    inputs = importlib.import_module("inputs")
    data, truth = ten_patient_sim
    write_dataset(data, tmp_path / "dataset.csv")
    write_truth(truth, tmp_path / "truth.json")
    means = inputs.write_synthetic_draws(tmp_path, variant, tmp_path / "fit",
                                         seed=1, index=0)
    draws = read_draws(tmp_path / "fit" / "draws.csv")
    assert draws.names == list(means)
    assert draws.meta["variant"] == dict(zip(
        ("group_init", "group_rates", "group_visits"),
        inputs.spec.VARIANTS[variant]))
    assert main(["evaluate", "--mode", "bias", "--fit", str(tmp_path / "fit"),
                 "--dataset", str(tmp_path / "dataset.csv"),
                 "--truth", str(tmp_path / "truth.json"),
                 "--out", str(tmp_path / "bias")]) == 0


@pytest.mark.parametrize("variant", [v.value for v in ModelVariant])
def test_layout_matches_bench_reference(bench_on_path, variant):
    """``param_layout`` gives the global names the benchmark spells out on
    its own for every group count, pinned group and feature count, and its
    group table points at each group's entries; ``latent_names`` matches
    too. Each variant's flags are the benchmark's."""
    bench_spec = importlib.import_module("spec")
    member = ModelVariant(variant)
    assert (member.group_init, member.group_rates, member.group_visits) == \
        bench_spec.VARIANTS[variant]
    for n_groups in (2, 3):
        for pinned in range(n_groups):
            for n_features in (1, 4):
                rows, table = param_layout(n_features, n_groups, pinned,
                                           member)
                names = [name for name, _, _ in rows]
                assert names == bench_spec.global_names(
                    variant, n_features, n_groups, pinned)
                assert table.shape == (n_groups, 5)
                for g, col in zip(*np.nonzero(table >= 0)):
                    role = GROUP_ROLES[col]
                    assert names[table[g, col]] in (f"{role}[{g}]", role)
                assert not set(bench_spec.pinned_names(pinned)) & set(names)
    pids = ["p0", "p,1"]
    assert latent_names(pids) == bench_spec.latent_names(pids)


def test_priors_match_bench_reference(bench_on_path):
    """The benchmark keeps its own copy of the prior table, role -> (mu,
    sigma, lower), for its log-density check: the two hold the same roles
    and, role by role, the same numbers."""
    bench_spec = importlib.import_module("spec")
    assert {role: (p.mu, p.sigma, p.lower) for role, p in PRIORS.items()} \
        == bench_spec.PRIORS
