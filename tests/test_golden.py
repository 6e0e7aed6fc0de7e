"""The sha256 of every file one small, fixed pipeline writes, against
``tests/golden.json``.

The pipeline simulates two 30-patient cohorts, fits all five variants of
the first and the full model of the second, runs ``evaluate`` in every
mode and renders reports, in process and with relative paths, so no output
holds a path of the machine it ran on. Numbers depend on the numpy and
scipy builds and the platform, so ``golden.json`` records them and a
mismatch fails the test by name.

A change that moves numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the files whose hash was added, removed or changed against
the old file before it overwrites it.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import dispro
from dispro.cli import main
from dispro.model import ModelVariant

from conftest import no_constant

GOLDEN = Path(__file__).with_name("golden.json")
SIM = {"n_patients": 30, "n_bins": 12, "bin_width": 1 / 12, "seed": 5}
FIT = ["--chains", "2", "--warmup", "20", "--draws", "10",
       "--max-leapfrog", "15", "--seed", "3", "--allow-nonconverged"]
VARIANTS = [v.value for v in ModelVariant]
EVALUATE = {
    "recovery": ["--fit", "fit_full", "--truth", "sim_a/truth.json",
                 "--fit", "fit_b", "--truth", "sim_b/truth.json"],
    "bias": ["--dataset", "sim_a/dataset.csv", "--truth", "sim_a/truth.json",
             *(a for v in VARIANTS for a in ("--fit", f"fit_{v}"))],
    "baselines": ["--dataset", "sim_a/dataset.csv", "--train-window", "6",
                  "--informative", "0,1"],
    "oracles": [],
    "disparity": ["--fit", "fit_full", "--dataset", "sim_a/dataset.csv",
                  "--years-per-unit", "8.5"],
}


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the pipeline in ``root``; returns {relative path: sha256} of
    every file in it."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("sim.json").write_text(json.dumps(SIM))
        argvs = [["simulate", "--config", "sim.json", "--out", "sim_a"],
                 ["simulate", "--config", "sim.json", "--seed", "6",
                  "--out", "sim_b"]]
        argvs += [["fit", "--dataset", "sim_a/dataset.csv", "--variant", v,
                   "--out", f"fit_{v}", *FIT] for v in VARIANTS]
        argvs.append(["fit", "--dataset", "sim_b/dataset.csv",
                      "--out", "fit_b", *FIT])
        argvs += [["evaluate", "--mode", mode, *args, "--out", f"ev_{mode}"]
                  for mode, args in EVALUATE.items()]
        argvs += [["report", "--in", d]
                  for d in ("fit_full", *(f"ev_{m}" for m in EVALUATE))]
        for argv in argvs:
            assert main(argv) == 0, argv
        return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(".").rglob("*")) if p.is_file()}
    finally:
        os.chdir(cwd)


def golden_files() -> dict[str, str]:
    """golden.json's hashes, after checking it was made under this
    environment."""
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    moved = {k: (golden["environment"].get(k), v) for k, v in env.items()
             if golden["environment"].get(k) != v}
    assert not moved, f"golden.json was made under other versions: {moved}"
    return golden["files"]


def test_pipeline_outputs_match_golden(tmp_path):
    want = golden_files()
    files = run_pipeline(tmp_path)
    # every JSON file the pipeline writes is strict JSON
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=no_constant)
    differ = sorted(k for k in want.keys() | files.keys()
                    if want.get(k) != files.get(k))
    assert differ == [], f"outputs that differ from golden.json: {differ}"


QUADRATURE_PROBE = f"""
import json, sys
import dispro.cli as cli
loaded = {{"import": "scipy.integrate" in sys.modules}}
assert cli.main(["simulate", "--config", "sim.json", "--out", "sim_a"]) == 0
loaded["simulate"] = "scipy.integrate" in sys.modules
assert cli.main(["fit", "--dataset", "sim_a/dataset.csv", "--out", "fit_full",
                 *{FIT!r}]) == 0
loaded["fit"] = "scipy.integrate" in sys.modules
assert cli.main(["evaluate", "--mode", "oracles", "--out", "ev_oracles"]) == 0
loaded["oracles"] = "scipy.integrate" in sys.modules
print(json.dumps(loaded))
"""


def test_quadrature_is_imported_by_the_oracles_alone(tmp_path):
    """A fresh ``dispro`` process loads scipy.integrate on its first oracle
    call, not on import, simulate or fit, and the oracles' outputs are
    golden.json's."""
    want = golden_files()
    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    src = str(Path(dispro.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", QUADRATURE_PROBE],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": False, "simulate": False, "fit": False,
                      "oracles": True}
    for name in ("manifest.json", "oracle_log.tsv", "summary.json"):
        got = hashlib.sha256((tmp_path / "ev_oracles" / name).read_bytes())
        assert got.hexdigest() == want[f"ev_oracles/{name}"], name


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    old = json.loads(GOLDEN.read_text())["files"] if GOLDEN.exists() else {}
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO())):
        doc = {"environment": environment(), "files": run_pipeline(Path(tmp))}
    new = doc["files"]
    for label, names in (("added", new.keys() - old.keys()),
                         ("removed", old.keys() - new.keys()),
                         ("changed", {k for k in new.keys() & old.keys()
                                      if new[k] != old[k]})):
        print(f"{label} ({len(names)}):", *sorted(names), sep="\n  ")
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} hashes to {GOLDEN}", file=sys.stderr)
