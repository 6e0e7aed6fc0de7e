"""Inputs the benchmark writes itself, outside the measured process.

evaluate-n300 reads posterior draws without fitting them: for each model
variant, 4 chains x 1000 synthetic draws around the cohort's true values,
written in the documented draws format (``draws.csv`` plus
``fit_meta.json``) by the code below, not by `dispro`. The function returns
the posterior mean of every column, which the checks compare with what the
program reports. It also writes the malformed datasets.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import readers
import spec

# Per-variant shift of the synthetic init_sev estimates by group, so the bias
# mode has a non-zero per-group error to report.
LATENT_SHIFT = {"full": (0.0, 0.0), "no_initial_severity": (0.0, -0.5),
                "no_rate": (0.1, -0.2), "no_visit": (0.0, 0.3),
                "no_disparities": (0.2, -0.4)}


def _center(name, params, n_groups):
    if name in ("rate_mean", "rate_sd"):  # one shared pair
        return float(np.mean([params[f"{name}[{g}]"] for g in range(n_groups)]))
    return float(params[name])


def write_synthetic_draws(cohort: Path, variant: str, out: Path, seed: int,
                          index: int) -> dict[str, float]:
    """Write one variant's draws for the cohort in ``cohort``; return the
    posterior mean of each column."""
    ds = readers.read_dataset(cohort / "dataset.csv")
    truth = json.loads((cohort / "truth.json").read_text())
    meta = ds["meta"]
    d, G, pinned = meta["n_features"], meta["n_groups"], meta["pinned_group"]
    e = spec.EVAL300
    chains, per_chain = e["chains"], e["draws"]
    n = chains * per_chain
    rng = np.random.default_rng([seed, spec.DRAWS_SEED_OFFSET, index])

    globals_ = spec.global_names(variant, d, G, pinned)
    pids = [p["id"] for p in ds["patients"]]
    groups = [p["group"] for p in ds["patients"]]
    names = globals_ + spec.latent_names(pids)
    # One chain of independent draws; the other chains visit the same draws
    # in other orders, so a file costs one chain's text formatting.
    first = np.empty((per_chain, len(names)))
    for j, name in enumerate(globals_):
        c = _center(name, truth["params"], G)
        low = spec.lower_bound(name)
        z = rng.standard_normal(per_chain)
        first[:, j] = (c + 0.05 * max(abs(c), 0.2) * z if low is None
                       else low + (c - low) * np.exp(0.05 * z))
    shift = LATENT_SHIFT[variant]
    base = len(globals_)
    for i, (pid, g) in enumerate(zip(pids, groups)):
        sev0 = truth["latents"][f"init_sev[{pid}]"] + shift[g]
        rate = truth["latents"][f"rate[{pid}]"]
        first[:, base + 2 * i] = sev0 + 0.3 * rng.standard_normal(per_chain)
        first[:, base + 2 * i + 1] = rate + 0.2 * rng.standard_normal(per_chain)
    orders = [np.arange(per_chain)] + [rng.permutation(per_chain)
                                       for _ in range(chains - 1)]
    fmt = ",".join(["%.17g"] * len(names))  # 17 digits round-trip exactly
    text = [fmt % tuple(row) for row in first.tolist()]

    out.mkdir(parents=True, exist_ok=True)
    with (out / "draws.csv").open("w") as fh:
        fh.write(",".join(["chain", "draw", *names]) + "\n")
        for c, order in enumerate(orders):
            fh.writelines(f"{c},{k},{text[i]}\n" for k, i in enumerate(order))
    values = np.concatenate([first[order] for order in orders])
    group_init, group_rates, group_visits = spec.VARIANTS[variant]
    fit_meta = {
        "meta": {"bin_width": meta["bin_width"], "n_groups": G,
                 "n_features": d, "pinned_group": pinned,
                 "patient_ids": pids, "patient_groups": groups,
                 "horizon_by_patient": [len(p["rows"]) - 1
                                        for p in ds["patients"]],
                 "variant": {"group_init": group_init,
                             "group_rates": group_rates,
                             "group_visits": group_visits},
                 "n_global": len(globals_), "seed": seed},
        "warnings": [], "n_chains": chains,
        "accept_stats": rng.uniform(0.7, 0.95, n).tolist(),
        "divergent": [False] * n,
    }
    (out / "fit_meta.json").write_text(json.dumps(fit_meta, sort_keys=True))
    # the program averages each column of the same (draws, columns) array
    return {name: float(values[:, j].mean()) for j, name in enumerate(names)}


def write_malformed(cohort: Path, out: Path) -> None:
    """Three broken copies of a dataset, each a data error (exit 2):
    a row one cell short, a sidecar without ``pinned_group``, and an
    ``inf`` feature cell."""
    lines = (cohort / "dataset.csv").read_text().splitlines(keepends=True)
    sidecar = json.loads((cohort / "dataset.csv.meta.json").read_text())
    cases = {}
    short = list(lines)
    short[5] = short[5].rstrip("\n").rsplit(",", 1)[0] + "\n"
    cases["short_row"] = (short, sidecar)
    cases["no_pinned_group"] = (lines, {k: v for k, v in sidecar.items()
                                        if k != "pinned_group"})
    bad = list(lines)
    cells = bad[1].rstrip("\n").split(",")
    cells[4] = "inf"  # bin 0 is a visit, so x0 is observed there
    bad[1] = ",".join(cells) + "\n"
    cases["inf_cell"] = (bad, sidecar)
    for name, (rows, side) in cases.items():
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "dataset.csv").write_text("".join(rows))
        (d / "dataset.csv.meta.json").write_text(json.dumps(side) + "\n")


def make_evaluate_inputs(cohort: Path, recovery_cohort: Path, out: Path,
                         seed: int) -> dict:
    """All evaluate-n300 inputs; returns the column means per draws set."""
    means = {}
    for k, variant in enumerate(spec.VARIANTS):
        means[variant] = write_synthetic_draws(cohort, variant,
                                               out / "draws" / variant, seed, k)
    rec = out / "recovery"
    means["recovery"] = write_synthetic_draws(recovery_cohort, "full",
                                              rec / "full", seed,
                                              len(spec.VARIANTS))
    shutil.copyfile(recovery_cohort / "truth.json", rec / "truth.json")
    write_malformed(cohort, out / "malformed")
    return means
