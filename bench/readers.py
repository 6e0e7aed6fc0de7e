"""The benchmark's own readers for the program's file formats (README, "File
formats"), so that checks do not lean on `dispro.dataio`."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def read_dataset(path) -> dict:
    """{"meta": sidecar, "patients": [{"id", "group", "rows": [(t, D,
    [float or None per feature])]}]} in file order."""
    path = Path(path)
    meta = json.loads(path.with_name(path.name + ".meta.json").read_text())
    patients, by_id = [], {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            pid = row[0]
            if pid not in by_id:
                by_id[pid] = {"id": pid, "group": int(row[1]), "rows": []}
                patients.append(by_id[pid])
            cells = [float(c) if c != "" else None for c in row[4:]]
            by_id[pid]["rows"].append((int(row[2]), int(row[3]), cells))
    for p in patients:
        p["rows"].sort(key=lambda r: r[0])
    return {"meta": meta, "patients": patients}


def read_draws(path) -> dict:
    """{"names", "chain", "draw", "values"} from a draws.csv."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        chain, draw, values = [], [], []
        for row in reader:
            chain.append(int(row[0]))
            draw.append(int(row[1]))
            values.append([float(v) for v in row[2:]])
    return {"header": header, "names": header[2:], "chain": chain,
            "draw": draw, "values": np.asarray(values, dtype=float)}


def read_json(path):
    return json.loads(Path(path).read_text())
