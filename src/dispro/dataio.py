"""File formats.

Dataset: one header-bearing CSV with a row per (patient, bin); columns
patient_id, group, t, D, then one column per feature where an empty cell
means missing. A small JSON sidecar (``<dataset>.meta.json``) carries the
time scale and group universe, which the table itself cannot.

Truth sidecar: JSON with generating parameters and per-patient latents under
canonical names. Draws: CSV with chain and draw indices followed by canonical
parameter columns, plus ``fit_meta.json`` and ``diagnostics.json`` sidecars.

Every JSON file is written by ``write_json`` (strict JSON, sorted keys) and
read back by ``read_json``, which checks it against a table of key types.

Nothing in these files is time-stamped, so identical inputs and seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import mmap
import warnings
from array import array
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .model import ModelVariant, latent_names, param_layout
from .sampler import PosteriorDraws, forked_map, usable_cores
from .simulate import TruthSidecar
from .types import DataError, Dataset, GroupId, PatientRecord


def _is_number(v) -> bool:
    """A JSON number that converts to a finite float: not a bool, NaN, an
    infinity or an integer past the float range."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    """A JSON integer that converts to a finite float."""
    return isinstance(v, int) and _is_number(v)


def dataset_meta_path(path) -> Path:
    return Path(f"{path}.meta.json")


def write_dataset(data: Dataset, path) -> None:
    feature_cols = [f"x{j}" for j in range(data.n_features)]
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["patient_id", "group", "t", "D", *feature_cols])
        for p in data.patients:  # plain floats: repr(v) is _cell(v)
            for t, (d, row) in enumerate(zip(p.visits.tolist(),
                                             p.features.tolist())):
                w.writerow([p.patient_id, p.group.index, t, d,
                            *[repr(v) if math.isfinite(v) else ""
                              for v in row]])
    write_json({k: getattr(data, k) for k in _SIDECAR_TYPES},
               dataset_meta_path(path), indent=None)


def read_dataset(path) -> Dataset:
    """One pass over the table into compact columns: each row's patient (by
    order of first appearance), group, t and D, and the non-empty feature
    cells by flat position. One sort by (patient, t) then makes each
    patient's rows a slice, so the rows may come in any order."""
    path = Path(path)
    meta_path = dataset_meta_path(path)
    meta = read_json(meta_path, _SIDECAR_TYPES)
    n_features, ids = meta["n_features"], {}
    # int32 patient, group and t, int8 D, int64 cell position, float value
    patient, group, bins, visits, flat, values = map(array, "iiibqd")
    try:
        with path.open(newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if header[:4] != ["patient_id", "group", "t", "D"]:
                raise DataError(f"{path}: not a dataset table")
            if len(header) != 4 + n_features:
                raise DataError(f"{path}: expected {n_features} feature columns")
            for row in r:
                if len(row) != len(header):
                    raise DataError(f"{path}: line {r.line_num} has {len(row)} "
                                    f"cells, the header {len(header)}")
                if row[3] not in ("0", "1"):
                    raise DataError(f"{row[0]}: a D cell is not 0 or 1")
                try:
                    for j, column in ((1, group), (2, bins)):
                        column.append(int(row[j]))
                    for j in range(4, len(row)):
                        if row[j]:  # only an empty cell means missing
                            values.append(float(row[j]))
                            flat.append(n_features * len(visits) + j - 4)
                            if not math.isfinite(values[-1]):
                                raise ValueError  # reported as unparsed
                except (ValueError, OverflowError):
                    kind = "a 32-bit integer" if j < 3 else "a finite number"
                    raise DataError(f"{path}: line {r.line_num}, column "
                                    f"{header[j]}: {row[j]!r} is not {kind}"
                                    ) from None
                patient.append(ids.setdefault(row[0], len(ids)))
                visits.append(row[3] == "1")
    except csv.Error as exc:  # a cell past the csv module's field limit
        raise DataError(f"{path}: line {r.line_num}: {exc}") from None
    n_rows = len(visits)
    # per-group work then scales with the file, not with a sidecar number
    if meta["n_groups"] > n_rows:
        raise DataError(f"{meta_path}: n_groups {meta['n_groups']} exceeds "
                        f"the table's {n_rows} data rows")

    patient, group, bins = (np.frombuffer(a, np.intc)
                            for a in (patient, group, bins))
    order = np.lexsort((bins, patient))
    patient, group, pids = patient[order], group[order], list(ids)
    # bounds[patient] is the first row of each row's patient
    bounds = np.searchsorted(patient, np.arange(len(pids) + 1))
    for bad, what in ((bins[order] != np.arange(n_rows) - bounds[patient],
                       "bins must cover 0..horizon"),
                      (group != group[bounds[patient]],
                       "inconsistent group labels")):
        if bad.any():  # the first patient, in order, with a bad row
            raise DataError(f"{pids[patient[bad.argmax()]]}: {what}")
    # each cell goes from its row in the file to its row in (patient, t) order
    rows, columns = np.divmod(np.frombuffer(flat, np.int64), n_features)
    features = np.full((n_rows, n_features), np.nan)
    features[np.argsort(order)[rows], columns] = np.frombuffer(values)
    visits = np.frombuffer(visits, np.int8)[order]
    b = bounds.tolist()
    patients = [PatientRecord(pid, GroupId(g), e - s - 1, visits[s:e],
                              features[s:e])
                for pid, g, s, e in zip(pids, group[b[:-1]].tolist(), b, b[1:])]
    return Dataset(patients, meta["n_groups"], n_features,
                   float(meta["bin_width"]), meta["pinned_group"])


def write_truth(truth, path) -> None:
    write_json({"params": truth.params, "latents": truth.latents,
                "meta": truth.meta}, path)


def read_truth(path) -> TruthSidecar:
    doc = read_json(path, _TRUTH_TYPES)
    return TruthSidecar(params=doc["params"], latents=doc["latents"],
                        meta=doc.get("meta", {}))


def fit_meta(data: Dataset, variant: ModelVariant, seed) -> dict:
    """``fit_meta.json``'s ``meta``: the dataset facts evaluation reads, the
    variant flags, the global column count and the seed (not read back)."""
    n_global = len(param_layout(data.n_features, data.n_groups,
                                data.pinned_group, variant)[0])
    return {**{k: getattr(data, k) for k in _SIDECAR_TYPES},
            "patient_ids": [p.patient_id for p in data.patients],
            "patient_groups": [p.group.index for p in data.patients],
            "horizon_by_patient": [p.horizon for p in data.patients],
            "variant": variant.flags, "n_global": n_global, "seed": seed}


def write_draws(draws: PosteriorDraws, path) -> None:
    path = Path(path)
    per_chain = draws.values.shape[0] // draws.n_chains
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["chain", "draw", *draws.names])
        for i, row in enumerate(draws.values):
            # repr round-trips every float exactly; \r\n as csv.writer ends
            # its lines
            cells = ",".join(map(repr, row.tolist()))
            fh.write(f"{i // per_chain},{i % per_chain},{cells}\r\n")
    write_json({"meta": draws.meta, "warnings": draws.warnings,
                "n_chains": draws.n_chains,
                "accept_stats": [float(a) for a in draws.accept_stats],
                "divergent": [bool(b) for b in draws.divergent]},
               path.with_name("fit_meta.json"), indent=None)


def _list_of(is_valid):
    return lambda v: isinstance(v, list) and all(map(is_valid, v))


def _object_of(is_valid):
    return lambda v: isinstance(v, dict) and all(map(is_valid, v.values()))


# the type test of each key of a JSON file; a nested table checks the object
# under its key, and fit_meta.json's meta holds the dataset sidecar's keys
_SIDECAR_TYPES = {"bin_width": _is_number,
                  **dict.fromkeys(("n_groups", "n_features", "pinned_group"),
                                  _is_int)}
_TRUTH_TYPES = dict.fromkeys(("params", "latents"), _object_of(_is_number))
_FIT_DOC_TYPES = {
    "n_chains": _is_int, "accept_stats": _list_of(_is_number),
    "divergent": _list_of(lambda v: isinstance(v, bool)),
    "warnings": lambda v: isinstance(v, list),
    "meta": {
        **_SIDECAR_TYPES, "n_global": _is_int,
        "patient_ids": _list_of(lambda v: isinstance(v, str)),
        **dict.fromkeys(("patient_groups", "horizon_by_patient"),
                        _list_of(_is_int)),
        "variant": _object_of(lambda v: isinstance(v, bool)),
    },
}


def _mistyped(doc, types: dict, prefix: str = "") -> list[str]:
    """The keys of ``types`` that ``doc`` lacks or mistypes."""
    doc = doc if isinstance(doc, dict) else {}
    wrong = []
    for k, is_valid in types.items():
        if isinstance(is_valid, dict):
            wrong += _mistyped(doc.get(k), is_valid, f"{prefix}{k}.")
        elif k not in doc or not is_valid(doc[k]):
            wrong.append(prefix + k)
    return wrong


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_json(path, types: dict):
    """The JSON document in ``path``, checked against ``types``; text that
    is not strict JSON (``NaN`` and ``Infinity`` are not) is a DataError."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except ValueError as exc:  # JSONDecodeError included
        raise DataError(f"{path}: {exc}") from None
    wrong = _mistyped(doc, types)
    if wrong:
        raise DataError(f"{path}: lacks or mistypes {wrong}")
    return doc


# The fewest bytes a row block of a draws table holds. forked_map with one
# child takes about 3 ms and loadtxt parses about 85 kB a ms (2-vCPU x86 VM):
# a 2.4 MB table took 21 ms in two blocks against 28 ms in one, a 1.2 MB
# table 20 ms against 14 ms.
_MIN_BLOCK_BYTES = 1 << 20


def _read_table(path, n_rows: int, n_cols: int) -> np.ndarray:
    """The (n_rows, n_cols) table under the header, parsed in one process
    or, past ``_MIN_BLOCK_BYTES`` a core, in one block of lines per usable
    core by ``forked_map``. Each block writes into one shared table, and the
    last asks for a row more, which shows a longer file. A block that does
    not parse to its shape (a blank line in it is one row short) leaves the
    verdict, and its error text, to the one-process read."""
    n = min(usable_cores(), n_rows, path.stat().st_size // _MIN_BLOCK_BYTES)
    if n > 1:
        table = np.frombuffer(mmap.mmap(-1, 8 * n_rows * n_cols)).reshape(
            n_rows, n_cols)  # anonymous, so shared with the children
        bounds = [n_rows * k // n for k in range(n + 1)]

        def parse(k):
            lo, hi = bounds[k], bounds[k + 1]
            with path.open() as fh, warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a block past a short file
                lines = islice(fh, 1 + lo, None if k == n - 1 else 1 + hi)
                try:
                    block = np.loadtxt(lines, delimiter=",", ndmin=2,
                                       max_rows=hi - lo + 1)
                except ValueError:
                    return False
            if block.shape != (hi - lo, n_cols):
                return False
            table[lo:hi] = block
            return True

        if all(forked_map(parse, range(n), n)):
            return table
    try:
        # a row more than expected shows a longer file
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                           max_rows=n_rows + 1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if table.shape[1] != n_cols:
        raise DataError(f"{path}: {table.shape[1]} columns, the header {n_cols}")
    if table.shape[0] != n_rows:
        raise DataError(f"{path}: {table.shape[0]} rows, {n_rows} accept_stats")
    return table


def read_draws(path) -> PosteriorDraws:
    """Read a draws table and its ``fit_meta.json``. Every key, type and
    cross-field rule of the pair is checked here; a break is a DataError."""
    path = Path(path)
    meta_path = path.with_name("fit_meta.json")
    doc = read_json(meta_path, _FIT_DOC_TYPES)
    with path.open(newline="") as fh:
        try:
            header = next(csv.reader(fh), [])
        except csv.Error as exc:  # a name past the csv module's field limit
            raise DataError(f"{path}: {exc}") from None
    if header[:2] != ["chain", "draw"]:
        raise DataError(f"{path}: not a draws table")
    names, meta, n_rows = header[2:], doc["meta"], len(doc["accept_stats"])
    pids, groups, horizons = (meta[k] for k in (
        "patient_ids", "patient_groups", "horizon_by_patient"))
    n_features, n_groups, n_chains = (meta["n_features"], meta["n_groups"],
                                      doc["n_chains"])
    variant = ModelVariant.from_flags(meta["variant"])
    # counts bounded by the header first: a huge one is not a huge layout
    in_header = (0 <= n_features and 3 * n_features + 2 <= len(names)
                 and 1 <= n_groups <= len(names))
    layout = None
    if in_header and variant is not None:
        layout = [name for name, _, _ in param_layout(
            n_features, n_groups, meta["pinned_group"], variant)[0]]
    rules = {
        "variant flags of a model variant": variant is not None,
        "n_features and n_groups within the header width": in_header,
        "per-patient lists of one length":
            len(pids) == len(groups) == len(horizons),
        "unique patient_ids": len(set(pids)) == len(pids),
        "pinned_group and patient_groups in 0..n_groups-1": all(
            0 <= g < n_groups for g in [meta["pinned_group"], *groups]),
        "horizons of at least 1": all(h >= 1 for h in horizons),
        "the columns of the canonical layout of meta, then the latents of "
        "patient_ids":
            layout is not None and names == layout + latent_names(pids),
        "n_global the layout's global count":
            layout is not None and meta["n_global"] == len(layout),
        "one divergent entry per accept_stats entry":
            len(doc["divergent"]) == n_rows,
        "n_chains of at least 1": n_chains >= 1,
    }
    broken = [rule for rule, holds in rules.items() if not holds]
    if broken:
        raise DataError(f"{meta_path}: needs {broken}")
    table = _read_table(path, n_rows, len(header))
    # NaN propagates through min and max; no table-sized mask is made
    finite = np.isfinite(table.min(axis=0)) & np.isfinite(table.max(axis=0))
    if not finite.all():
        raise DataError(f"{path}: non-finite draw in {header[int(np.argmin(finite))]}")
    if not np.array_equal(table[:, 0], np.repeat(np.arange(n_chains),
                                                 n_rows // n_chains)):
        raise DataError(f"{path}: chain ids are not {n_chains} equal blocks "
                        "in chain order")
    return PosteriorDraws(
        names=names, values=table[:, 2:],
        accept_stats=np.asarray(doc["accept_stats"]),
        divergent=np.asarray(doc["divergent"], dtype=bool),
        n_chains=n_chains, warnings=doc["warnings"], meta=meta)


def write_json(obj, path, indent=1) -> None:
    """Strict JSON with sorted keys: a NaN or infinity is a ValueError."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=indent,
                                     allow_nan=False) + "\n")


def write_table(path, header, rows) -> None:
    """Delimited-text report: tab-separated with one header line."""
    with Path(path).open("w") as fh:
        fh.write("\t".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_manifest(out_dir, command: str, args: dict, seed,
                   inputs: dict | None = None, config_text: str | None = None,
                   outputs=None) -> None:
    """Record everything needed to re-run a command: tool version, arguments,
    seed, a hash of the config content, and input-file hashes."""
    doc = {
        "tool": "dispro",
        "version": __version__,
        "command": command,
        "seed": seed,
        "args": args,
        "config_sha256": (hashlib.sha256(config_text.encode()).hexdigest()
                          if config_text is not None else None),
        "inputs": {str(k): hashlib.sha256(Path(v).read_bytes()).hexdigest()
                   for k, v in (inputs or {}).items()},
        "outputs": sorted(str(o) for o in (outputs or [])),
    }
    write_json(doc, Path(out_dir) / "manifest.json")
