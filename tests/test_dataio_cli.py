"""File-format round trips, manifest hashing, and CLI exit contracts."""

import csv
import errno
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispro import Dataset, SimConfig, simulate_dataset
from dispro.ablation import ModelVariant
from dispro.cli import main
from dispro.dataio import (
    fit_meta,
    read_dataset,
    read_draws,
    read_truth,
    write_dataset,
    write_draws,
    write_json,
    write_truth,
)
from dispro.fitting import fit_model
from dispro.sampler import PosteriorDraws, SamplerConfig, forked_map
from dispro.types import DataError

from conftest import (
    assert_no_children,
    make_patient,
    no_constant,
    reference_read_dataset,
)


@pytest.fixture(scope="module")
def sim_pair(tmp_path_factory):
    cfg = SimConfig(n_patients=15, n_bins=12, bin_width=1 / 12.0, seed=5)
    return simulate_dataset(cfg)


def edge_dataset():
    """Partly observed visit rows, signed zero, the smallest subnormals, the
    largest float, integer-valued floats and three groups."""
    nan = math.nan
    return Dataset([
        make_patient("a", 0, [1, 0, 1, 1],
                     [[-0.0, 5e-324, 1.7976931348623157e308],
                      [nan, nan, nan], [2.0, nan, 1e-7], [nan, nan, -3.0]]),
        make_patient("b", 1, [1, 1], [[2.0, -1.5, 0.1], [nan, 100.0, nan]]),
        make_patient("c", 2, [1, 0, 1], [[1 / 3, -2.0, 1e22],
                                         [nan, nan, nan],
                                         [-5e-324, nan, 0.0]]),
    ], 3, 3, 0.25, 0)


def assert_same_dataset(got, want):
    """The same patients in the same order, with the same groups, horizons,
    visits and feature bits (signed zeros and subnormals included), as
    plain ints where the fit's JSON files take them."""
    assert ((got.n_groups, got.n_features, got.bin_width, got.pinned_group)
            == (want.n_groups, want.n_features, want.bin_width,
                want.pinned_group))
    assert ([(p.patient_id, p.group, p.horizon) for p in got.patients]
            == [(p.patient_id, p.group, p.horizon) for p in want.patients])
    for p, q in zip(got.patients, want.patients):
        assert type(p.group.index) is type(p.horizon) is int
        assert (p.visits.dtype, p.features.dtype, p.features.shape) == (
            q.visits.dtype, q.features.dtype, q.features.shape)
        assert p.visits.tobytes() == q.visits.tobytes()
        assert p.features.tobytes() == q.features.tobytes()


def _table_rows(data, path):
    """The cells of ``data``'s table, header first, as written to ``path``."""
    write_dataset(data, path)
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# the text a fuzzed cell takes: numbers, near-numbers and other patients'
# ids, or any short printable text
_CELL_TEXT = st.one_of(
    st.sampled_from(["", "0", "1", "2", "-1", "1.5", " 1", "+1", "1_0", "01",
                     "nan", "inf", "-0.0", "5e-324", "1e400", "2147483648",
                     "a", "b", "c", "x0"]),
    st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=5))
# one edit of edge_dataset's table (10 rows of 7 cells): (edit, row, column,
# another row, text); rows and columns are taken modulo the table's size
# when the edit is made
_EDIT = st.tuples(st.sampled_from(["cell", "copy", "move", "drop",
                                   "duplicate"]),
                  st.integers(0, 9), st.integers(0, 6), st.integers(0, 9),
                  _CELL_TEXT)


def _edit_rows(rows, edits):
    """``rows`` with each edit made in turn: a cell (the header's included)
    set to a text or to the text of the same column in another row, or a
    data row dropped, duplicated or moved."""
    rows = [list(r) for r in rows]
    for edit, i, j, k, text in edits:
        if edit in ("cell", "copy"):
            row = rows[i % len(rows)]
            j %= len(row)
            other = rows[k % len(rows)]
            row[j] = text if edit == "cell" or j >= len(other) else other[j]
        elif len(rows) > 1:
            row = rows.pop(1 + i % (len(rows) - 1))
            if edit != "drop":
                rows.insert(1 + k % len(rows), row)
            if edit == "duplicate":
                rows.insert(1 + i % len(rows), list(row))
    return rows


class TestDatasetFormat:
    def test_roundtrip(self, sim_pair, tmp_path):
        data, _ = sim_pair
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert back.n_patients == data.n_patients
        assert back.bin_width == data.bin_width
        for a, b in zip(data.patients, back.patients):
            assert a.patient_id == b.patient_id
            assert a.group == b.group
            np.testing.assert_array_equal(a.visits, b.visits)
            np.testing.assert_allclose(a.features, b.features, equal_nan=True)

    def test_row_count_is_total_bins(self, sim_pair, tmp_path):
        data, _ = sim_pair
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        n_rows = sum(1 for _ in path.open()) - 1
        assert n_rows == sum(p.horizon + 1 for p in data.patients)

    def test_cohort_with_a_group_per_row_reads_back(self, tmp_path):
        """A cohort with as many groups as data rows, the most SimConfig
        allows, passes read_dataset's bound on n_groups."""
        data, _ = simulate_dataset(SimConfig(n_patients=2, n_bins=1,
                                             n_groups=4, seed=1))
        write_dataset(data, tmp_path / "dataset.csv")
        assert read_dataset(tmp_path / "dataset.csv").n_groups == 4

    @pytest.mark.parametrize("bin_width", [math.nan, math.inf])
    def test_nonfinite_bin_width_is_a_data_error(self, sim_pair, tmp_path,
                                                 bin_width):
        """JSON's NaN and Infinity parse as floats; read_dataset names the
        bad bin_width instead of handing it to the fit or the baselines."""
        data, _ = sim_pair
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        meta_path = tmp_path / "dataset.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "bin_width": bin_width}))
        with pytest.raises(DataError, match="bin_width"):
            read_dataset(path)

    def test_missing_cells_are_empty(self, sim_pair, tmp_path):
        data, _ = sim_pair
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        text = path.read_text().splitlines()
        # a non-visit bin line ends with d empty cells
        for line in text[1:]:
            cells = line.split(",")
            if cells[3] == "0":
                assert all(c == "" for c in cells[4:])
                break
        else:
            pytest.fail("no non-visit bin found")

    def test_edge_cells_match_the_per_cell_formatter(self, tmp_path):
        """The edge cohort's file is what formatting each numpy cell on its
        own wrote, and it reads back to equal arrays, as the per-row reader
        read it."""
        data = edge_dataset()
        patients = data.patients
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)

        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["patient_id", "group", "t", "D", "x0", "x1", "x2"])
        for p in patients:
            for t in range(p.horizon + 1):
                w.writerow([p.patient_id, p.group.index, t, int(p.visits[t]),
                            *["" if not np.isfinite(v)
                              else repr(float(np.float64(v)))
                              for v in p.features[t]]])
        assert path.read_bytes() == want.getvalue().encode()

        back = read_dataset(path)
        assert back.n_groups == 3
        for a, b in zip(patients, back.patients):
            assert (a.patient_id, a.group) == (b.patient_id, b.group)
            np.testing.assert_array_equal(a.visits, b.visits)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(np.signbit(a.features),
                                          np.signbit(b.features))
        assert_same_dataset(back, reference_read_dataset(path))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_golden_cohorts_read_as_the_per_row_reader(self, tmp_path, seed):
        """The two cohorts of tests/test_golden.py read to the Dataset the
        per-row reader gave, which is the simulated one."""
        data, _ = simulate_dataset(SimConfig(n_patients=30, n_bins=12,
                                             bin_width=1 / 12, seed=seed))
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        assert_same_dataset(read_dataset(path), reference_read_dataset(path))
        assert_same_dataset(read_dataset(path), data)

    def test_rows_in_any_order_read_the_same(self, tmp_path):
        """Rows reversed or shuffled, so that patients interleave and bins
        come out of order, read to the ordered table's patients in their
        order of first appearance."""
        data = edge_dataset()
        path = tmp_path / "dataset.csv"
        header, *rows = _table_rows(data, path)
        by_id = {p.patient_id: p for p in data.patients}
        rng = np.random.default_rng(7)
        for order in [range(len(rows))[::-1],
                      *(rng.permutation(len(rows)) for _ in range(4))]:
            shuffled = [rows[i] for i in order]
            _write_rows(path, [header, *shuffled])
            first = dict.fromkeys(row[0] for row in shuffled)
            want = Dataset([by_id[pid] for pid in first], 3, 3, 0.25, 0)
            assert_same_dataset(read_dataset(path), want)
            assert_same_dataset(reference_read_dataset(path), want)

    @pytest.mark.parametrize("row,column,text,message", [
        (2, 3, "2", "a: a D cell is not 0 or 1"),
        (2, 2, "0", "a: bins must cover 0..horizon"),
        (6, 1, "2", "b: inconsistent group labels"),
        (1, 4, "inf", "dataset.csv: line 2, column x0: 'inf' is not a "
                      "finite number"),
    ])
    def test_a_broken_row_names_its_patient_or_cell(self, tmp_path, row,
                                                    column, text, message):
        """A D cell other than 0 or 1, a repeated bin and a second group
        label name the patient; a non-finite feature names its cell."""
        path = tmp_path / "dataset.csv"
        rows = _table_rows(edge_dataset(), path)
        rows[row][column] = text
        _write_rows(path, rows)
        with pytest.raises(DataError) as caught:
            read_dataset(path)
        assert str(caught.value).endswith(message)

    @given(st.lists(_EDIT, min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_table_reads_as_the_per_row_reader(self, tmp_path_factory,
                                                      edits):
        """A valid table with cells replaced or emptied and rows dropped,
        duplicated or moved reads to the per-row reader's Dataset; where
        that reader raised anything, this one raises a DataError."""
        path = tmp_path_factory.mktemp("fuzz") / "dataset.csv"
        _write_rows(path, _edit_rows(_table_rows(edge_dataset(), path),
                                     edits))
        try:
            want = reference_read_dataset(path)
        except Exception:
            with pytest.raises(DataError):
                read_dataset(path)
        else:
            assert_same_dataset(read_dataset(path), want)

    def test_read_peak_memory_is_a_small_multiple_of_the_file(self,
                                                              tmp_path):
        """read_dataset keeps compact columns, not the table's text: a
        300-patient, 50-bin cohort reads at a traced peak under 6 times
        the file's size (the per-row reader peaked at 12 times)."""
        data, _ = simulate_dataset(SimConfig(n_patients=300, n_bins=50,
                                             bin_width=0.02, seed=20))
        path = tmp_path / "dataset.csv"
        write_dataset(data, path)
        tracemalloc.start()
        try:
            read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * path.stat().st_size

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_nonfinite_numbers(self, tmp_path, value):
        """NaN and the infinities are not JSON: the one writer raises
        rather than write them."""
        with pytest.raises(ValueError):
            write_json({"x": [1.0, {"y": value}]}, tmp_path / "out.json")

    def test_truth_roundtrip(self, sim_pair, tmp_path):
        _, truth = sim_pair
        path = tmp_path / "truth.json"
        write_truth(truth, path)
        back = read_truth(path)
        assert back.params == truth.params
        assert back.latents == truth.latents


class TestDrawsFormat:
    def test_roundtrip(self, sim_pair, tmp_path):
        data, _ = sim_pair
        draws = fit_model(data, config=SamplerConfig(chains=2, warmup=40,
                                                     draws=30, seed=1))
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        back = read_draws(path)
        assert back.names == draws.names
        np.testing.assert_allclose(back.values, draws.values, rtol=0,
                                   atol=0)  # repr round-trips floats exactly
        assert back.n_chains == draws.n_chains
        assert back.meta["bin_width"] == draws.meta["bin_width"]

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_roundtrip_every_variant(self, sim_pair, tmp_path, variant):
        """read_draws accepts what write_draws writes for each variant."""
        data, _ = sim_pair
        draws = fit_model(data, variant=variant,
                          config=SamplerConfig(chains=2, warmup=10, draws=4,
                                               max_leapfrog=16, seed=2))
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        back = read_draws(path)
        assert back.names == draws.names and back.meta == draws.meta
        assert np.array_equal(back.values, draws.values)
        assert np.array_equal(back.accept_stats, draws.accept_stats)
        assert np.array_equal(back.divergent, draws.divergent)
        assert (back.n_chains, back.warnings) == (draws.n_chains,
                                                  draws.warnings)

    def test_matches_csv_module_reference(self, tmp_path):
        """write_draws gives the bytes of a csv.writer loop over repr'd
        values, and read_draws the values of a csv.reader loop."""
        rng = np.random.default_rng(0)
        values = (rng.standard_normal((6, 9))
                  * 10.0 ** rng.integers(-300, 300, size=(6, 9)))
        values[0, 0] = 5e-324
        # one patient "p,1": the comma in its latent names forces csv quoting
        data = Dataset(patients=[make_patient("p,1", 0, [1, 0],
                                              [[0.0], [np.nan]])],
                       n_groups=1, n_features=1, bin_width=1.0)
        names = ["loading[0]", "feat_intercept[0]", "noise_var[0]",
                 "visit_intercept", "visit_severity", "rate_mean[0]",
                 "rate_sd[0]", "init_sev[p,1]", "rate[p,1]"]
        draws = PosteriorDraws(names=names, values=values,
                               accept_stats=np.ones(6),
                               divergent=np.zeros(6, dtype=bool), n_chains=2,
                               meta=fit_meta(data, ModelVariant.FULL, 0))
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["chain", "draw", *names])
        for i, row in enumerate(values):
            w.writerow([i // 3, i % 3, *[repr(float(v)) for v in row]])
        assert path.read_bytes() == ref.getvalue().encode()

        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        back = read_draws(path)
        assert back.names == rows[0][2:] == names
        assert np.array_equal(
            back.values, [[float(v) for v in r[2:]] for r in rows[1:]])

    def test_draws_respect_constraints(self, sim_pair, tmp_path):
        data, _ = sim_pair
        draws = fit_model(data, config=SamplerConfig(chains=2, warmup=40,
                                                     draws=30, seed=1))
        for name in draws.names:
            if name.startswith("noise_var") or "sd" in name:
                assert np.all(draws.column(name) > 0)
        assert np.all(draws.column("loading[0]") > 0)


def write_sim_config(path, **kwargs):
    doc = {"n_patients": 12, "n_bins": 10, "bin_width": 0.1, "seed": 3}
    doc.update(kwargs)
    Path(path).write_text(json.dumps(doc))
    return doc


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("dataset.csv", "dataset.csv.meta.json", "truth.json",
                     "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_manifest_hash_tracks_config(self, tmp_path):
        cfg1, cfg2 = tmp_path / "s1.json", tmp_path / "s2.json"
        write_sim_config(cfg1)
        write_sim_config(cfg2, n_patients=13)
        main(["simulate", "--config", str(cfg1), "--out", str(tmp_path / "o1")])
        main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "o2")])
        main(["simulate", "--config", str(cfg1), "--out", str(tmp_path / "o3")])
        h = [json.loads((tmp_path / f"o{i}" / "manifest.json").read_text())
             ["config_sha256"] for i in (1, 2, 3)]
        assert h[0] != h[1]
        assert h[0] == h[2]

    def test_fit_and_evaluate_pipeline(self, tmp_path):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, n_patients=14, seed=8)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        fit_dir = tmp_path / "fit"
        code = main(["fit", "--dataset", str(out / "dataset.csv"),
                     "--out", str(fit_dir), "--chains", "2", "--warmup", "60",
                     "--draws", "60", "--seed", "2", "--allow-nonconverged"])
        assert code == 0
        assert (fit_dir / "draws.csv").exists()
        diag = json.loads((fit_dir / "diagnostics.json").read_text())
        assert "max_global_rhat" in diag

        ev = tmp_path / "ev"
        code = main(["evaluate", "--mode", "disparity", "--fit", str(fit_dir),
                     "--years-per-unit", "8.5", "--out", str(ev)])
        assert code == 0
        assert (ev / "disparity.tsv").exists()
        assert main(["report", "--in", str(ev)]) == 0
        assert (ev / "report.md").exists()

    def test_fit_determinism(self, tmp_path):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, seed=21)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        for tag in ("f1", "f2"):
            assert main(["fit", "--dataset", str(out / "dataset.csv"),
                         "--out", str(tmp_path / tag), "--chains", "2",
                         "--warmup", "50", "--draws", "40", "--seed", "7",
                         "--allow-nonconverged"]) == 0
        assert (tmp_path / "f1" / "draws.csv").read_bytes() == \
            (tmp_path / "f2" / "draws.csv").read_bytes()

    def test_fit_files_independent_of_threads(self, tmp_path, monkeypatch):
        """``--threads 2`` runs the chains in two processes, on any number
        of cores, and writes the same bytes as ``--threads 1``."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, seed=21)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        for threads in ("1", "2"):
            assert main(["fit", "--dataset", str(out / "dataset.csv"),
                         "--out", str(tmp_path / threads), "--chains", "2",
                         "--warmup", "50", "--draws", "40", "--seed", "7",
                         "--threads", threads, "--allow-nonconverged"]) == 0
        for name in ("draws.csv", "fit_meta.json", "diagnostics.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_nondisparity_variant_drops_group_columns(self, tmp_path):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, seed=2)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        fit_dir = tmp_path / "fit_nd"
        assert main(["fit", "--dataset", str(out / "dataset.csv"),
                     "--out", str(fit_dir), "--variant", "no_disparities",
                     "--chains", "2", "--warmup", "40", "--draws", "30",
                     "--seed", "3", "--allow-nonconverged"]) == 0
        header = (fit_dir / "draws.csv").open().readline()
        assert "init_sev_mean[1]" not in header
        assert "visit_offset[1]" not in header
        assert "rate_mean[0]" not in header
        assert ",rate_mean," in header

    def test_usage_error_exit_1(self, tmp_path):
        assert main(["fit", "--dataset"]) == 1
        assert main(["evaluate", "--mode", "disparity",
                     "--out", str(tmp_path / "x")]) == 1

    def test_data_error_exit_2(self, tmp_path):
        assert main(["fit", "--dataset", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "y")]) == 2
        assert main(["report", "--in", str(tmp_path)]) == 2

    def test_fit_of_one_patient_exit_2(self, tmp_path, capsys):
        """One patient is refused by name before any numpy work, with no
        warning and no output directory; two patients fit."""
        for n in (1, 2):
            cfg = tmp_path / f"sim{n}.json"
            write_sim_config(cfg, n_patients=n, n_bins=5, bin_width=0.2,
                             seed=1)
            main(["simulate", "--config", str(cfg),
                  "--out", str(tmp_path / f"sim{n}")])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--dataset", str(tmp_path / "sim1/dataset.csv"),
                         "--out", str(tmp_path / "fit1"), "--chains", "2",
                         "--warmup", "10", "--draws", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "at least 2 patients" in err
        assert "Warning" not in err and caught == []
        assert not (tmp_path / "fit1").exists()
        assert main(["fit", "--dataset", str(tmp_path / "sim2/dataset.csv"),
                     "--out", str(tmp_path / "fit2"), "--chains", "2",
                     "--warmup", "10", "--draws", "8",
                     "--allow-nonconverged"]) == 0

    @pytest.mark.parametrize("chains,draws", [(1, 20), (2, 3), (2, 4), (2, 7)])
    def test_fit_without_rhat_exit_1_before_sampling(self, tmp_path, chains,
                                                     draws):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, n_patients=5)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        code = main(["fit", "--dataset", str(out / "dataset.csv"),
                     "--out", str(tmp_path / "fit"), "--chains", str(chains),
                     "--warmup", "20", "--draws", str(draws), "--seed", "1"])
        assert code == 1
        assert not (tmp_path / "fit" / "draws.csv").exists()

    def test_convergence_exit_3(self, tmp_path):
        cfg = tmp_path / "sim.json"
        write_sim_config(cfg, seed=4)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        code = main(["fit", "--dataset", str(out / "dataset.csv"),
                     "--out", str(tmp_path / "fit3"), "--chains", "2",
                     "--warmup", "12", "--draws", "12", "--seed", "1"])
        assert code == 3

    def test_oracle_failure_exit_4(self, tmp_path, monkeypatch):
        import dispro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "verify_theorems",
                            lambda: (False, [{"theorem": "rate",
                                              "shift": 1.0, "noise": 1.0,
                                              "t": 0.5,
                                              "e_population": 0.0,
                                              "e_group": 0.0,
                                              "expected_sign": 1,
                                              "holds": False}]))
        code = main(["evaluate", "--mode", "oracles",
                     "--out", str(tmp_path / "oz")])
        assert code == 4

    def test_oracle_precision_error_exit_4(self, tmp_path, capsys,
                                           monkeypatch):
        """A tolerance that the quadrature cannot meet is an oracle failure
        with a message, not a traceback."""
        from dispro import oracles

        monkeypatch.setattr(oracles, "TOLERANCE", 1e-30)
        assert main(["evaluate", "--mode", "oracles",
                     "--out", str(tmp_path / "oz")]) == 4
        assert "oracle error: quadrature error bound" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"n_patients": 5, "bogus_key": 1},
        {"priors": [1]},
        {"priors": {"bogus_role": {"family": "normal", "mu": 0, "sigma": 1}}},
        {"n_patients": "10"},
        {"n_features": 2.5},
        {"bin_width": "x"},
        {"n_patients": 1e9},
        {"bin_width": math.nan},
        {"priors": {"loading": {"family": "normal", "mu": "x", "sigma": 1}}},
        {"seed": -5},
        {"n_features": 10 ** 20},
    ], ids=["unknown-key", "priors-list", "unknown-prior-role",
            "n_patients-string", "n_features-float", "bin_width-string",
            "n_patients-1e9", "bin_width-nan", "prior-mu-string",
            "seed-negative", "n_features-1e20"])
    def test_invalid_config_key_exit_1(self, tmp_path, capsys, doc):
        """An unknown key (``priors`` among them: there is one prior set),
        a value of the wrong type and a value out of range end in exit 1
        before ``--out`` is made."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "z")]) == 1
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()

    def test_config_not_json_exit_1(self, tmp_path, capsys):
        """A config that does not parse as JSON is a configuration error,
        as one that parses to the wrong thing is, before ``--out`` is
        made."""
        cfg = tmp_path / "sim.json"
        cfg.write_text('{"n_patients": 10,}')
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "z")]) == 1
        assert ("configuration error: simulate config is not JSON"
                in capsys.readouterr().err)
        assert not (tmp_path / "z").exists()

    def test_svg_output_deterministic(self, tmp_path):
        from dispro.svgplot import svg_scatter

        pts = ({"a": ([0.0, 1.0, 2.0], [0.1, 0.9, 2.2])})
        svg_scatter(tmp_path / "p1.svg", pts, title="t", xlabel="x",
                    ylabel="y")
        svg_scatter(tmp_path / "p2.svg", pts, title="t", xlabel="x",
                    ylabel="y")
        b1 = (tmp_path / "p1.svg").read_bytes()
        assert b1 == (tmp_path / "p2.svg").read_bytes()
        assert b1.startswith(b"<svg")



def _cut_last_cell(lines, *rows):
    for i in rows:
        lines[i] = lines[i].rsplit(",", 1)[0]


def _set_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)


def _first_observed_row(lines):
    return next(i for i, line in enumerate(lines[1:], 1)
                if line.split(",")[4] != "")


def _set_first_group(lines, value):
    """Every row of the first patient gets group label ``value``."""
    first = lines[1].split(",")[0]
    for i, line in enumerate(lines):
        if line.split(",")[0] == first:
            _set_cell(lines, i, 1, value)


def _drop_last_patient(lines):
    last = lines[-1].split(",")[0]
    lines[:] = [line for line in lines if line.split(",")[0] != last]


def _flags_of_no_variant(lines, meta):
    """Flags (False, True, False), which name no model variant, with the
    columns and n_global of the layout they give: only the flags are
    wrong."""
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if not name.startswith(
        ("init_sev_mean[", "init_sev_sd[", "visit_offset["))]
    lines[:] = [",".join(line.split(",")[i] for i in keep) for line in lines]
    meta["meta"]["n_global"] -= len(header) - len(keep)
    meta["meta"]["variant"].update(group_init=False, group_visits=False)


def _edit_first(meta, key, edit):
    """Replace the first patient's entry of ``meta.<key>`` by its edit."""
    values = meta["meta"][key]
    values[0] = edit(values[0])


def _drop_one_latent(truth):
    truth["latents"].pop(next(k for k in sorted(truth["latents"])
                              if k.startswith("rate[")))


class _NewDocument:
    """A fault's replacement for the whole JSON sidecar."""

    def __init__(self, value):
        self.value = value


# kind -> (table, JSON sidecar, the command that reads both); the fit read
# is the table's directory
FILES = {"dataset": ("dataset.csv", "dataset.csv.meta.json", "fit"),
         "draws": ("draws.csv", "fit_meta.json", "disparity"),
         "bias_draws": ("draws.csv", "fit_meta.json", "bias"),
         "bias_no_disparities_draws": ("no_disparities/draws.csv",
                                       "no_disparities/fit_meta.json", "bias"),
         "disparity_no_disparities_draws": (
             "no_disparities/draws.csv", "no_disparities/fit_meta.json",
             "disparity_dataset"),
         "recovery_draws": ("draws.csv", "fit_meta.json", "recovery"),
         "bias_dataset": ("dataset.csv", "dataset.csv.meta.json", "bias"),
         "truth": ("dataset.csv", "truth.json", "bias"),
         "no_visit_truth": ("no_visit/draws.csv", "truth.json", "bias"),
         "recovery_truth": ("dataset.csv", "truth.json", "recovery")}
# name -> (kind, fault): each fault edits the table's lines or its sidecar
MALFORMED = {
    "short_row": ("dataset", lambda lines, meta: _cut_last_cell(lines, 5)),
    "negative_group": ("dataset", lambda lines, meta: _set_first_group(lines,
                                                                       "-1")),
    # a cell int() or float() cannot read is a data error that names the
    # file, the line and the column (UNPARSED_COLUMN)
    "group_not_int": ("dataset", lambda lines, meta: _set_first_group(lines,
                                                                      "1.5")),
    "bin_not_int": ("dataset", lambda lines, meta: _set_cell(lines, 2, 2,
                                                             "1.5")),
    "feature_not_float": ("dataset", lambda lines, meta: _set_cell(
        lines, _first_observed_row(lines), 4, "abc")),
    # the first patient's second row: its bin repeats the first one's, or
    # its group differs
    "bin_repeated": ("dataset", lambda lines, meta: _set_cell(lines, 2, 2,
                                                              "0")),
    "group_differs_within_patient": ("dataset", lambda lines, meta: _set_cell(
        lines, 2, 1, str(1 - int(lines[2].split(",")[1])))),
    **{f"sidecar_without_{key}": ("dataset", lambda lines, meta, k=key:
                                  meta.pop(k))
       for key in ("bin_width", "n_groups", "n_features", "pinned_group")},
    **{f"{v}_cell": ("dataset", lambda lines, meta, v=v: _set_cell(
        lines, _first_observed_row(lines), 4, v))
       for v in ("inf", "-inf", "nan")},
    "visit_300": ("dataset", lambda lines, meta: _set_cell(lines, 2, 3, "300")),
    # a cell past the csv module's 131,072-character field limit
    "dataset_field_past_csv_limit": ("dataset", lambda lines, meta: _set_cell(
        lines, 1, 0, "p" * 200_000)),
    "draws_header_field_past_csv_limit": ("draws", lambda lines, meta:
                                          _set_cell(lines, 0, 2, "x" * 200_000)),
    # a 0xff byte, which no UTF-8 text holds, in the last row's patient id
    # (past the decoder's first 8 kB read) and in a draws header name
    "dataset_patient_id_not_utf8": ("dataset", lambda lines, meta: _set_cell(
        lines, -1, 0, "p" * 1000 + "\udcff")),
    "draws_header_not_utf8": ("draws", lambda lines, meta: _set_cell(
        lines, 0, 2, "x\udcff")),
    # JSON's NaN and Infinity parse as floats
    **{f"bin_width_{name}": ("dataset", lambda lines, meta, v=value:
                             meta.update(bin_width=v))
       for name, value in (("nan", math.nan), ("inf", math.inf))},
    # more groups than data rows: per-group arrays would be sized by the
    # sidecar alone
    "sidecar_n_groups_huge": ("dataset", lambda lines, meta: meta.update(
        n_groups=10 ** 10)),
    "sidecar_n_groups_above_rows": ("dataset", lambda lines, meta: meta.update(
        n_groups=len(lines))),
    # an integer past the float range is no number either
    "bin_width_huge_int": ("dataset", lambda lines, meta: meta.update(
        bin_width=10 ** 400)),
    "recovery_draws_meta_bin_width_huge_int": (
        "recovery_draws", lambda lines, meta: meta["meta"].update(
            bin_width=10 ** 400)),
    **{f"{kind}_{name}": (kind, lambda lines, truth, k=key, v=value: truth[
        k].update({min(truth[k]): v}))
       for kind in ("truth", "recovery_truth")
       for name, key, value in (("latent_nan", "latents", math.nan),
                                ("param_huge_int", "params", 10 ** 400))},
    **{f"fit_meta_without_{key}": ("draws", lambda lines, meta, k=key:
                                   meta.pop(k))
       for key in ("n_chains", "accept_stats", "divergent", "warnings")},
    **{f"fit_meta_without_{key}": ("draws", lambda lines, meta, k=key:
                                   meta["meta"].pop(k))
       for key in ("bin_width", "n_groups", "n_features", "pinned_group",
                   "patient_ids", "patient_groups", "horizon_by_patient",
                   "variant", "n_global")},
    **{f"fit_meta_without_variant_{flag}": ("draws", lambda lines, meta, f=flag:
                                            meta["meta"]["variant"].pop(f))
       for flag in ("group_init", "group_rates", "group_visits")},
    **{f"sidecar_{key}_{name}": ("dataset", lambda lines, meta, k=key, v=value:
                                 meta.update({k: v}))
       for key, name, value in (("n_features", "null", None),
                                ("pinned_group", "list", [0]),
                                ("pinned_group", "float", 0.5),
                                ("n_groups", "bool", True),
                                ("bin_width", "string", "0.05"))},
    **{f"fit_meta_{key}_{name}": ("draws", lambda lines, meta, k=key, v=value:
                                  meta.update({k: v}))
       for key, name, value in (("meta", "null", None),
                                ("n_chains", "string", "2"),
                                ("accept_stats", "number", 0.5),
                                ("divergent", "bool", False),
                                ("warnings", "string", "none"))},
    "ragged_draws_row": ("draws", lambda lines, meta: _cut_last_cell(lines, 3)),
    "draws_rows_short_of_header": ("draws", lambda lines, meta: _cut_last_cell(
        lines, *range(1, len(lines)))),
    "unparsable_draw": ("draws", lambda lines, meta: _set_cell(lines, 3, 2, "x")),
    "draws_row_missing": ("draws", lambda lines, meta: lines.pop()),
    "draws_row_extra": ("draws", lambda lines, meta: lines.append(lines[-1])),
    "dataset_patients_differ_from_fit": ("bias_dataset", lambda lines, meta:
                                         _drop_last_patient(lines)),
    "truth_without_a_latent": ("truth", lambda lines, truth:
                               _drop_one_latent(truth)),
    # the parameter that names a variant's underserved group, for one group
    "truth_without_init_sev_mean_0": ("truth", lambda lines, truth: truth[
        "params"].pop("init_sev_mean[0]")),
    "no_visit_truth_without_visit_offset_1": (
        "no_visit_truth", lambda lines, truth: truth["params"].pop(
            "visit_offset[1]")),
    "recovery_truth_without_a_latent": ("recovery_truth", lambda lines, truth:
                                        _drop_one_latent(truth)),
    **{f"truth_without_{key}": ("truth", lambda lines, truth, k=key:
                                truth.pop(k))
       for key in ("params", "latents")},
    **{f"{kind}_{name}": (kind, fault)
       for kind in ("truth", "recovery_truth")
       for name, fault in (
           ("latents_null", lambda lines, truth: truth.update(latents=None)),
           ("params_null", lambda lines, truth: truth.update(params=None)),
           ("not_an_object", lambda lines, truth: _NewDocument(3)),
           ("string_latents", lambda lines, truth: truth["latents"].update(
               {k: str(v) for k, v in truth["latents"].items()})))},
    **{f"{kind}_meta_{key}_{name}": (kind, lambda lines, meta, k=key, v=value:
                                     meta["meta"].update({k: v}))
       for key, name, value, kinds in (
           ("variant", "null", None, ("draws", "bias_draws", "recovery_draws")),
           ("patient_ids", "null", None, ("bias_draws", "recovery_draws")),
           ("n_global", "string", "x", ("bias_draws", "recovery_draws")),
           ("patient_groups", "null", None, ("recovery_draws",)),
           ("horizon_by_patient", "null", None, ("recovery_draws",)))
       for kind in kinds},
    # fit metadata that contradicts itself or the draws table
    **{f"{kind}_{name}": (kind, fault)
       for kind in ("draws", "bias_draws", "recovery_draws")
       for name, fault in (
           ("meta_n_global_huge", lambda lines, meta: meta["meta"].update(
               n_global=10 ** 6)),
           ("meta_n_global_negative", lambda lines, meta: meta["meta"].update(
               n_global=-5)),
           ("meta_n_global_off_by_two", lambda lines, meta: meta["meta"].update(
               n_global=meta["meta"]["n_global"] - 2)),
           ("n_chains_0", lambda lines, meta: meta.update(n_chains=0)),
           ("n_chains_3", lambda lines, meta: meta.update(n_chains=3)),
           ("divergent_short", lambda lines, meta: meta["divergent"].pop()),
           ("meta_horizon_by_patient_short", lambda lines, meta:
            meta["meta"]["horizon_by_patient"].pop()),
           ("meta_horizon_by_patient_strings", lambda lines, meta:
            meta["meta"].update(horizon_by_patient=[
                str(h) for h in meta["meta"]["horizon_by_patient"]])),
           ("meta_patient_groups_out_of_range", lambda lines, meta:
            meta["meta"]["patient_groups"].__setitem__(
                0, meta["meta"]["n_groups"])))},
    "draws_meta_pinned_group_out_of_range": ("draws", lambda lines, meta:
                                             meta["meta"].update(
                                                 pinned_group=-1)),
    "recovery_draws_meta_horizon_zero": (
        "recovery_draws",
        lambda lines, meta: meta["meta"]["horizon_by_patient"].__setitem__(0, 0)),
    "draws_column_name_repeated": ("draws", lambda lines, meta: _set_cell(
        lines, 0, 3, lines[0].split(",")[2])),
    "draws_chain_ids_out_of_order": ("draws", lambda lines, meta: _set_cell(
        lines, 1, 0, "1")),
    # a non-finite draw would reach summary.json as NaN, which is not JSON
    **{f"draws_{v}": ("draws", lambda lines, meta, v=v: _set_cell(
        lines, 1, lines[0].split(",").index("init_sev_mean[1]"), v))
       for v in ("nan", "inf")},
    "draws_accept_stats_strings": ("draws", lambda lines, meta: meta.update(
        accept_stats=[str(a) for a in meta["accept_stats"]])),
    # fit metadata whose layout contradicts the global columns
    "draws_meta_n_groups_plus_one": ("draws", lambda lines, meta: meta[
        "meta"].update(n_groups=meta["meta"]["n_groups"] + 1)),
    "draws_meta_pinned_group_flipped": ("draws", lambda lines, meta: meta[
        "meta"].update(pinned_group=1 - meta["meta"]["pinned_group"])),
    **{f"bias_draws_meta_variant_{flag}_false": (
        "bias_draws", lambda lines, meta, f=flag: meta["meta"]["variant"]
        .update({f: False})) for flag in ("group_visits", "group_init")},
    "recovery_draws_meta_n_features_minus_one": (
        "recovery_draws", lambda lines, meta: meta["meta"].update(
            n_features=meta["meta"]["n_features"] - 1)),
    **{f"{kind}_meta_n_groups_huge": (kind, lambda lines, meta: meta[
        "meta"].update(n_groups=10 ** 9))
       for kind in ("recovery_draws", "bias_draws")},
    "bias_draws_meta_variant_unknown": ("bias_draws", lambda lines, meta:
                                        meta["meta"].update(variant={
                                            "group_init": False,
                                            "group_rates": True,
                                            "group_visits": False})),
    **{f"{kind}_meta_variant_unknown_layout_consistent": (
        kind, _flags_of_no_variant) for kind in ("draws", "recovery_draws")},
    # a fit of another cohort with the same patient ids
    "bias_draws_meta_patient_group_flipped": ("bias_draws", lambda lines, meta:
                                              _edit_first(meta, "patient_groups",
                                                          lambda g: 1 - g)),
    "bias_draws_meta_horizon_plus_one": ("bias_draws", lambda lines, meta:
                                         _edit_first(meta, "horizon_by_patient",
                                                     lambda h: h + 1)),
    # the columns of a no_disparities fit do not depend on the pinned group
    **{f"{kind}_meta_pinned_group_flipped": (
        kind, lambda lines, meta: meta["meta"].update(
            pinned_group=1 - meta["meta"]["pinned_group"]))
       for kind in ("bias_no_disparities_draws",
                    "disparity_no_disparities_draws")},
}
# the column of each MALFORMED case's unparsed cell, named in its message
UNPARSED_COLUMN = {"group_not_int": "group", "bin_not_int": "t",
                   "feature_not_float": "x0"}
# the MALFORMED cases whose message names the offset of the 0xff byte
UNDECODED = {"dataset_patient_id_not_utf8", "draws_header_not_utf8"}


@pytest.fixture(scope="module")
def valid_fit(sim_pair, tmp_path_factory):
    """A dataset, its truth, a small simulate config and a short full-model
    fit of the dataset, side by side, to corrupt; short fits of two more
    variants in subdirectories named after them."""
    data, truth = sim_pair
    fit_dir = tmp_path_factory.mktemp("valid_fit")
    write_dataset(data, fit_dir / "dataset.csv")
    write_truth(truth, fit_dir / "truth.json")
    (fit_dir / "sim.json").write_text('{"n_patients": 5, "n_bins": 3}')
    for variant in (ModelVariant.FULL, ModelVariant.NO_VISIT,
                    ModelVariant.NO_DISPARITIES):
        out = fit_dir if variant is ModelVariant.FULL else fit_dir / variant.value
        out.mkdir(exist_ok=True)
        draws = fit_model(data, variant=variant, config=SamplerConfig(
            chains=2, warmup=20, draws=10, seed=1))
        write_draws(draws, out / "draws.csv")
    return fit_dir


def _no_draws_read(path):
    raise AssertionError(f"read {path} after a bad truth")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(valid_fit, tmp_path, monkeypatch, capsys,
                                case):
    """Every malformed dataset, draws or truth file, and every dataset,
    fit and truth that disagree on the patients or a fit whose meta is not
    that of the dataset given to bias or disparity mode, ends in exit 2,
    not a traceback or a silent read. Bias mode finds a bad truth before it
    reads any draws. An unparsed dataset cell is named by file, line and
    column, a byte that does not decode by file and offset."""
    import dispro.cli as cli

    kind, fault = MALFORMED[case]
    if kind in ("truth", "no_visit_truth"):
        monkeypatch.setattr(cli, "read_draws", _no_draws_read)
    table, sidecar, command = FILES[kind]
    lines = (valid_fit / table).read_text().splitlines()
    meta = json.loads((valid_fit / sidecar).read_text())
    new = fault(lines, meta)
    if isinstance(new, _NewDocument):
        meta = new.value
    bad = tmp_path / "bad"
    shutil.copytree(valid_fit, bad)
    # a lone surrogate escape is written as the byte it stands for
    (bad / table).write_text("\n".join(lines) + "\n",
                             errors="surrogateescape")
    (bad / sidecar).write_text(json.dumps(meta))
    fit = str((bad / table).parent)
    argv = {"fit": ["fit", "--dataset", str(bad / "dataset.csv"),
                    "--chains", "2", "--warmup", "10", "--draws", "10"],
            "disparity": ["evaluate", "--mode", "disparity", "--fit",
                          fit, "--years-per-unit", "1"],
            "disparity_dataset": ["evaluate", "--mode", "disparity", "--fit",
                                  fit, "--years-per-unit", "1", "--dataset",
                                  str(bad / "dataset.csv")],
            "bias": ["evaluate", "--mode", "bias", "--fit", fit,
                     "--dataset", str(bad / "dataset.csv"),
                     "--truth", str(bad / "truth.json")],
            "recovery": ["evaluate", "--mode", "recovery",
                         *["--fit", fit, "--truth",
                           str(bad / "truth.json")] * 2]}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if case in UNPARSED_COLUMN:
        assert f"data error: {bad / table}: line " in err
        assert f", column {UNPARSED_COLUMN[case]}: '" in err
    if case in UNDECODED:
        at = (bad / table).read_bytes().index(b"\xff")
        assert at > (8192 if kind == "dataset" else 0)
        assert f"data error: {bad / table}: byte {at} is not " in err


@pytest.mark.parametrize("mode", ["bias", "recovery"])
def test_evaluate_holds_one_fit_at_a_time(valid_fit, tmp_path, monkeypatch,
                                          mode):
    """Modes that read several fits free each fit's draws before reading
    the next, so their memory does not grow with the number of fits."""
    import dispro.cli as cli

    read, seen = cli.read_draws, []

    def tracked(path):
        assert all(ref() is None for ref in seen), "a previous fit is alive"
        draws = read(path)
        seen.append(weakref.ref(draws))
        return draws

    monkeypatch.setattr(cli, "read_draws", tracked)
    fits = [str(valid_fit / d) for d in ("", "no_visit", "no_disparities")]
    truth = ["--truth", str(valid_fit / "truth.json")]
    argv = {"bias": [*(a for f in fits for a in ("--fit", f)), *truth,
                     "--dataset", str(valid_fit / "dataset.csv")],
            "recovery": [a for f in fits for a in ("--fit", f, *truth)]}
    assert main(["evaluate", "--mode", mode, *argv[mode],
                 "--out", str(tmp_path / "out")]) == 0
    assert len(seen) == 3



def _resident_mib():
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="glibc and /proc")
def test_a_freed_table_leaves_resident_memory(tmp_path):
    """After main, a freed 20 MiB block (the size of a 4000-draw table) is
    returned at once, also after a larger freed block has raised glibc's own
    threshold past it, so peak memory does not hang on heap layout."""
    main(["report", "--in", str(tmp_path)])
    np.ones(3 << 20)  # 24 MiB, freed at once
    before = _resident_mib()
    table = np.ones(20 << 17)
    assert _resident_mib() - before > 19
    del table
    assert _resident_mib() - before < 1

def test_recovery_of_one_truth_writes_strict_json(valid_fit, tmp_path, capsys):
    """Two trials of one truth leave every Pearson r undefined: the summary
    holds null for their mean, not NaN, which is not JSON."""
    trial = ["--fit", str(valid_fit), "--truth", str(valid_fit / "truth.json")]
    assert main(["evaluate", "--mode", "recovery", *trial, *trial,
                 "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=no_constant)
    assert summary["mean_pearson_r"] is None
    assert summary["mean_slope"] is not None
    assert "mean r undefined" in capsys.readouterr().out


def test_bias_repeated_variant_exit_1(valid_fit, tmp_path):
    """Bias mode scores each variant once: a second fit of the same variant
    is a usage error, not a silent replacement of the first."""
    assert main(["evaluate", "--mode", "bias", "--fit", str(valid_fit),
                 "--fit", str(valid_fit), "--dataset",
                 str(valid_fit / "dataset.csv"), "--truth",
                 str(valid_fit / "truth.json"),
                 "--out", str(tmp_path / "out")]) == 1


def _cut_fit(valid_fit, out, n_chains, per_chain):
    """A copy of the full-model fit with its first ``per_chain`` draws of
    its first ``n_chains`` chains, beside the dataset and truth."""
    shutil.copytree(valid_fit, out)
    draws = read_draws(valid_fit / "draws.csv")
    rows = (np.arange(n_chains)[:, None] * (draws.values.shape[0]
                                            // draws.n_chains)
            + np.arange(per_chain)).ravel()
    write_draws(PosteriorDraws(draws.names, draws.values[rows],
                               draws.accept_stats[rows],
                               draws.divergent[rows], n_chains,
                               meta=draws.meta), out / "draws.csv")
    return out


@pytest.mark.parametrize("n_chains, per_chain", [(1, 10), (2, 3)],
                         ids=["one_chain", "three_draws"])
def test_bias_of_a_fit_without_rhat_exit_2(valid_fit, tmp_path, capsys,
                                           n_chains, per_chain):
    """Bias mode reports each fit's worst R-hat, which needs 2 chains of 4
    draws: a fit with fewer is a data error that names the fit, and no
    ``--out`` is made. Disparity and recovery mode still read it."""
    fit = _cut_fit(valid_fit, tmp_path / "cut", n_chains, per_chain)
    assert main(["evaluate", "--mode", "bias", "--fit", str(fit),
                 "--dataset", str(fit / "dataset.csv"),
                 "--truth", str(fit / "truth.json"),
                 "--out", str(tmp_path / "bias")]) == 2
    err = capsys.readouterr().err
    assert f"data error: {fit}: bias mode needs a fit of at least 2" in err
    assert not (tmp_path / "bias").exists()
    trial = ["--fit", str(fit), "--truth", str(fit / "truth.json")]
    assert main(["evaluate", "--mode", "recovery", *trial, *trial,
                 "--out", str(tmp_path / "recovery")]) == 0
    assert main(["evaluate", "--mode", "disparity", "--fit", str(fit),
                 "--years-per-unit", "1",
                 "--out", str(tmp_path / "disparity")]) == 0


def test_disparity_of_a_one_group_fit_exit_2(sim_pair, tmp_path, capsys):
    """Disparity mode compares each group with the reference group, so a
    fit of a one-group dataset is a data error that names the fit, and no
    ``--out`` is made."""
    data, _ = sim_pair
    one = Dataset([make_patient(p.patient_id, 0, p.visits, p.features)
                   for p in data.patients], 1, data.n_features,
                  data.bin_width)
    fit = tmp_path / "fit"
    fit.mkdir()
    write_draws(fit_model(one, config=SamplerConfig(
        chains=2, warmup=20, draws=10, seed=1)), fit / "draws.csv")
    assert main(["evaluate", "--mode", "disparity", "--fit", str(fit),
                 "--years-per-unit", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"data error: {fit}: disparity mode needs a fit of at least 2 "
            "groups, it has 1") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_disparity_delay_past_float_range_is_null(valid_fit, tmp_path):
    """A gap of 1e6 rate units is past the float range at 1e308 years per
    unit: disparity mode writes ``delay_years`` as null, not Infinity, and
    writes its summary and manifest."""
    bad = tmp_path / "bad"
    shutil.copytree(valid_fit, bad)
    lines = (bad / "draws.csv").read_text().splitlines()
    col = lines[0].split(",").index("init_sev_mean[1]")
    for row in range(1, len(lines)):
        _set_cell(lines, row, col, "1e6")
    (bad / "draws.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["evaluate", "--mode", "disparity", "--fit", str(bad),
                 "--years-per-unit", "1e308", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=no_constant)
    entry = summary["per_group"]["1"]
    assert entry["delay_years"] is None
    assert math.isfinite(entry["delay_time_units"])
    assert (out / "manifest.json").exists()


def test_disparity_ratio_past_float_range_is_null(valid_fit, tmp_path):
    """A visit offset of 800 has a visit-rate ratio past the float range:
    disparity mode writes it and its interval bounds as null, not a
    traceback or Infinity."""
    bad = tmp_path / "bad"
    shutil.copytree(valid_fit, bad)
    lines = (bad / "draws.csv").read_text().splitlines()
    col = lines[0].split(",").index("visit_offset[1]")
    for row in range(1, len(lines)):
        _set_cell(lines, row, col, "800.0")
    (bad / "draws.csv").write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--mode", "disparity", "--fit", str(bad),
                 "--years-per-unit", "1", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=no_constant)
    entry = summary["per_group"]["1"]
    assert entry["visit_offset"] == 800.0
    assert entry["visit_rate_ratio"] is None
    assert entry["visit_rate_ratio_ci"] == [None, None]


@pytest.mark.parametrize("fit", ["", "no_disparities"],
                         ids=["full", "no_disparities"])
def test_disparity_dataset_accepts_its_fits(valid_fit, tmp_path, fit):
    """Disparity mode with ``--dataset`` still reads a fit of that
    dataset."""
    assert main(["evaluate", "--mode", "disparity", "--fit",
                 str(valid_fit / fit), "--years-per-unit", "1", "--dataset",
                 str(valid_fit / "dataset.csv"),
                 "--out", str(tmp_path / "out")]) == 0


# options that name no valid scale, feature subset, training window or
# variant, and removed options; {fit} is the valid_fit directory
BAD_OPTIONS = {
    **{f"years_per_unit_{name}": ["evaluate", "--mode", "disparity", "--fit",
                                  "{fit}", "--years-per-unit", value]
       for name, value in (("nan", "nan"), ("negative", "-1"))},
    "fit_seed_negative": ["fit", "--dataset", "{fit}/dataset.csv",
                          "--chains", "2", "--warmup", "10", "--draws", "10",
                          "--seed", "-1"],
    "simulate_seed_negative": ["simulate", "--config", "{fit}/sim.json",
                               "--seed", "-3"],
    **{f"{name}_removed": ["fit", "--dataset", "{fit}/dataset.csv",
                           "--chains", "2", "--warmup", "10", "--draws", "10",
                           option, value]
       for name, option, value in (("priors", "--priors", "weak"),
                                   ("target_accept", "--target-accept", "0.9"))},
    # removed options, with values they once took or rejected
    **{f"tol_{name}": ["evaluate", "--mode", "oracles", "--tol", value]
       for name, value in (("0", "0"), ("negative", "-1"), ("nan", "nan"))},
    "rhat_threshold_nan": ["fit", "--dataset", "{fit}/dataset.csv",
                           "--chains", "2", "--warmup", "10", "--draws", "10",
                           "--rhat-threshold", "nan"],
    **{f"quantile_{name}": ["evaluate", "--mode", "bias", "--fit", "{fit}",
                            "--dataset", "{fit}/dataset.csv",
                            "--truth", "{fit}/truth.json", "--quantile", value]
       for name, value in (("0", "0"), ("1", "1"), ("nan", "nan"))},
    **{f"informative_{name}": ["evaluate", "--mode", "baselines", "--dataset",
                               "{fit}/dataset.csv", "--informative", value]
       for name, value in (("letters", "a,b"), ("fraction", "1.5"),
                           ("negative", "-1"), ("past_last_feature", "99"),
                           ("empty", ","))},
    **{f"train_window_{name}": ["evaluate", "--mode", "baselines", "--dataset",
                                "{fit}/dataset.csv", "--train-window", value]
       for name, value in (("0", "0"), ("negative", "-3"))},
    # a variant name, a process count and the sampler options are checked
    # before the dataset is read
    **{f"threads_{name}": ["fit", "--dataset", "{fit}/missing.csv",
                           "--threads", value]
       for name, value in (("zero", "0"), ("negative", "-1"))},
    **{f"sampler_{name}": ["fit", "--dataset", "{fit}/missing.csv", option,
                           value]
       for name, option, value in (("warmup_0", "--warmup", "0"),
                                   ("max_leapfrog_0", "--max-leapfrog", "0"),
                                   ("seed_negative", "--seed", "-1"))},
    **{f"variant_alias_{name}": ["fit", "--dataset", "{fit}/missing.csv",
                                 "--variant", value]
       for name, value in (("none", "none"), ("no_rate", "no-rate"))},
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_invalid_option_exit_1(valid_fit, tmp_path, capsys, case):
    """A scale that is not a finite number above 0, an ``--informative``
    that is not a non-empty list of the dataset's feature indices, a
    ``--train-window`` that is not an integer above 0, a ``--variant`` that
    is not one of the five variant names, a ``--threads``, ``--warmup`` or
    ``--max-leapfrog`` below 1, a negative ``--seed`` and the removed
    options ``--priors``, ``--target-accept``, ``--rhat-threshold``,
    ``--quantile`` and ``--tol`` end in exit 1 with a message, not a
    traceback, a silent pass or exit 2, and before ``--out`` is made."""
    argv = [a.replace("{fit}", str(valid_fit)) for a in BAD_OPTIONS[case]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("usage error:", "configuration error:"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, text", [
    ("summary.json", '{"a": NaN, "b": -Infinity}'),
    ("diagnostics.json", '{"max_global_rhat": 1.0'),
], ids=["summary_nan", "diagnostics_truncated"])
def test_report_of_json_that_is_not_strict_exit_2(tmp_path, capsys, name,
                                                  text):
    """``report`` reads its input as strictly as every other reader: a
    ``NaN`` or an infinity, or a truncated file, is a data error that names
    the file, and no ``report.md`` is written."""
    (tmp_path / name).write_text(text)
    assert main(["report", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(tmp_path / name) in err
    assert not (tmp_path / "report.md").exists()


def test_bias_averages_each_latent_column_once(valid_fit, tmp_path,
                                               monkeypatch):
    """Bias mode's score and high-risk profile share each fit's latent
    means: no latent column is read twice."""
    reads = []
    column = PosteriorDraws.column
    monkeypatch.setattr(PosteriorDraws, "column",
                        lambda self, name: reads.append(name) or column(
                            self, name))
    assert main(["evaluate", "--mode", "bias", "--fit", str(valid_fit),
                 "--dataset", str(valid_fit / "dataset.csv"),
                 "--truth", str(valid_fit / "truth.json"),
                 "--out", str(tmp_path / "out")]) == 0
    latents = [name for name in reads if name.startswith(("init_sev[", "rate["))]
    assert latents and len(latents) == len(set(latents))


@pytest.fixture
def blocks(monkeypatch):
    """``read_draws`` splits a table of any size into row blocks; the
    fixture holds the block count of each split."""
    import dispro.dataio as dataio

    counts = []

    def counted(fn, jobs, processes):
        counts.append(processes)
        return forked_map(fn, jobs, processes)

    monkeypatch.setattr(dataio, "_MIN_BLOCK_BYTES", 1)
    monkeypatch.setattr(dataio, "forked_map", counted)
    return counts


def _use_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _read_outcome(path):
    """The bytes of what ``read_draws`` reads, or its DataError text."""
    try:
        d = read_draws(path)
    except DataError as exc:
        return str(exc)
    return (d.names, d.values.tobytes(), d.accept_stats.tobytes(),
            d.divergent.tobytes())


@pytest.mark.parametrize("cores", [2, 3, 8])
def test_block_read_equals_one_process_read(valid_fit, monkeypatch, blocks,
                                            cores):
    _use_cores(monkeypatch, 1)
    one = _read_outcome(valid_fit / "draws.csv")
    _use_cores(monkeypatch, cores)
    assert _read_outcome(valid_fit / "draws.csv") == one
    assert blocks == [cores]
    assert_no_children()


# a fault at lines[row] of a draws table (0 is the header); whether the
# one-process read takes the faulty file
BLOCK_FAULTS = {
    "ragged_row": (lambda lines, row: _cut_last_cell(lines, row), False),
    "unparsable_cell": (lambda lines, row: _set_cell(lines, row, 4, "x"),
                        False),
    "row_missing": (lambda lines, row: lines.pop(row), False),
    "row_extra": (lambda lines, row: lines.insert(row + 1, lines[row]), False),
    # a line that holds no row, so that the lines and rows of a block differ
    "blank_line": (lambda lines, row: lines.insert(row, ""), True),
    "comment_line": (lambda lines, row: lines.insert(row, "# note"), True),
    "comment_line_for_a_row": (
        lambda lines, row: (lines.pop(), lines.insert(row, "# note")), False),
}


@pytest.mark.filterwarnings("ignore:Input line .* contained no data")
@pytest.mark.parametrize("row", [1, 3, 7, 10, 14, 20])
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_block_read_fault_as_one_process_read(valid_fit, tmp_path, monkeypatch,
                                              blocks, fault, row):
    """A faulty line in any of three blocks of 20 rows (rows 0-5, 6-12 and
    13-19 are lines 1-6, 7-13 and 14-20), at a block's first row or inside
    it, gives the one-process read's draws or its error text, row numbers
    and all, and leaves no child."""
    edit, taken = BLOCK_FAULTS[fault]
    bad = tmp_path / "bad"
    shutil.copytree(valid_fit, bad)
    lines = (bad / "draws.csv").read_text().splitlines()
    assert len(lines) == 21
    edit(lines, row)
    (bad / "draws.csv").write_text("\n".join(lines) + "\n")
    _use_cores(monkeypatch, 1)
    one = _read_outcome(bad / "draws.csv")
    assert isinstance(one, str) != taken
    _use_cores(monkeypatch, 3)
    assert _read_outcome(bad / "draws.csv") == one
    assert blocks == [3]
    assert_no_children()


def _evaluate_outputs(fit_root, mode, out):
    """The bytes of each file an evaluate run in ``mode`` writes, reading
    the full and no_visit fits under ``fit_root``; ``out`` is left empty."""
    fits = [str(fit_root / d) for d in ("", "no_visit")]
    truth = ["--truth", str(fit_root / "truth.json")]
    argv = {"recovery": [a for f in fits for a in ("--fit", f, *truth)],
            "bias": [*(a for f in fits for a in ("--fit", f)), *truth,
                     "--dataset", str(fit_root / "dataset.csv")],
            "disparity": ["--fit", fits[0], "--years-per-unit", "2.5"]}[mode]
    assert main(["evaluate", "--mode", mode, *argv, "--out", str(out)]) == 0
    outputs = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    return outputs


@pytest.mark.parametrize("mode", ["recovery", "bias", "disparity"])
def test_evaluate_outputs_independent_of_cores(valid_fit, tmp_path,
                                               monkeypatch, blocks, mode):
    """Every evaluate output is byte-identical whether each table is read
    in one process or in row blocks."""
    outputs = []
    for cores in (1, 3):
        _use_cores(monkeypatch, cores)
        outputs.append(_evaluate_outputs(valid_fit, mode, tmp_path / "out"))
    assert outputs[0] == outputs[1]
    assert blocks == [3] * (1 if mode == "disparity" else 2)
    assert_no_children()


def _no_parse(*args, **kwargs):
    raise AssertionError("parsed a table that has a cache")


def _cache_files(path):
    """The hidden files and directories beside ``path`` that its cache
    writes, temporary ones included."""
    return sorted(path.parent.glob(f".{path.name}.*"))


def _cache_of(path):
    import dispro.dataio as dataio

    key = hashlib.sha256(dataio._CACHE_TAG + path.read_bytes()).hexdigest()
    return path.with_name(f".{path.name}.{key}.npy")


@pytest.fixture
def cached(valid_fit, tmp_path, monkeypatch):
    """A copy of the full fit whose draws table is past the cache's
    threshold; the first read parses it and writes its cache."""
    import dispro.dataio as dataio

    fit = tmp_path / "fit"
    fit.mkdir()
    for name in ("draws.csv", "fit_meta.json"):
        shutil.copy(valid_fit / name, fit)
    read_draws(fit / "draws.csv")
    assert _cache_files(fit / "draws.csv") == []  # under the 2 MiB default
    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 1)
    return fit / "draws.csv"


def test_cache_hit_reads_as_a_parse(cached, monkeypatch):
    """A read from the cache returns the parse's names, values, accept
    stats and divergent flags, byte for byte, and parses nothing."""
    import dispro.dataio as dataio

    parsed = _read_outcome(cached)
    assert not isinstance(parsed, str)
    assert _cache_files(cached) == [_cache_of(cached)]
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    monkeypatch.setattr(dataio, "forked_map", _no_parse)
    assert _read_outcome(cached) == parsed
    assert_no_children()


def test_cache_misses_an_edit_that_keeps_size_and_mtime(cached, monkeypatch):
    """The cache is keyed by the table's bytes, not by its size or mtime."""
    import dispro.dataio as dataio

    old = read_draws(cached).values
    stat, data = cached.stat(), bytearray(cached.read_bytes())
    i = len(data.rstrip()) - 1  # the last digit of the last cell
    assert chr(data[i]).isdigit()
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    cached.write_bytes(data)
    os.utime(cached, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (cached.stat().st_size, cached.stat().st_mtime_ns) == (
        stat.st_size, stat.st_mtime_ns)
    new = read_draws(cached).values
    assert new[-1, -1] != old[-1, -1]
    assert _cache_files(cached) == [_cache_of(cached)]
    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 2 << 20)  # a parse
    assert read_draws(cached).values.tobytes() == new.tobytes()


def test_table_changed_during_the_parse_writes_no_cache(cached,
                                                        monkeypatch):
    """A table rewritten while it is parsed keeps no cache: the key was
    taken from the bytes before the change."""
    import dispro.dataio as dataio

    parse = dataio._read_table

    def rewritten_meanwhile(path, n_rows, n_cols):
        table = parse(path, n_rows, n_cols)
        path.write_bytes(path.read_bytes() + b"\r\n")
        return table

    monkeypatch.setattr(dataio, "_read_table", rewritten_meanwhile)
    read_draws(cached)
    assert _cache_files(cached) == []


class _Trap:
    """Unpickling makes the directory ``marker``."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (str(self.marker),)


# how a cache file goes bad: (path, table) -> its new bytes
BAD_CACHES = {
    "truncated": lambda path, table: path.read_bytes()[:-8],
    "wrong_shape": lambda path, table: table[:-1],
    "wrong_dtype": lambda path, table: table.astype(np.float32),
    "object_array": lambda path, table: np.array(
        [_Trap(path.with_name("unpickled"))], dtype=object),
}


@pytest.mark.parametrize("fault", sorted(BAD_CACHES))
def test_bad_cache_is_ignored_and_replaced(cached, fault):
    """A cache that is not a float64 array of the table's shape is a miss,
    an object array is never unpickled, and the parse replaces the cache."""
    parsed = _read_outcome(cached)
    cache = _cache_of(cached)
    table = np.load(cache)
    bad = BAD_CACHES[fault](cache, table)
    if isinstance(bad, bytes):
        cache.write_bytes(bad)
    else:
        np.save(cache, bad)
    assert _read_outcome(cached) == parsed
    assert not cached.with_name("unpickled").exists()
    assert _cache_files(cached) == [cache]
    assert np.load(cache).tobytes() == table.tobytes()


def _give_away(path):
    if os.getuid() != 0:
        pytest.skip("only root can give a file to another user")
    os.chown(path, 4321, 4321)


def _link_elsewhere(path):
    target = path.with_name("elsewhere.npy")
    os.replace(path, target)
    path.symlink_to(target)


# how a file with other values comes to stand at a table's cache name,
# where someone who may not write the table could put it
PLANTED_CACHES = {
    "group_writable": lambda path: path.chmod(0o664),
    "other_writable": lambda path: path.chmod(0o646),
    "other_owner": _give_away,
    "symlink": _link_elsewhere,
}


@pytest.mark.parametrize("plant", sorted(PLANTED_CACHES) + ["fifo"])
def test_planted_cache_is_ignored_and_replaced(cached, plant):
    """A file at the cache's name that another user owns or may write, a
    symlink or a FIFO is a miss: the read equals a parse, blocks on
    nothing, and replaces the file with this user's cache."""
    parsed = _read_outcome(cached)
    cache = _cache_of(cached)
    table = np.load(cache)
    cache.unlink()
    if plant == "fifo":
        os.mkfifo(cache)
    else:
        np.save(cache, table + 1.0)
        PLANTED_CACHES[plant](cache)
    assert _read_outcome(cached) == parsed
    assert cache.is_file() and not cache.is_symlink()
    assert (cache.stat().st_uid, cache.stat().st_mode & 0o777) == (
        os.getuid(), 0o644)
    assert np.load(cache).tobytes() == table.tobytes()


@pytest.mark.parametrize("mode", [0o600, 0o664])
def test_cache_keeps_the_table_readers_and_no_other_writer(cached,
                                                           monkeypatch, mode):
    """The cache is readable by those who may read the table and writable
    by its writer alone, whatever the umask, so that a read hits it."""
    import dispro.dataio as dataio

    cached.chmod(mode)
    old_umask = os.umask(0o002)
    try:
        read_draws(cached)
    finally:
        os.umask(old_umask)
    assert _cache_of(cached).stat().st_mode & 0o777 == mode & 0o644
    monkeypatch.setattr(dataio, "forked_map", _no_parse)
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    read_draws(cached)


def test_new_cache_tag_misses_old_caches(cached, monkeypatch):
    """A new ``_CACHE_TAG`` (for a changed parse) gives the table a new key:
    the next read parses, and its cache replaces the old one."""
    import dispro.dataio as dataio

    read_draws(cached)
    old = _cache_of(cached)
    monkeypatch.setattr(dataio, "_CACHE_TAG", b"another parse\n")
    parse, calls = dataio._read_table, []

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(dataio, "_read_table", counted)
    read_draws(cached)
    read_draws(cached)
    assert len(calls) == 1
    assert _cache_files(cached) == [_cache_of(cached)] != [old]


def _refuse_mkdtemp(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


def _save_half(file, arr):
    Path(file).write_bytes(np.lib.format.MAGIC_PREFIX)
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["read_only", "full"])
def test_cache_write_refused_still_reads(cached, monkeypatch, fault):
    """A directory that refuses the temporary directory (read-only, which a
    chmod does not make for root) or the write (full) still reads the
    table, and keeps no cache and no temporary file."""
    import dispro.dataio as dataio

    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 2 << 20)
    parsed = _read_outcome(cached)
    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 1)
    if fault == "read_only":
        monkeypatch.setattr(tempfile, "mkdtemp", _refuse_mkdtemp)
    else:
        monkeypatch.setattr(np, "save", _save_half)
    assert _read_outcome(cached) == parsed
    assert _cache_files(cached) == []


@pytest.mark.filterwarnings("ignore:Input line .* contained no data")
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_malformed_table_writes_no_cache(cached, monkeypatch, fault):
    """A table that does not parse writes no cache and reads to the error
    text it gives below the threshold."""
    import dispro.dataio as dataio

    edit, taken = BLOCK_FAULTS[fault]
    lines = cached.read_text().splitlines()
    for cache in _cache_files(cached):
        cache.unlink()
    edit(lines, 7)
    cached.write_text("\n".join(lines) + "\n")
    got = _read_outcome(cached)
    assert isinstance(got, str) != taken
    assert bool(_cache_files(cached)) == taken
    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 2 << 20)
    assert _read_outcome(cached) == got


def test_nonfinite_draw_fails_from_the_cache_as_from_a_parse(cached):
    """The finite check runs on a cached table too: a table that parses
    but holds a NaN is cached, and each read fails with the same text."""
    lines = cached.read_text().splitlines()
    _set_cell(lines, 3, 5, "nan")
    cached.write_text("\n".join(lines) + "\n")
    got = _read_outcome(cached)
    assert "non-finite draw in" in got
    assert _cache_files(cached) == [_cache_of(cached)]
    assert _read_outcome(cached) == got


def test_rewritten_table_keeps_one_cache(cached, sim_pair):
    """Rewriting a table replaces its cache; no other file's cache, such as
    that of a table whose name extends this one, is touched."""
    other = cached.with_name("draws.csv.old")
    shutil.copy(cached, other)
    read_draws(cached)
    other_cache = _cache_of(other)
    shutil.copy(_cache_of(cached), other_cache)
    draws = read_draws(cached)
    draws.values[0, 0] += 1.0
    write_draws(draws, cached)
    assert _cache_files(cached) == [other_cache]  # no stale cache is kept
    assert read_draws(cached).values[0, 0] == draws.values[0, 0]
    assert _cache_files(cached) == sorted([_cache_of(cached), other_cache])


def _refuse_unlink(self, missing_ok=False):
    raise PermissionError(errno.EPERM, "Operation not permitted")


def test_old_cache_that_will_not_go_stays(cached, monkeypatch):
    """An old cache that may not be deleted (another user's, in a sticky
    directory) stays beside the table; the rewrite and the read go on."""
    draws = read_draws(cached)
    old = _cache_of(cached)
    monkeypatch.setattr(Path, "unlink", _refuse_unlink)
    draws.values[0, 0] += 1.0
    write_draws(draws, cached)
    assert read_draws(cached).values[0, 0] == draws.values[0, 0]
    assert _cache_files(cached) == sorted([old, _cache_of(cached)])


@pytest.mark.parametrize("mode", ["recovery", "bias", "disparity"])
def test_evaluate_outputs_independent_of_the_cache(valid_fit, tmp_path,
                                                   monkeypatch, mode):
    """Every evaluate output is byte-identical whether each table is parsed
    (writing its cache) or read from its cache, and the caches are all that
    evaluate writes outside ``--out``."""
    import dispro.dataio as dataio

    fit_root = tmp_path / "fits"
    shutil.copytree(valid_fit, fit_root)
    before = set(fit_root.rglob("*"))
    monkeypatch.setattr(dataio, "_MIN_CACHE_BYTES", 1)
    parsed = _evaluate_outputs(fit_root, mode, tmp_path / "out")
    written = set(fit_root.rglob("*")) - before
    assert written == {_cache_of(table) for table in (
        fit_root / "draws.csv", fit_root / "no_visit" / "draws.csv")
        if mode != "disparity" or table.parent == fit_root}
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    assert _evaluate_outputs(fit_root, mode, tmp_path / "out") == parsed
    assert set(fit_root.rglob("*")) - before == written
    assert_no_children()
