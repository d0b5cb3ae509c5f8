import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import cli
from apportion.cli import load_concentrations, main
from apportion.estimator import ConcentrationMatrix, EstimatorConfig, apportion
from apportion.evaluation import StudyDesign, align_rows, nfd, nrmse
from apportion.exceptions import NegativeValue, NonFinite, ParseError
from apportion.synthgen import RngSpec, make_ground_truth


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestLoadConcentrations:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
        y = load_concentrations(path)
        assert y.pollutant_names == ("a", "b")
        assert y.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_negative_value_coordinates(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\n1,2\n3,-1\n", encoding="utf-8")
        with pytest.raises(NegativeValue) as err:
            load_concentrations(path)
        assert (err.value.line, err.value.column) == (3, 2)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\nnan,2\n", encoding="utf-8")
        with pytest.raises(NonFinite) as err:
            load_concentrations(path)
        assert (err.value.line, err.value.column) == (2, 1)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\n1,x\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_concentrations(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_concentrations(path)

    @pytest.mark.parametrize(
        "text",
        [
            "P1,P2\n1,2\n3,4.5\n",
            "P1,P2\r\n1,2\r\n",
            "P1,P2\n1,-2\n",
            "P1,P2\n1,x\n",
            "P1\n",
        ],
        ids=["valid", "crlf", "negative", "not-a-number", "no-rows"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        outcome = load_outcome(load_concentrations, marked)
        assert outcome == load_outcome(load_concentrations, plain)

    def test_round_trip_after_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert main(
            [
                "simulate",
                "--process",
                "ar1",
                "--n",
                "50",
                "--J",
                "6",
                "--K",
                "3",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        ) == 0
        y, _ = make_ground_truth(50, 6, 3, "ar1", RngSpec(9))
        loaded = load_concentrations(out / "y.csv")
        np.testing.assert_array_equal(loaded.values, y.values)


def load_outcome(load, path):
    """Value bytes and names, or the error's type, coordinates and message."""
    try:
        y = load(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)
    return y.values.dtype.str, y.values.shape, y.values.tobytes(), y.pollutant_names


def load_cellwise(path):
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return cli._load_cellwise(fh)


def assert_loads_like_cellwise(text, tmp_dir):
    path = Path(tmp_dir) / "y.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = load_outcome(load_concentrations, path)
    assert [str(w.message) for w in caught] == []
    assert outcome == load_outcome(load_cellwise, path)
    if isinstance(outcome[0], type):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["estimate", "--input", str(path), "--K", "1", "--out", str(Path(tmp_dir) / "o")])
        assert code == 1
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(f"{outcome[0].__name__}: ")
    return outcome


# Cells float() and np.loadtxt may read differently, or that must fail.
ODD_CELLS = [
    "1_0", "+1e5", "0x10", "1d5", "1D5", "nan", "inf", "infinity", "-inf", "-0.0",
    "-2.5", "1e400", "5e-324", ".5", "1.", "e5", ".", "", " ", " 3 ", "\t4", "\xa05",
    "\x0b6", '"7"', '"8,9"', "#1", "1 2", "\u0661",
]
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def valid_cells(draw):
    value = draw(st.floats(min_value=0.0, max_value=1e300))
    fmt = draw(st.sampled_from(["%r", "%.17g", "%.3e", "%.0f", "+%r", " %r "]))
    return fmt.replace("%r", repr(value)) if "%r" in fmt else fmt % value


# Exponents stay below 1e308; overflowing cells are among ODD_CELLS.
decimal_cells = st.from_regex(r"\A[0-9]{1,25}(\.[0-9]{0,25})?([eE][-+]?[0-9]{1,2})?\Z")
header_names = st.sampled_from(["a", "b c", '"x,y"', '"p\nq"', '"r""s"', ""])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(NEWLINES))
    cell = st.one_of(valid_cells(), valid_cells(), decimal_cells, st.sampled_from(ODD_CELLS))
    text = ",".join(draw(st.lists(header_names, min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "comment", "ragged", "trailing"]))
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from([" ", "  \t", "\x0c"]))
        elif kind == "comment":
            line = "# note"
        else:
            count = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
            line = ",".join(draw(st.lists(cell, min_size=count, max_size=count)))
            if kind == "trailing":
                line += ","
        text += draw(st.sampled_from([newline] * 4 + NEWLINES)) + line
    return text + draw(st.sampled_from(["", newline]))


class TestLoaderMatchesCellwiseParser:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a,b\n",
            "a,b",
            "a\n",
            "a\n\n",
            "a,b\n\n1,2\n\n\n3,4\n",
            "a,b\n1,2\n   \n3,4\n",
            "a\n1\n \n2\n",
            "a,b\r\n1,2\r\n3,4\r\n",
            "a,b\r1,2\r3,4\r",
            "a,b\r\n\r\n1,2\r\n",
            '"x,y",b\n1,2\n',
            '"p\nq",b\n1,2\n',
            'a,b\n"1",2\n',
            "a,b\n 1 ,\t2\n",
            "a,b\n1,2,\n",
            "a,b,\n1,2,\n",
            "a,b\n1,2\n3\n",
            "a,b\n# comment\n1,2\n",
            "a,b\n1,2\n#3,4\n",
            "a,b\n0,-0.0\n",
            "a,b\n1,-2\n",
            "a,b\n0,1\n0,2\n",
            *(f"a,b\n1,{cell}\n" for cell in ODD_CELLS),
        ],
    )
    def test_listed_files(self, text, tmp_path):
        assert_loads_like_cellwise(text, tmp_path)

    @settings(deadline=None, max_examples=300)
    @given(csv_texts())
    def test_generated_files(self, text):
        with tempfile.TemporaryDirectory() as tmp_dir:
            assert_loads_like_cellwise(text, tmp_dir)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.lists(st.one_of(valid_cells(), decimal_cells), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    def test_generated_valid_files_take_every_value_bitwise(self, rows):
        # The last row keeps every column nonzero, as ConcentrationMatrix asks.
        text = "a,b,c\n" + "".join(",".join(row) + "\n" for row in rows) + "1,1,1\n"
        with tempfile.TemporaryDirectory() as tmp_dir:
            outcome = assert_loads_like_cellwise(text, tmp_dir)
        assert outcome[1] == (len(rows) + 1, 3)


def reference_matrix_bytes(path, matrix, names):
    """What writing every row through csv.writer with %.17g gives."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(names))
        writer.writerows(["%.17g" % v for v in row] for row in np.atleast_2d(matrix))
    return path.read_bytes()


def reference_scatter_bytes(path, est):
    """hull_scatter.csv written cell by cell through csv.writer, with
    candidate rows and 0/1 flags as ints and coordinates as %.17g."""
    cands, selected = est.candidates, set(est.diagnostics.subset_rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        z_names = [f"z{i + 1}" for i in range(cands.z.shape[1])]
        writer.writerow(["candidate_row"] + z_names + ["selected"])
        writer.writerows(
            [int(row)] + ["%.17g" % v for v in z] + [1 if row in selected else 0]
            for row, z in zip(cands.indices, cands.z)
        )
    return path.read_bytes()


BLOCK = cli._WRITE_BLOCK_ROWS


class TestWriteMatrix:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("j", [1, 8])
    def test_bytes_match_csv_writer(self, n, j, tmp_path):
        rng = np.random.default_rng(n * 10 + j)
        special = [0.0, -0.0, 5e-324, 1e308, 3.0, 12345678901234567.0, 0.1]
        values = np.concatenate([special, rng.lognormal(size=n * j)])[: n * j]
        matrix = values[rng.permutation(n * j)].reshape(n, j)
        names = [f"P{i}" for i in range(j)]
        cli._write_matrix(tmp_path / "fast.csv", matrix, names)
        expected = reference_matrix_bytes(tmp_path / "ref.csv", matrix, names)
        assert (tmp_path / "fast.csv").read_bytes() == expected


def test_import_cli_loads_no_scipy_signal_or_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # A K=4 Hausdorff distance (nearest points in 3-D) needs no optimizer either.
    code = (
        "import sys, numpy as np, apportion.cli; "
        "from apportion.evaluation import hausdorff_to_polytope; "
        "hausdorff_to_polytope(0.8 * np.eye(4) + 0.05, np.eye(4)); "
        "print(*[m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.strip() == ""


def test_no_command_loads_scipy_signal_or_optimize(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    sim, est = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--n", "500", "--J", "8", "--K", "3", "--out", str(sim)]) == 0
    assert main(["estimate", "--input", str(sim / "y.csv"), "--K", "3", "--out", str(est)]) == 0
    # The blocker makes an import of either module fail, also in the
    # study's forked workers, whose sys.modules the last assert cannot see.
    # evaluate runs first and loads no scipy at all.
    code = f"""
import sys
from pathlib import Path

class Block:
    def find_spec(self, name, path=None, target=None):
        if name in ("scipy.signal", "scipy.optimize"):
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, Block())
from apportion.cli import main

out = Path({str(tmp_path)!r})
sim, est = str(out / "sim"), str(out / "est")
assert main(["evaluate", "--phi-hat", est + "/phi_hat.csv",
             "--phi-true", sim + "/phi_true.csv", "--out", str(out / "ev")]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
shape = ["--J", "8", "--K", "3"]
assert main(["simulate", "--process", "ar1", "--n", "500", *shape, "--out", sim]) == 0
assert main(["estimate", "--input", sim + "/y.csv", "--K", "3", "--out", est]) == 0
assert main(["convergence-study", "--J", "5", "--K", "3", "--n-grid", "60",
             "--replicates", "2", "--workers", "2", "--out", str(out / "study")]) == 0
assert "scipy.signal" not in sys.modules and "scipy.optimize" not in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_import_loads_no_scipy_and_deferred_qhull_works():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # The hull checks run first, so they are the interpreter's first use of
    # qhull; the studies after them run tasks in the caller too.
    code = """
import dataclasses, sys, warnings
import numpy as np
import apportion, apportion.cli
from apportion import geometry
from apportion.evaluation import StudyDesign, convergence_study
from apportion.exceptions import HullFallbackWarning

loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
assert "concurrent.futures.process" not in sys.modules

z = np.random.default_rng(5).normal(size=(40, 2))
verts = geometry.hull_vertices(z)
from scipy.spatial import ConvexHull
assert verts.tolist() == np.unique(ConvexHull(z).vertices).tolist()

# The d=5, seed 6 cloud of test_geometry's thin-cloud test: qhull raises.
rng = np.random.default_rng([5, 6])
n = int(rng.integers(7, 101))
thin = 10.0 ** rng.uniform(-14, -13)
z = rng.normal(size=(n, 5))
z[:, -1] *= thin
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    verts = geometry.hull_vertices(z)
assert [w.category for w in caught] == [HullFallbackWarning], caught
assert verts.tolist() == list(range(n))

design = StudyDesign(J=5, K=3, n_grid=(60, 120), replicates=2)
parallel = convergence_study(design, workers=2)
serial = convergence_study(design, workers=1)
strip = lambda records: [dataclasses.replace(r, runtime_seconds=0.0) for r in records]
assert strip(parallel) == strip(serial)
assert "concurrent.futures.process" not in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--process", "ar1", "--n", "40", "--J", "8", "--K", "3", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("y.csv", "w_true.csv", "h_true.csv", "mu_true.csv", "phi_true.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--n", "10", "--J", "5", "--K", "2", "--out", str(out)])
        raw = (out / "y.csv").read_bytes()
        assert b"\r" not in raw


class TestEstimateCommand:
    def test_outputs_and_diagnostics(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--n", "200", "--J", "8", "--K", "3", "--seed", "3", "--out", str(sim)])
        est = tmp_path / "est"
        assert main(
            ["estimate", "--input", str(sim / "y.csv"), "--K", "3", "--out", str(est)]
        ) == 0
        rows = read_csv(est / "phi_hat.csv")
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-10)
        hrows = read_csv(est / "h_star_hat.csv")
        hvals = np.array([[float(v) for v in row[1:]] for row in hrows[1:]])
        np.testing.assert_allclose(hvals.sum(axis=1), 1.0, atol=1e-10)
        diag = json.loads((est / "diagnostics.json").read_text())
        assert {"r_b", "n_hull_vertices", "n_candidates_after_prune", "log_volume", "search_used", "warnings"} <= set(diag)
        assert diag["n_candidates_after_prune"] == diag["n_hull_vertices"]
        scatter = read_csv(est / "hull_scatter.csv")
        assert scatter[0][-1] == "selected"
        assert sum(int(r[-1]) for r in scatter[1:]) == 3

    def test_selected_rows_marked_by_index(self, tmp_path, monkeypatch):
        # Every row appears twice; at rank 10 (above the hull dimension cap)
        # all rows are candidates, so each candidate row has an identical
        # twin.  The search is made to pick the later twins, which a match
        # on coordinates would not mark.
        from apportion import estimator

        rng = np.random.default_rng(8)
        base = rng.lognormal(size=(15, 12))
        path = tmp_path / "y.csv"
        lines = [",".join(f"P{j}" for j in range(12))]
        lines += [",".join(repr(float(v)) for v in row) for row in np.vstack([base, base])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        select = estimator._select_max_volume

        def pick_later_twins(z, cfg):
            subset, used = select(z, cfg)
            later = tuple(i + 15 if i < 15 else i for i in subset.indices)
            return dataclasses.replace(subset, indices=later), used

        monkeypatch.setattr(estimator, "_select_max_volume", pick_later_twins)
        est = tmp_path / "est"
        args = ["estimate", "--input", str(path), "--K", "10"]
        assert main(args + ["--out", str(est)]) == 0
        diag = json.loads((est / "diagnostics.json").read_text())
        assert all(r >= 15 for r in diag["subset_rows"])
        scatter = read_csv(est / "hull_scatter.csv")[1:]
        marked = [int(r[0]) for r in scatter if r[-1] == "1"]
        assert marked == sorted(diag["subset_rows"])
        result = apportion(load_concentrations(path), EstimatorConfig(K=10))
        expected = reference_scatter_bytes(tmp_path / "ref.csv", result)
        assert (est / "hull_scatter.csv").read_bytes() == expected

    def test_missing_input_is_nonzero_exit(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--input", str(tmp_path / "nope.csv"), "--K", "3", "--out", str(tmp_path / "o")])
        assert err.value.code != 0

    def test_bad_file_prints_category_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,-2\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--K", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert err_line.startswith("NegativeValue:")

    @pytest.mark.parametrize(
        "body,k,category",
        [
            ("a,b,SO4\n1,0,0\n0,1,0\n1,1,0.01\n2,1,0\n", "2", "ZeroDenominator"),
            ("a,b,c,d\n1,0,1,1\n0,1,1,1\n1,1,2,2\n2,1,3,3\n", "3", "DegenerateCloud"),
        ],
        ids=["zero-denominator", "degenerate-cloud"],
    )
    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys, body, k, category):
        path = tmp_path / "y.csv"
        path.write_text(body, encoding="utf-8")
        out = tmp_path / "o" / "nested"
        assert main(["estimate", "--input", str(path), "--K", k, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(category + ":")
        assert not (tmp_path / "o").exists()

    def test_zero_denominator_line_names_pollutant(self, tmp_path, capsys):
        # SO4 is nonzero only in the third row, which lies between the two
        # extreme rows the K=2 search selects, so no profile carries it.
        path = tmp_path / "y.csv"
        path.write_text("a,b,SO4\n1,0,0\n0,1,0\n1,1,0.01\n2,1,0\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--K", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [
            "ZeroDenominator: [compute_phi] column 2 ('SO4') has zero attribution"
            " denominator: no selected profile row puts mass on this pollutant,"
            " as happens when values below a detection limit are recorded as zeros"
        ]


# sha256 of each output of the runs in test_estimate_bytes_pinned: a
# change to any byte that `estimate` writes, other than the manifest, fails.
DIGESTS_DEFAULTS = {
    "phi_hat.csv": "75ac6aba4456eb26fd75e7e076ef26105d016adfcca1f098c956442df230a921",
    "h_star_hat.csv": "fc3347a52b56120e784e667f939e385f93be1e46e0374d7c3f42bcd620872b79",
    "m_tilde.csv": "7c84f3cc75d2f2bdc70561bdd968eea5b7d3e03463e9b30e36eebbfb09a7bcf0",
    "diagnostics.json": "37cea04e0f8ff5ce6d53e9b419410f72369cb0be2926463b30843e7082795116",
    "hull_scatter.csv": "0d3ff03a855ae3bc2cb09f8fe9380bb7411f615ae6d90182b1a4a7bb78ac1838",
}

DIGESTS_GREEDY = {
    "phi_hat.csv": "db92afe60bf83226ff38f300d65543783728711dc054507ec7d36b596899f5e6",
    "h_star_hat.csv": "8f2f819d133bad2e72a2d658eb78c421197008eb85e35b109d6c8053b91d5b32",
    "m_tilde.csv": "498942f378b2e23e859e9af126d198981de1ea678247768b6b8392cfa8470114",
    "diagnostics.json": "ae1463ac11ba5de3510e9445060b0329fc69151f68c609e6b331c5df3d77c0de",
    "hull_scatter.csv": "225785358fe7218c6d37c5b1c04ca97cc6fae3836acb1a080f2ef8404537ca0d",
}

DIGESTS_ABOVE_CAP = {
    "phi_hat.csv": "d085b00f9f038768a384932b8f7be8f3d56b2813749f191b1fc5919817ef576c",
    "h_star_hat.csv": "3b980dcb620e9c4bc2ffb48ba8f51e9556dbb741c46fe6e2a2b92e51c5dd2ae7",
    "m_tilde.csv": "2e1f8017653bcf1b412cadfd1b8ec02151037dc1f71e52867a5ed3ea8c7b1795",
    "diagnostics.json": "7fc283cb26e2f5b49b5939e240d3fc698d7ba1bf835d1565f5eb7129f0903eaa",
    "hull_scatter.csv": "e4b1945da27a1d1cbac03affbcc62759892b130b8031ec1c830ee50c1942ca01",
}

DIGESTS_ZERO_ROW = {
    "phi_hat.csv": "f0276d27c8b973ce920fe611b7dfee1680d35dc07972857cd6ed1e78d379e882",
    "h_star_hat.csv": "fc3347a52b56120e784e667f939e385f93be1e46e0374d7c3f42bcd620872b79",
    "m_tilde.csv": "a2b03decbeb98996505aad12d211f5fba3a27d329a3fbcc35a92692fd6f76f10",
    "diagnostics.json": "caab533125d17db90bddcf9448edf7ef1cf885a62181d0acf0a5693740c4f692",
    "hull_scatter.csv": "0d3ff03a855ae3bc2cb09f8fe9380bb7411f615ae6d90182b1a4a7bb78ac1838",
}

@pytest.mark.parametrize(
    "simulate,flags,zero_row,digests,stderr",
    [
        (
            ["--process", "ar1", "--J", "8", "--K", "3", "--n", "2000", "--seed", "1"],
            [],
            False,
            DIGESTS_DEFAULTS,
            "",
        ),
        (
            ["--process", "mixture", "--J", "8", "--K", "4", "--n", "1500", "--seed", "2"],
            ["--search", "greedy"],
            False,
            DIGESTS_GREEDY,
            "",
        ),
        (
            ["--process", "ar1", "--J", "12", "--K", "10", "--n", "300", "--seed", "3"],
            [],
            False,
            DIGESTS_ABOVE_CAP,
            "warning: hull dimension 9 above cap; keeping all rows as candidates\n"
            "warning: negative mean estimates clipped to zero\n",
        ),
        (
            ["--process", "ar1", "--J", "8", "--K", "3", "--n", "2000", "--seed", "1"],
            [],
            True,
            DIGESTS_ZERO_ROW,
            "warning: dropped 1 zero-concentration rows\n",
        ),
    ],
    ids=["defaults", "greedy", "above-hull-cap", "zero-row"],
)
def test_estimate_bytes_pinned(tmp_path, capsys, simulate, flags, zero_row, digests, stderr):
    sim = tmp_path / "sim"
    assert main(["simulate", *simulate, "--out", str(sim)]) == 0
    y_path = sim / "y.csv"
    if zero_row:
        # An all-zero third data row.  It is dropped with a warning, and
        # hull_scatter.csv, which numbers the kept rows, equals the
        # defaults run's.
        lines = y_path.read_text(encoding="utf-8").splitlines(keepends=True)
        width = len(lines[0].split(","))
        lines.insert(3, ",".join(["0"] * width) + "\n")
        y_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    k = simulate[simulate.index("--K") + 1]
    est = tmp_path / "est"
    assert main(["estimate", "--input", str(y_path), "--K", k, *flags, "--out", str(est)]) == 0
    assert capsys.readouterr().err == stderr
    got = {
        name: hashlib.sha256((est / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests


@pytest.mark.parametrize("empty", ["--phi-hat", "--phi-true"])
def test_evaluate_empty_file_prints_one_line(tmp_path, capsys, empty):
    blank = tmp_path / "empty.csv"
    blank.write_text("", encoding="utf-8")
    phi = tmp_path / "phi.csv"
    phi.write_text("source,a,b\ns1,0.5,0.5\n", encoding="utf-8")
    files = {"--phi-hat": phi, "--phi-true": phi, empty: blank}
    args = ["evaluate"] + [str(a) for pair in files.items() for a in pair]
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ParseError: line 1, column 1: empty file"
    ]


@pytest.mark.parametrize(
    "body,message",
    [
        ("", "ParseError: line 2, column 1: no data rows"),
        ("\n\n", "ParseError: line 2, column 1: no data rows"),
        ("s1,0.5\n", "ParseError: line 2, column 1: expected 3 fields, got 2"),
        (
            "s1,0.5,0.5\n\ns2,0.5,0.5,0\n",
            "ParseError: line 4, column 1: expected 3 fields, got 4",
        ),
        ("s1,0.5,x\n", "ParseError: line 2, column 3: not a number: 'x'"),
        ("s1,0.5,0.5\ns2,nan,0.5\n", "NonFinite: line 3, column 2: non-finite value"),
    ],
    ids=[
        "header_only",
        "blank_lines_only",
        "short_row",
        "long_row",
        "not_a_number",
        "nan",
    ],
)
def test_evaluate_bad_file_prints_one_line(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("source,a,b\n" + body, encoding="utf-8")
    phi = tmp_path / "phi.csv"
    phi.write_text("source,a,b\ns1,0.5,0.5\n", encoding="utf-8")
    args = ["evaluate", "--phi-hat", str(bad), "--phi-true", str(phi)]
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_evaluate_skips_blank_lines(tmp_path):
    phi_true = tmp_path / "phi_true.csv"
    phi_true.write_text("source,a,b\ns1,0.25,0.5\ns2,0.75,0.5\n", encoding="utf-8")
    phi_hat = "source,a,b\ns1,0.7,0.4\ns2,0.3,0.6\n"
    metrics = []
    for name, text in [
        ("plain", phi_hat),
        ("trailing", phi_hat + "\n"),
        ("inner", phi_hat.replace("\ns2", "\n\ns2")),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"out_{name}"
        args = ["evaluate", "--phi-hat", str(path), "--phi-true", str(phi_true)]
        assert main(args + ["--out", str(out)]) == 0
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[1] == metrics[0] and metrics[2] == metrics[0]


PHI_TRUE_2X3 = "source,a,b,c\ns1,0.2,0.7,0.4\ns2,0.8,0.3,0.6\n"


def test_evaluate_matches_columns_by_name(tmp_path):
    phi_true = tmp_path / "phi_true.csv"
    phi_true.write_text(PHI_TRUE_2X3, encoding="utf-8")
    # The same matrix with its columns, names included, in reverse order.
    reordered = tmp_path / "reordered.csv"
    reordered.write_text(
        "source,c,b,a\ns1,0.4,0.7,0.2\ns2,0.6,0.3,0.8\n", encoding="utf-8"
    )
    metrics = []
    for phi_hat in (phi_true, reordered):
        out = tmp_path / f"out_{phi_hat.stem}"
        args = ["evaluate", "--phi-hat", str(phi_hat), "--phi-true", str(phi_true)]
        assert main(args + ["--out", str(out)]) == 0
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[1] == metrics[0]
    assert read_csv(tmp_path / "out_reordered" / "metrics.csv")[1] == ["0", "0", "0"]


@pytest.mark.parametrize(
    "true_header,hat_header",
    [("source,a,b,c", "source,a,b,x"), ("source,a,a,b", "source,a,b,b")],
    ids=["renamed", "repeated"],
)
def test_evaluate_rejects_other_column_names(tmp_path, capsys, true_header, hat_header):
    body = PHI_TRUE_2X3.split("\n", 1)[1]
    phi_true = tmp_path / "phi_true.csv"
    phi_true.write_text(true_header + "\n" + body, encoding="utf-8")
    phi_hat = tmp_path / "phi_hat.csv"
    phi_hat.write_text(hat_header + "\n" + body, encoding="utf-8")
    args = ["evaluate", "--phi-hat", str(phi_hat), "--phi-true", str(phi_true)]
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ShapeMismatch: ")
    assert not (tmp_path / "o").exists()


def test_estimate_defaults_are_estimator_config_defaults(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["estimate", "--input", str(path), "--K", "3", "--out", str(tmp_path / "o")]
    )
    assert cli._estimator_config(args) == EstimatorConfig(K=3)
    # A field without a flag, or a flag without a field, fails here.
    dests = set(vars(args)) - {"command", "func", "input", "out"}
    assert dests == {f.name for f in dataclasses.fields(EstimatorConfig)}


def test_study_defaults_are_study_design_defaults():
    args = cli.build_parser().parse_args(["convergence-study", "--out", "ignored"])
    assert cli._study_design(args) == StudyDesign()


class TestEndToEnd:
    def test_cli_matches_in_process_run(self, tmp_path):
        sim, est, ev = tmp_path / "sim", tmp_path / "est", tmp_path / "ev"
        seed = 5
        main(["simulate", "--n", "400", "--J", "8", "--K", "3", "--seed", str(seed), "--out", str(sim)])
        main(["estimate", "--input", str(sim / "y.csv"), "--K", "3", "--out", str(est)])
        assert main(
            [
                "evaluate",
                "--phi-hat",
                str(est / "phi_hat.csv"),
                "--phi-true",
                str(sim / "phi_true.csv"),
                "--out",
                str(ev),
            ]
        ) == 0
        rows = read_csv(ev / "metrics.csv")
        metrics = dict(zip(rows[0], map(float, rows[1])))

        y, truth = make_ground_truth(400, 8, 3, "ar1", RngSpec(seed))
        result = apportion(y, EstimatorConfig(K=3))
        alignment = align_rows(truth.phi_true.values, result.phi_hat.values)
        aligned = result.phi_hat.values[list(alignment.permutation)]
        assert metrics["nrmse"] == pytest.approx(
            nrmse(truth.phi_true.values, aligned), rel=1e-12
        )
        assert metrics["nfd"] == pytest.approx(
            nfd(truth.phi_true.values, aligned), rel=1e-12
        )


class TestConvergenceStudyCommand:
    def test_csv_shape_and_manifest(self, tmp_path):
        out = tmp_path / "study"
        assert main(
            [
                "convergence-study",
                "--n-grid",
                "60,120",
                "--replicates",
                "3",
                "--J",
                "6",
                "--K",
                "3",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        ) == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["n", "replicate", "nrmse", "nfd", "runtime_seconds", "search_used"]
        assert len(rows) - 1 == 2 * 3
        for row in rows[1:]:
            assert math.isfinite(float(row[2])) and math.isfinite(float(row[3]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 11
        assert manifest["config"]["failures"] == []
        assert (out / "summary.csv").is_file()

    def test_manifest_lists_only_written_outputs(self, tmp_path):
        # n = 3 < K + 1 rows: every task fails, so no summary is written.
        out = tmp_path / "study"
        args = ["convergence-study", "--n-grid", "3", "--replicates", "2", "--K", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert not (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["metrics.csv"]
        assert len(manifest["config"]["failures"]) == 2

    def test_paper_scale_row_count(self, tmp_path):
        out = tmp_path / "study"
        assert main(
            [
                "convergence-study",
                "--n-grid",
                "100,300",
                "--replicates",
                "50",
                "--out",
                str(out),
            ]
        ) == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) - 1 == 2 * 50

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-grid", "200,0"],
            ["--n-grid", "200,200"],
            ["--J", "8", "--K", "8"],
            ["--workers", "0"],
            ["--workers", "-3"],
        ],
    )
    def test_bad_design_fails_before_any_task(self, tmp_path, capsys, monkeypatch, flags):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "convergence_study", no_study)
        out = tmp_path / "study"
        assert main(["convergence-study", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ValueError: ")
        assert not out.exists()

    def test_workers_env_default(self, monkeypatch):
        from apportion.cli import build_parser

        monkeypatch.setenv("APPORTION_WORKERS", "3")
        args = build_parser().parse_args(["convergence-study", "--out", "ignored"])
        assert args.workers == 1
        args = build_parser().parse_args(
            ["convergence-study", "--workers", "5", "--out", "ignored"]
        )
        assert args.workers == 5

    def test_rerun_identical_except_runtime(self, tmp_path):
        args = [
            "convergence-study",
            "--n-grid",
            "60",
            "--replicates",
            "2",
            "--J",
            "6",
            "--K",
            "2",
            "--seed",
            "13",
        ]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2), "--workers", "2"])
        rows1 = read_csv(out1 / "metrics.csv")
        rows2 = read_csv(out2 / "metrics.csv")
        drop_runtime = lambda rows: [r[:4] + r[5:] for r in rows]
        assert drop_runtime(rows1) == drop_runtime(rows2)
