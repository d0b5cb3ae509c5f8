"""Command-line surface: simulate, estimate, evaluate, convergence-study.

All numeric CSV output uses 17 significant digits (lossless for float64),
UTF-8, and LF line endings, so identical configs and seeds reproduce
byte-identical files.  Wall-clock timestamps live only in the manifest.
Errors print one machine-parsable line (``Category: detail``) to stderr,
after a ``warning:`` line for each warning issued before the failure, and
exit nonzero.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from .estimator import SEARCH_MODES, ConcentrationMatrix, EstimatorConfig, apportion
from .evaluation import (
    MetricsRecord,
    StudyDesign,
    align_rows,
    convergence_study,
    nfd,
    nrmse,
    summarize_records,
)
from .exceptions import (
    ApportionError,
    NegativeValue,
    NonFinite,
    ParseError,
    ShapeMismatch,
)
from .synthgen import PROCESSES, RngSpec, make_ground_truth

_FMT = "%.17g"
# Cells per call, and per write, of the exact writer.  Its largest
# temporaries take 32 bytes a cell, so each, like the text of one call,
# stays under 128 KB: glibc's malloc serves those from memory it freed,
# but maps larger ones afresh on every call, with a page fault per 4 KB.
_FORMAT_CELLS = 2048


def _fmt(value: float) -> str:
    return _FMT % value


def _open_write(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(path: Path, header: list[str], rows) -> None:
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix(path: Path, matrix: np.ndarray, names) -> None:
    """Header through ``csv.writer``, then the body one write per
    ``_FORMAT_CELLS`` cells (whole rows, at least one), as
    ``floattext.format_cells`` returns them.  The bytes are those of writing
    every row through ``csv.writer`` with ``%.17g``, which never quotes a
    field.
    """
    # Imported on first use, so that importing the CLI does not load it.
    from .floattext import format_cells

    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=float)
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(list(names))
    seps = np.full(matrix.shape[1], ord(","), dtype=np.uint32)
    seps[-1] = ord("\n")
    step = max(1, _FORMAT_CELLS // matrix.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        for start in range(0, len(matrix), step):
            fh.write(format_cells(matrix[start : start + step], seps))


def _write_labeled_matrix(path: Path, matrix: np.ndarray, labels, names) -> None:
    rows = (
        [label] + [_fmt(v) for v in row]
        for label, row in zip(labels, np.atleast_2d(matrix))
    )
    _write_rows(path, ["source"] + list(names), rows)


def _read_labeled_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """The column names and values of a ``source,<names>`` CSV, read by
    the cell-wise parser's row and cell rules (any finite value is
    allowed)."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_utf8_checked(fh))
        header = next(reader, None)
        if header is None:
            raise ParseError(1, 1, "empty file")
        rows = [
            [_number(c, line_no, col) for col, c in enumerate(row[1:], start=2)]
            for line_no, row in _data_rows(reader, len(header))
        ]
    return header[1:], np.asarray(rows)


def _column_order(names: list[str], reference: list[str]) -> list[int]:
    """Indices that put the columns called ``names`` in ``reference``'s
    order.  ShapeMismatch unless both lists name the same columns, each
    once."""
    if len(set(names)) != len(names) or sorted(names) != sorted(reference):
        raise ShapeMismatch(
            f"pollutant names {names} and {reference} must match, each once"
        )
    return [names.index(name) for name in reference]


def _data_rows(reader, width: int):
    """(line, row) for each non-empty row after the header.  A row of
    another width raises ParseError, and so does a body with no rows."""
    empty = True
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(line_no, 1, f"expected {width} fields, got {len(row)}")
        empty = False
        yield line_no, row
    if empty:
        raise ParseError(2, 1, "no data rows")


def _number(cell: str, line_no: int, col_no: int) -> float:
    """The cell as a finite float, else ParseError or NonFinite."""
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(line_no, col_no, f"not a number: {cell!r}") from None
    if not np.isfinite(value):
        raise NonFinite(line_no, col_no)
    return value


def _read_header(fh) -> list[str]:
    """The first record of binary file ``fh``, which csv.reader reads from
    its UTF-8 text after any byte-order mark; ``fh`` is left after the
    record's last line.  UnicodeDecodeError or csv.Error if it cannot."""
    start, used = fh.tell(), 0

    def lines():
        # Lines end at "\r\n", "\r" or "\n", as in a text file opened
        # with newline="".
        nonlocal used
        for chunk in iter(fh.readline, b""):
            at = 0
            while at < len(chunk):
                end = chunk.find(b"\r", at) + 1 or len(chunk)
                end += chunk.startswith(b"\n", end)
                line = chunk[at:end]
                if not used:
                    line = line.removeprefix(codecs.BOM_UTF8)
                used += end - at
                at = end
                yield line.decode("utf-8")

    names = next(csv.reader(lines()), [])
    fh.seek(start + used)
    return names


def load_concentrations(path: str | Path) -> ConcentrationMatrix:
    """Parse a concentration CSV: header of pollutant names, numeric body.

    A UTF-8 byte-order mark before the header is skipped.  The header is
    read by ``csv.reader`` and the body by ``floattext.read_rows``: cells
    of 16-25 bytes, as ``simulate`` writes them, by an exact vectorized
    reader, and others by ``np.loadtxt``, which is as fast there.  Both
    round correctly, so the values are bitwise those of ``float(cell)``.
    Where the reader or
    ``ConcentrationMatrix`` rejects the file, the cell-wise parser reads it
    again and raises the error: ParseError and its subclasses, with 1-based
    (line, column) coordinates, or ``ConcentrationMatrix``'s ValueError.
    """
    from .floattext import read_rows

    path = Path(path)
    with open(path, "rb") as fh:
        try:
            names = _read_header(fh)
        except (ValueError, csv.Error):
            names = []
        values = read_rows(fh, len(names)) if names else None
    if values is not None:
        with contextlib.suppress(ValueError):
            return ConcentrationMatrix(values, tuple(names))
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return _load_cellwise(fh)


def _utf8_checked(fh):
    """Text file ``fh``, open at its start, once its bytes are found to be
    UTF-8.  Otherwise ParseError at the line and field of the first byte
    that is not."""
    raw = fh.buffer.read().removeprefix(codecs.BOM_UTF8)
    fh.seek(0)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # csv.reader counts the lines and fields up to the bad byte, for
        # which "x" stands.
        before = io.StringIO(raw[: exc.start].decode("utf-8") + "x", newline="")
        for line_no, row in enumerate(csv.reader(before), start=1):
            pass
        raise ParseError(line_no, len(row), "not UTF-8") from None
    return fh


def _load_cellwise(fh) -> ConcentrationMatrix:
    """Parse cell by cell, raising at the first bad cell or row, once the
    whole file is found to be UTF-8."""
    reader = csv.reader(_utf8_checked(fh))
    try:
        names = next(reader)
    except StopIteration:
        raise ParseError(1, 1, "empty file") from None
    rows = []
    for line_no, row in _data_rows(reader, len(names)):
        parsed = []
        for col_no, cell in enumerate(row, start=1):
            value = _number(cell, line_no, col_no)
            if value < 0:
                raise NegativeValue(line_no, col_no)
            parsed.append(value)
        rows.append(parsed)
    return ConcentrationMatrix(np.asarray(rows), tuple(names))


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]):
    manifest = {
        "command": command,
        "config": config,
        "outputs": outputs,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with _open_write(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(arg: str) -> Path:
    """Create ``--out``.  Each command calls this once its results are
    computed, so a failing run leaves no directory behind."""
    path = Path(arg)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _existing_file(arg: str) -> Path:
    path = Path(arg)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"input file not found: {arg}")
    return path


def _cmd_simulate(args) -> int:
    rng = RngSpec(args.seed)
    y, truth = make_ground_truth(args.n, args.J, args.K, args.process, rng)
    source_labels = truth.phi_true.source_labels
    out = _out_dir(args.out)
    _write_matrix(out / "y.csv", y.values, y.pollutant_names)
    _write_matrix(out / "w_true.csv", truth.W, source_labels)
    _write_labeled_matrix(out / "h_true.csv", truth.H, source_labels, y.pollutant_names)
    _write_labeled_matrix(out / "mu_true.csv", truth.mu[:, None], source_labels, ["mu"])
    _write_labeled_matrix(
        out / "phi_true.csv", truth.phi_true.values, source_labels, y.pollutant_names
    )
    config = {
        "process": args.process,
        "n": args.n,
        "J": args.J,
        "K": args.K,
        "seed": args.seed,
    }
    _write_manifest(
        out,
        "simulate",
        config,
        ["y.csv", "w_true.csv", "h_true.csv", "mu_true.csv", "phi_true.csv"],
    )
    return 0


def _estimator_config(args) -> EstimatorConfig:
    """Every ``estimate`` flag but ``--input`` and ``--out`` is the field
    of ``EstimatorConfig`` that its dest names."""
    fields = dataclasses.fields(EstimatorConfig)
    return EstimatorConfig(**{f.name: getattr(args, f.name) for f in fields})


def _study_design(args) -> StudyDesign:
    return StudyDesign(
        process=args.process,
        J=args.J,
        K=args.K,
        n_grid=tuple(int(v) for v in args.n_grid.split(",")),
        replicates=args.replicates,
        search=args.search,
        master_seed=args.seed,
    )


def _cmd_estimate(args) -> int:
    y = load_concentrations(args.input)
    cfg = _estimator_config(args)
    est = apportion(y, cfg)
    out = _out_dir(args.out)
    labels = est.phi_hat.source_labels
    _write_labeled_matrix(out / "phi_hat.csv", est.phi_hat.values, labels, y.pollutant_names)
    _write_labeled_matrix(out / "h_star_hat.csv", est.h_star_hat, labels, y.pollutant_names)
    _write_labeled_matrix(out / "m_tilde.csv", est.m_tilde[:, None], labels, ["m_tilde"])
    with _open_write(out / "diagnostics.json") as fh:
        json.dump(dataclasses.asdict(est.diagnostics), fh, indent=2, sort_keys=True)
        fh.write("\n")
    # %.17g prints the index and 0/1 columns as str(int) does (exact for
    # integers below 2**53).
    cands = est.candidates
    selected = np.isin(cands.indices, est.diagnostics.subset_rows)
    header = ["candidate_row"] + [f"z{i + 1}" for i in range(cands.z.shape[1])]
    scatter = np.column_stack([cands.indices, cands.z, selected])
    _write_matrix(out / "hull_scatter.csv", scatter, header + ["selected"])
    outputs = [
        "phi_hat.csv",
        "h_star_hat.csv",
        "m_tilde.csv",
        "diagnostics.json",
        "hull_scatter.csv",
    ]
    for warning in est.diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    config = {"input": str(args.input), **dataclasses.asdict(cfg)}
    _write_manifest(out, "estimate", config, outputs)
    return 0


def _cmd_evaluate(args) -> int:
    hat_names, phi_hat = _read_labeled_matrix(args.phi_hat)
    true_names, phi_true = _read_labeled_matrix(args.phi_true)
    # np.take returns a C-ordered copy (fancy indexing gives Fortran order),
    # so the metrics sum in the same order as for an unpermuted file.
    phi_hat = np.take(phi_hat, _column_order(hat_names, true_names), axis=1)
    alignment = align_rows(phi_true, phi_hat)
    aligned = phi_hat[list(alignment.permutation)]
    metrics = {
        "nrmse": nrmse(phi_true, aligned),
        "nfd": nfd(phi_true, aligned),
        "total_sq_distance": alignment.total_sq_distance,
    }
    out = _out_dir(args.out)
    _write_rows(
        out / "metrics.csv",
        list(metrics),
        [[_fmt(v) for v in metrics.values()]],
    )
    config = {
        "phi_hat": str(args.phi_hat),
        "phi_true": str(args.phi_true),
        "permutation": list(alignment.permutation),
    }
    _write_manifest(out, "evaluate", config, ["metrics.csv"])
    return 0


def _metrics_csv_rows(records: list[MetricsRecord]):
    for r in records:
        if r.error:
            continue
        yield [
            r.n,
            r.replicate,
            _fmt(r.nrmse),
            _fmt(r.nfd),
            _fmt(r.runtime_seconds),
            r.search_used,
        ]


def _cmd_convergence_study(args) -> int:
    design = _study_design(args)
    records = convergence_study(design, workers=args.workers)
    out = _out_dir(args.out)
    _write_rows(
        out / "metrics.csv",
        ["n", "replicate", "nrmse", "nfd", "runtime_seconds", "search_used"],
        _metrics_csv_rows(records),
    )
    outputs = ["metrics.csv"]
    summary = summarize_records(records)
    if summary:
        _write_rows(
            out / "summary.csv",
            list(summary[0]),
            (
                [row["n"], row["search_used"], row["count"]]
                + [_fmt(row[k]) for k in list(row)[3:]]
                for row in summary
            ),
        )
        outputs.append("summary.csv")
    failures = [
        {"n": r.n, "replicate": r.replicate, "search": r.search_used, "error": r.error}
        for r in records
        if r.error
    ]
    config = dataclasses.asdict(design)
    config["workers"] = args.workers
    config["failures"] = failures
    _write_manifest(out, "convergence-study", config, outputs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apportion",
        description="Source attribution percentage matrices from convex geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic data plus ground truth")
    sim.add_argument("--process", choices=PROCESSES, default="ar1")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--J", type=int, required=True)
    sim.add_argument("--K", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the attribution matrix")
    est.add_argument("--input", type=_existing_file, required=True)
    est.add_argument("--K", type=int, required=True)
    est.add_argument("--search", choices=SEARCH_MODES, default=EstimatorConfig.search)
    est.add_argument("--out", required=True)
    est.set_defaults(func=_cmd_estimate)

    ev = sub.add_parser("evaluate", help="score an estimate against the truth")
    ev.add_argument("--phi-hat", type=_existing_file, required=True)
    ev.add_argument("--phi-true", type=_existing_file, required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_evaluate)

    study = sub.add_parser(
        "convergence-study", help="replicated estimation across sample sizes"
    )
    study.add_argument("--process", choices=PROCESSES, default=StudyDesign.process)
    study.add_argument("--J", type=int, default=StudyDesign.J)
    study.add_argument("--K", type=int, default=StudyDesign.K)
    study.add_argument("--n-grid", default=",".join(map(str, StudyDesign.n_grid)))
    study.add_argument("--replicates", type=int, default=StudyDesign.replicates)
    study.add_argument("--search", choices=SEARCH_MODES, default=StudyDesign.search)
    study.add_argument("--seed", type=int, default=StudyDesign.master_seed)
    study.add_argument("--workers", type=int, default=1)
    study.add_argument("--out", required=True)
    study.set_defaults(func=_cmd_convergence_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ApportionError, ValueError, OSError) as exc:
        for warning in getattr(exc, "warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
