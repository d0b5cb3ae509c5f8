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
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys
import time
import warnings
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
    ``_format_cells`` returns them.  The bytes are those of writing every
    row through ``csv.writer`` with ``%.17g``, which never quotes a field.
    """
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=float)
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(list(names))
    seps = np.full(matrix.shape[1], ord(","), dtype=np.uint32)
    seps[-1] = ord("\n")
    step = max(1, _FORMAT_CELLS // matrix.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        for start in range(0, len(matrix), step):
            fh.write(_format_cells(matrix[start : start + step], seps))


# The exact writer.  A value v with 1e-4 <= |v| < 1e14 is m * 2**(b - 1075),
# with m the 53-bit significand and b the biased exponent.  Its 17
# significant digits are the integer D in [10**16, 10**17) nearest to
# |v| * 10**(16 - E), E = floor(log10 |v|), ties to even as in David Gay's
# dtoa, which CPython's ``%`` runs.  That product is m * 5**k >> t with
# k = 16 - E in [3, 20] and t = 1059 + E - b in [3, 46]: a right shift of
# an integer below 2**101, done exactly on two uint64 words.  ``%g``
# writes that range in fixed notation.  Every other value (0, -0,
# subnormals, non-finite values, exponent notation) and every whole number
# goes through ``%``.
#
# A cell is laid out in 32 bytes, with a NUL for each byte its text does
# not use; deleting the NULs leaves the text.  Byte 6 holds the sign, byte
# 7 the "0" before the point of |v| < 1 and bytes 12 + E to 10 the "0"s
# after it, byte 11 D's first digit and bytes 12-27 the other 16, with its
# trailing zeros NULs.  The point goes in at byte 12 + E, and the bytes
# from there on move up one.  Byte 31 holds the separator.

_U64 = np.uint64
_FAST_RANGE = (1e-4, 1e14)
_STRIPPED = 10_000  # offset of the trailing-zeros-as-NUL half of ascii4


@functools.cache
def _layout_tables():
    """Tables the writer indexes, built on its first call.

    ``pow5[E + 5]`` is 5**(16 - E).  ``ascii4[c]`` is the 4-digit ASCII
    of c < 10**4 as a little-endian uint32, ``ascii4[_STRIPPED + c]`` the
    same with its trailing zeros as NULs.  Row E + 4 of ``zeros`` holds
    the "0"s of cell bytes 4-11, and of ``tail`` the mask of the bytes from
    the point on.
    """
    pow5 = _U64(5) ** np.arange(21, 1, -1, dtype=np.uint64)
    c = np.arange(10_000)
    chars = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    chars = (chars + ord("0")).astype(np.uint8)
    # Keep each digit with a nonzero digit at or after it.
    kept = np.flip(np.logical_or.accumulate(np.flip(chars != ord("0"), 1), 1), 1)
    ascii4 = np.concatenate([chars, chars * kept]).view("<u4").ravel()
    zeros = np.zeros((21, 8), dtype=np.uint8)
    tail = np.zeros((21, 32), dtype=np.uint8)
    for e in range(-4, 17):
        if e < 0:
            zeros[e + 4, 3] = ord("0")
            zeros[e + 4, 8 + e : 7] = ord("0")
        tail[e + 4, 12 + e : 31] = 0xFF
    tables = pow5, ascii4, zeros.view("<u4"), tail.view("<u8")
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(m, b, e10, pow5):
    """floor(m * 2**(b - 1075) * 10**(16 - e10)), the remainder below it
    in units of 2**-t, and t = 1059 + e10 - b."""
    f = np.take(pow5, e10 + 5)
    t = (e10 + 1059 - b).astype(np.uint64)
    low32, s32 = _U64(0xFFFFFFFF), _U64(32)
    ml, mh = m & low32, m >> s32
    fl, fh = f & low32, f >> s32
    lo = ml * fl
    mid = mh * fl + ml * fh
    hi = mh * fh + (mid >> s32)
    mid <<= s32
    lo += mid
    hi += lo < mid
    rem = lo & ((_U64(1) << t) - _U64(1))
    return (hi << (_U64(64) - t)) | (lo >> t), rem, t


def _significands(values):
    """D and E of each value, and the mask of the values out of range."""
    pow5 = _layout_tables()[0]
    mag = np.abs(values)
    slow = ~((mag >= _FAST_RANGE[0]) & (mag < _FAST_RANGE[1]))
    mag[slow] = 1.0
    bits = mag.view(np.uint64)
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1 << 52)
    b = (bits >> _U64(52)).astype(np.intp)
    # log10 can miss E by one next to a power of ten; D's length tells.
    e10 = np.floor(np.log10(mag)).astype(np.intp)
    d, rem, t = _scaled(m, b, e10, pow5)
    off = np.flatnonzero(d - _U64(10**16) >= _U64(9 * 10**16))
    if off.size:
        e10[off] += np.where(d[off] < _U64(10**16), -1, 1)
        d[off], rem[off], t[off] = _scaled(m[off], b[off], e10[off], pow5)
    half = _U64(1) << (t - _U64(1))
    d += rem >= half
    # A tie rounded up to odd goes back down to even.
    d[rem == half] &= ~_U64(1)
    carry = d == _U64(10**17)
    d[carry] = _U64(10**16)
    e10 += carry
    return d.view(np.intp), e10, slow


def _format_cells(block: np.ndarray, seps: np.ndarray) -> bytes:
    """The rows of C-contiguous ``block`` as ``%.17g`` text, each cell
    followed by its column's separator in ``seps``."""
    _, ascii4, zeros, tail = _layout_tables()
    values = block.ravel()
    d, e10, slow = _significands(values)
    # D's first digit, then its other 16 in four 4-digit chunks.
    c0, d = np.divmod(d, 10**16)
    h8, l8 = np.divmod(d, 10**8)
    chunks = np.empty((values.size, 4), dtype=np.intp)
    np.divmod(h8, 10**4, out=(chunks[:, 0], chunks[:, 1]))
    np.divmod(l8, 10**4, out=(chunks[:, 2], chunks[:, 3]))
    chunks[:, 3] += _STRIPPED
    cells = np.zeros((values.size, 8), dtype=np.uint32)
    cells[:, 1:3] = np.take(zeros, e10 + 4, axis=0)
    cells[:, 1] |= (values < 0) * np.uint32(ord("-") << 16)
    cells[:, 2] |= (c0 + ord("0")).astype(np.uint32) << 24
    cells[:, 3:7] = np.take(ascii4, chunks)
    cells.reshape(len(block), -1, 8)[:, :, 7] = seps << 24
    # The trailing zeros reach into a chunk where every chunk after it is 0.
    rows = np.flatnonzero(chunks[:, 3] == _STRIPPED)
    for col in (2, 1, 0):
        if not rows.size:
            break
        cells[rows, 3 + col] = np.take(ascii4, chunks[rows, col] + _STRIPPED)
        rows = rows[chunks[rows, col] == 0]

    words = cells.view(np.uint64)
    moved = words & np.take(tail, e10 + 4, axis=0)
    words ^= moved
    # A whole number would end in a bare point.
    slow |= (moved[:, 1] | moved[:, 2] | moved[:, 3]) == 0
    text = words.view(np.uint8)
    text.ravel()[1:] |= moved.view(np.uint8).ravel()[:-1]
    text.ravel()[np.arange(12, text.size, 32) + e10] = ord(".")
    exact = [_FMT % v for v in values[slow].tolist()]
    if exact:
        text[slow, :31] = np.array(exact, dtype="S31").view(np.uint8).reshape(-1, 31)
    return text.tobytes().translate(None, b"\0")


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
        reader = csv.reader(fh)
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


def load_concentrations(path: str | Path) -> ConcentrationMatrix:
    """Parse a concentration CSV: header of pollutant names, numeric body.

    A UTF-8 byte-order mark before the header is skipped.  The header is
    read by ``csv.reader`` and the body by ``np.loadtxt``, which converts
    decimals with correct rounding, so the values are bitwise those of
    ``float(cell)``.  Where loadtxt or ``ConcentrationMatrix`` rejects the
    body, the cell-wise parser reads the file again and raises the error:
    ParseError and its subclasses, with 1-based (line, column)
    coordinates, or ``ConcentrationMatrix``'s ValueError.
    """
    with open(Path(path), encoding="utf-8-sig", newline="") as fh:
        names = next(csv.reader(fh), None)
        if names is not None:
            # A file with no data rows warns; the cell-wise parser reports it.
            with contextlib.suppress(ValueError), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                # ConcentrationMatrix rejects an empty body, but it names
                # the columns of an empty header itself.
                if values.shape[1] == len(names):
                    return ConcentrationMatrix(values, tuple(names))
        fh.seek(0)
        return _load_cellwise(fh)


def _load_cellwise(fh) -> ConcentrationMatrix:
    """Parse cell by cell, raising at the first bad cell or row."""
    reader = csv.reader(fh)
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
