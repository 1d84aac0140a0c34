"""Command-line front end.

Subcommands: validate, weights, convert, project, tip, emi, scan.
Matrices are read from a CSV or JSON file (or stdin with "-"); all
indices on the command line and in reports are 1-based.

Each command loads its input through one prelude (``_load``) and describes
its report once; one renderer (``_render``) prints it as text, JSON or CSV.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 bad
arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    AdditivePcm,
    DEFAULT_TOLERANCES,
    Tolerances,
    additive_weights,
    gmm_weights,
    normalize_weights,
    ranking_of,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from .errors import PcmError
from .manipulation import (
    DEFAULT_DELTA,
    max_changed_entries,
    pair_report,
    scan_all_pairs,
    tip_pair,
    verify_manipulation,
)
from .projection import project_to_tie
from .tiespace import AlternativePair

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 4

SCALES = ("multiplicative", "additive")


class CliParseError(Exception):
    """Input file could not be parsed; carries a 1-based location."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + location)
        self.line, self.column = line, column


@dataclass
class MatrixFile:
    scale: str
    matrix: np.ndarray
    names: list[str] | None = None


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc


def parse_matrix_file(path: str, default_scale: str = "multiplicative",
                      expect_names: bool = False) -> MatrixFile:
    """Parse a matrix from CSV (n rows of n numbers) or JSON
    ({"scale", "matrix", optional "names"}), sniffed by content.  One leading
    byte-order mark, as Excel's "CSV UTF-8" writes, is dropped, from a file or stdin."""
    text = _read_text(path).removeprefix("\ufeff")
    if not text.strip():
        raise CliParseError("empty input", line=1)
    if text.lstrip()[0] == "{":
        return _parse_json(text, default_scale)
    return _parse_csv(text, default_scale, expect_names)


def _parse_json(text: str, default_scale: str) -> MatrixFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                            column=exc.colno) from exc
    except RecursionError as exc:
        raise CliParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict) or "matrix" not in data:
        raise CliParseError('JSON input must be an object with a "matrix" key')
    scale = data.get("scale", default_scale)
    if scale not in SCALES:
        raise CliParseError(f'unknown scale "{scale}"')
    matrix = data["matrix"]
    names = data.get("names")
    for r, row in enumerate(matrix if isinstance(matrix, list) else [], start=1):
        for c, entry in enumerate(row if isinstance(row, list) else [], start=1):
            if isinstance(entry, (bool, str)) or entry is None:  # numpy would read a number
                raise CliParseError(f"not a number: {json.dumps(entry)} (row {r}, column {c})")
    try:
        values = np.array(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliParseError(f"matrix is not numeric: {exc}") from exc
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise CliParseError(f"matrix must be square, got shape {values.shape}")
    _check_names(names, values.shape[0])
    return MatrixFile(scale=scale, matrix=values, names=names)


def _parse_csv(text: str, default_scale: str, expect_names: bool) -> MatrixFile:
    rows = []
    names = None
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if expect_names:
        names = [cell.strip() for cell in lines.pop(0)[1].split(",")]
    for lineno, line in lines:
        cells = line.split(",")
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError as exc:
                raise CliParseError(
                    f'not a number: "{cell.strip()}"', line=lineno, column=colno
                ) from exc
        rows.append(row)
    n = len(rows)
    for (lineno, _), row in zip(lines, rows):
        if len(row) != n:
            raise CliParseError(
                f"ragged matrix: expected {n} values, got {len(row)}", line=lineno
            )
    _check_names(names, n)
    return MatrixFile(scale=default_scale, matrix=np.array(rows), names=names)


def _check_names(names, n):
    if names is None:
        return
    if not isinstance(names, list) or len(names) != n:
        raise CliParseError(f"expected {n} names, got {names!r}")
    if not all(isinstance(name, str) for name in names):
        raise CliParseError(f"alternative names must be strings, got {names!r}")
    if len(set(names)) != n:
        raise CliParseError("alternative names must be unique")


# ---------------------------------------------------------------------------
# the shared prelude

class UsageError(Exception):
    """Arguments are syntactically valid but unusable for this input."""


def _from_args(make, *params):
    """make(*params) for values taken from the command line, where a
    PcmError is a usage error."""
    try:
        return make(*params)
    except PcmError as exc:
        raise UsageError(str(exc)) from exc


def _validate(mf: MatrixFile, tol: Tolerances):
    multiplicative = mf.scale == "multiplicative"
    return (validate_multiplicative if multiplicative else validate_additive)(mf.matrix, tol)


def _read_input(args) -> tuple[Tolerances, MatrixFile]:
    """The first half of the prelude, all that validate needs."""
    tol = _from_args(Tolerances, args.tol_reciprocity, args.tol_antisymmetry, args.tol_tie)
    return tol, parse_matrix_file(args.file, args.scale, args.names)


@dataclass
class Loaded:
    """A command's input: tolerances, the file, its matrix validated in
    the file's scale (pcm) and in additive form (a), and the pair."""

    tol: Tolerances
    file: MatrixFile
    pcm: object
    a: AdditivePcm
    pair: AlternativePair | None

    def label(self, k: int) -> str:
        return self.file.names[k - 1] if self.file.names else str(k)


def _load(args) -> Loaded:
    """The whole prelude, shared by every command but validate."""
    tol, mf = _read_input(args)
    pcm = _validate(mf, tol)
    a = to_additive(pcm) if mf.scale == "multiplicative" else pcm
    pair = _from_args(AlternativePair, *args.pair, a.n) if "pair" in args else None
    return Loaded(tol, mf, pcm, a, pair)


# ---------------------------------------------------------------------------
# the renderer

def _num(v) -> str:  # from 1e15 up fixed point would print a digit per power of ten
    return f"{v:.4f}" if abs(v) < 1e15 else f"{v:.4e}"


def _text_matrix(values: np.ndarray) -> str:
    cells = [list(map(_num, row)) for row in values]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _text_vector(values) -> str:
    return "(" + ", ".join(map(_num, values)) + ")"


def _render(args, out, payload, lines, rows=None, code=EXIT_OK) -> int:
    """Print one report in the format args.output names; return code.

    Each part is a zero-argument callable and only the chosen one runs,
    so project's CSV never computes the coefficients its text and JSON
    print.  A report without CSV rows prints its text lines instead.
    """
    if args.output == "json":
        print(json.dumps(payload(), indent=2, default=np.ndarray.tolist), file=out)
    elif args.output == "csv" and rows is not None:
        csv.writer(out, lineterminator="\n").writerows(rows())
    else:
        print("\n".join(lines()), file=out)
    return code


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args, out) -> int:
    tol, mf = _read_input(args)
    try:
        _validate(mf, tol)
    except PcmError as exc:
        return _render(args, out, code=EXIT_VALIDATION,
                       payload=lambda: dict(valid=False, scale=mf.scale, error=str(exc),
                                            tolerances=asdict(tol)),
                       lines=lambda: [f"INVALID ({mf.scale}): {exc}"])
    n = mf.matrix.shape[0]
    return _render(args, out,
                   payload=lambda: dict(valid=True, scale=mf.scale, n=n, tolerances=asdict(tol)),
                   lines=lambda: [f"valid {mf.scale} PCM, n = {n}"])


def cmd_weights(args, out) -> int:
    x = _load(args)
    if x.file.scale == "multiplicative":
        weights, method = gmm_weights(x.pcm), "geometric mean"
    elif args.normalize:
        raise UsageError("--normalize needs multiplicative input: additive weights sum to 0")
    else:
        weights, method = additive_weights(x.pcm), "row arithmetic mean"
    shown = normalize_weights(weights) if args.normalize else weights
    ranking = ranking_of(weights, x.tol)
    return _render(args, out,
                   payload=lambda: dict(scale=x.file.scale, method=method, weights=shown,
                                        normalized=args.normalize, ranking=ranking.groups,
                                        tolerances=asdict(x.tol)),
                   lines=lambda: [f"weights ({method}): {_text_vector(shown)}",
                                  f"ranking: {ranking}"],
                   rows=lambda: [("alternative", "weight"),
                                 *((x.label(k), w) for k, w in enumerate(shown.tolist(), 1))])


def cmd_convert(args, out) -> int:
    x = _load(args)
    if args.to == x.file.scale:
        result = x.file.matrix
    else:
        result = (x.a if args.to == "additive" else to_multiplicative(x.a)).values
    names = {"names": x.file.names} if x.file.names else {}
    return _render(args, out,
                   payload=lambda: dict(scale=args.to, matrix=result, **names),
                   lines=lambda: [_text_matrix(result)],
                   rows=result.tolist)


def cmd_project(args, out) -> int:
    x = _load(args)
    pair, result = x.pair, project_to_tie(x.a, x.pair)
    w_before, w_after = additive_weights(result.original), additive_weights(result.projected)
    matrix = result.projected.values
    return _render(args, out,
                   payload=lambda: dict(pair=[pair.i, pair.j], scale="additive", matrix=matrix,
                                        coefficients=result.coefficients,
                                        distance=result.distance, weights_before=w_before,
                                        weights_after=w_after, tolerances=asdict(x.tol)),
                   lines=lambda: [f"projection equating {x.label(pair.i)} and "
                                  f"{x.label(pair.j)} (additive scale):",
                                  _text_matrix(matrix),
                                  f"coefficients: {_text_vector(result.coefficients)}",
                                  f"distance: {_num(result.distance)}",
                                  f"weights before: {_text_vector(w_before)}",
                                  f"weights after:  {_text_vector(w_after)}"],
                   rows=matrix.tolist)


def cmd_tip(args, out) -> int:
    x = _load(args)
    pair = x.pair
    tip = _from_args(tip_pair, project_to_tie(x.a, pair), args.winner, args.delta)
    verdict = verify_manipulation(x.a, tip.tipped, pair, args.winner, x.tol)
    matrix = tip.tipped.values
    return _render(args, out,
                   payload=lambda: dict(pair=[pair.i, pair.j], winner=tip.winner,
                                        delta=tip.delta, scale="additive", matrix=matrix,
                                        extra_distance=tip.extra_distance,
                                        total_distance=tip.total_distance,
                                        verdict=verdict._asdict(), tolerances=asdict(x.tol)),
                   lines=lambda: [f"tipped matrix, {x.label(tip.winner)} wins "
                                  f"(delta = {tip.delta:g}, additive scale):",
                                  _text_matrix(matrix),
                                  f"extra distance: {_num(tip.extra_distance)}",
                                  f"total distance: {_num(tip.total_distance)}",
                                  f"verdict: {'pass' if verdict.passed else 'FAIL'}",
                                  *(f"  note: {msg}" for msg in verdict.messages)],
                   rows=matrix.tolist)


def cmd_emi(args, out) -> int:
    x = _load(args)
    pair, report = x.pair, pair_report(x.a, x.pair, x.tol)
    most = max_changed_entries(x.a.n)
    with np.errstate(over="ignore"):  # inf is the right factor beyond float64
        ratio = float(np.exp(report.emi))
    return _render(args, out,
                   payload=lambda: dict(pair=[pair.i, pair.j], emi=report.emi,
                                        emi_ratio_scale=ratio,
                                        nonzero_count=report.nonzero_count,
                                        max_changed_entries=most, distance=report.distance,
                                        abs_diff=report.abs_diff, tolerances=asdict(x.tol)),
                   lines=lambda: ["absolute difference |A - A'|:",
                                  _text_matrix(report.abs_diff),
                                  f"EMI: {_num(report.emi)}  (ratio-scale factor e^EMI = "
                                  f"{_num(ratio)}, derived)",
                                  f"nonzero entries: {report.nonzero_count} of at most {most}"],
                   rows=report.abs_diff.tolist)


def cmd_scan(args, out) -> int:
    x = _load(args)
    table = scan_all_pairs(x.a)

    def lines():  # the pair column widens to the longest label
        pairs = [f"({x.label(r.i)},{x.label(r.j)})" for r in table.rows]
        width = max(12, *map(len, pairs))
        return [f"{'pair':>{width}}  {'EMI':>10}  {'distance':>10}  {'f':>10}",
                *(f"{p:>{width}}  {_num(r.emi):>10}  {_num(r.distance):>10}  {_num(r.f_value):>10}"
                  for p, r in zip(pairs, table.rows))]

    return _render(args, out,
                   payload=lambda: dict(n=table.n, rows=[r._asdict() for r in table.rows],
                                        tolerances=asdict(x.tol)),
                   lines=lines,
                   rows=lambda: [("i", "j", "emi", "distance", "f_value"), *table.rows])


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcmanip",
                                     description="Rank-reversal manipulation analysis for "
                                                 "pairwise comparison matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, pair=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("file", help="matrix file (CSV or JSON), or - for stdin")
        p.add_argument("--scale", choices=SCALES, default="multiplicative",
                       help="scale of the input matrix (default multiplicative)")
        p.add_argument("--names", action="store_true",
                       help="CSV input has a header row of alternative names")
        p.add_argument("--output", choices=("text", "json", "csv"),
                       default="text", help="report format")
        p.add_argument("--tol-reciprocity", type=float, default=DEFAULT_TOLERANCES.reciprocity)
        p.add_argument("--tol-antisymmetry", type=float, default=DEFAULT_TOLERANCES.antisymmetry)
        p.add_argument("--tol-tie", type=float, default=DEFAULT_TOLERANCES.ranking_tie)
        if pair:
            p.add_argument("--pair", nargs=2, type=int, required=True,
                           metavar=("I", "J"),
                           help="1-based indices of the two alternatives")
        return p

    command("validate", cmd_validate, "check the matrix against its scale")
    command("weights", cmd_weights, "priority vector and ranking").add_argument(
        "--normalize", action="store_true",
        help="scale weights to sum to 1 (multiplicative scale only)")
    command("convert", cmd_convert, "convert between scales").add_argument(
        "--to", choices=SCALES, required=True)
    command("project", cmd_project, "closest matrix tying a pair", pair=True)
    p = command("tip", cmd_tip, "projection plus the tie-breaking nudge", pair=True)
    p.add_argument("--winner", type=int, required=True,
                   help="1-based index of the alternative that should win")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help=f"size of the nudge (default {DEFAULT_DELTA})")
    command("emi", cmd_emi, "ease of manipulation index for a pair", pair=True)
    command("scan", cmd_scan, "EMI table over all pairs")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a bad argument
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except CliParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
