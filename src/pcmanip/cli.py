"""Command-line front end.

Subcommands: validate, weights, convert, project, tip, emi, scan.
Matrices are read from a CSV or JSON file (or stdin with "-"); all
indices on the command line and in reports are 1-based.

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
from .errors import InvalidWinnerError, NonPositiveDeltaError, PcmError
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class MatrixFile:
    scale: str
    matrix: np.ndarray
    names: list[str] | None = None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc


def parse_matrix_file(path: str, default_scale: str = "multiplicative",
                      expect_names: bool = False) -> MatrixFile:
    """Parse a matrix from CSV (n rows of n numbers) or JSON
    ({"scale", "matrix", optional "names"}), sniffed by content."""
    text = _read_text(path)
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
    if not isinstance(data, dict) or "matrix" not in data:
        raise CliParseError('JSON input must be an object with a "matrix" key')
    scale = data.get("scale", default_scale)
    if scale not in SCALES:
        raise CliParseError(f'unknown scale "{scale}"')
    matrix = data["matrix"]
    names = data.get("names")
    try:
        values = np.array(matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliParseError(f"matrix is not numeric: {exc}") from exc
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise CliParseError(f"matrix must be square, got shape {values.shape}")
    _check_names(names, values.shape[0])
    return MatrixFile(scale=scale, matrix=values, names=names)


def _parse_csv(text: str, default_scale: str, expect_names: bool) -> MatrixFile:
    rows = []
    names = None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    start = 0
    if expect_names:
        names = [cell.strip() for cell in lines[0].split(",")]
        start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
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
    for lineno, row in enumerate(rows, start=start + 1):
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
# output helpers

def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _text_matrix(values: np.ndarray) -> str:
    cells = [[_fmt(v) for v in row] for row in values]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _text_vector(values) -> str:
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit_json(payload, out):
    print(json.dumps(_jsonable(payload), indent=2), file=out)


def _emit_csv_matrix(values: np.ndarray, out):
    writer = csv.writer(out, lineterminator="\n")
    for row in values:
        writer.writerow([repr(float(v)) for v in row])


def _label(names, k: int) -> str:
    return names[k - 1] if names else str(k)


# ---------------------------------------------------------------------------
# subcommands

def _tolerances(args) -> Tolerances:
    return Tolerances(
        reciprocity=args.tol_reciprocity,
        antisymmetry=args.tol_antisymmetry,
        ranking_tie=args.tol_tie,
    )


def _validate(mf: MatrixFile, tol: Tolerances):
    multiplicative = mf.scale == "multiplicative"
    return (validate_multiplicative if multiplicative else validate_additive)(mf.matrix, tol)


def _load_additive(args, tol: Tolerances) -> tuple[AdditivePcm, MatrixFile]:
    """Parse, validate in the declared scale, and convert to additive."""
    mf = parse_matrix_file(args.file, args.scale, args.names)
    pcm = _validate(mf, tol)
    return (to_additive(pcm) if mf.scale == "multiplicative" else pcm), mf


def cmd_validate(args, out) -> int:
    tol = _tolerances(args)
    mf = parse_matrix_file(args.file, args.scale, args.names)
    try:
        _validate(mf, tol)
    except PcmError as exc:
        if args.output == "json":
            _emit_json({"valid": False, "scale": mf.scale, "error": str(exc),
                        "tolerances": asdict(tol)}, out)
        else:
            print(f"INVALID ({mf.scale}): {exc}", file=out)
        return EXIT_VALIDATION
    if args.output == "json":
        _emit_json({"valid": True, "scale": mf.scale, "n": mf.matrix.shape[0],
                    "tolerances": asdict(tol)}, out)
    else:
        print(f"valid {mf.scale} PCM, n = {mf.matrix.shape[0]}", file=out)
    return EXIT_OK


def cmd_weights(args, out) -> int:
    tol = _tolerances(args)
    mf = parse_matrix_file(args.file, args.scale, args.names)
    pcm = _validate(mf, tol)
    if mf.scale == "multiplicative":
        weights, method = gmm_weights(pcm), "geometric mean"
    else:
        weights, method = additive_weights(pcm), "row arithmetic mean"
    shown = normalize_weights(weights) if args.normalize else weights
    ranking = ranking_of(weights, tol)
    if args.output == "json":
        _emit_json({"scale": mf.scale, "method": method,
                    "weights": shown, "normalized": args.normalize,
                    "ranking": [list(g) for g in ranking.groups],
                    "tolerances": asdict(tol)}, out)
    elif args.output == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["alternative", "weight"])
        for k, w in enumerate(shown, start=1):
            writer.writerow([_label(mf.names, k), repr(float(w))])
    else:
        print(f"weights ({method}): {_text_vector(shown)}", file=out)
        print(f"ranking: {ranking}", file=out)
    return EXIT_OK


def cmd_convert(args, out) -> int:
    tol = _tolerances(args)
    mf = parse_matrix_file(args.file, args.scale, args.names)
    source = _validate(mf, tol)
    convert = to_additive if mf.scale == "multiplicative" else to_multiplicative
    result = mf.matrix if args.to == mf.scale else convert(source).values
    if args.output == "json":
        payload = {"scale": args.to, "matrix": result}
        if mf.names:
            payload["names"] = mf.names
        _emit_json(payload, out)
    elif args.output == "csv":
        _emit_csv_matrix(result, out)
    else:
        print(_text_matrix(result), file=out)
    return EXIT_OK


class UsageError(Exception):
    """Arguments are syntactically valid but unusable for this input."""


def _pair_from_args(args, n: int) -> AlternativePair:
    i, j = args.pair
    try:
        return AlternativePair(i, j, n)
    except PcmError as exc:
        raise UsageError(str(exc)) from exc


def cmd_project(args, out) -> int:
    tol = _tolerances(args)
    a, mf = _load_additive(args, tol)
    pair = _pair_from_args(args, a.n)
    result = project_to_tie(a, pair)
    w_before = additive_weights(result.original)
    w_after = additive_weights(result.projected)
    if args.output == "json":
        _emit_json({
            "pair": [pair.i, pair.j],
            "scale": "additive",
            "matrix": result.projected.values,
            "coefficients": result.coefficients,
            "distance": result.distance,
            "weights_before": w_before,
            "weights_after": w_after,
            "tolerances": asdict(tol),
        }, out)
    elif args.output == "csv":
        _emit_csv_matrix(result.projected.values, out)
    else:
        print(f"projection equating {_label(mf.names, pair.i)} and "
              f"{_label(mf.names, pair.j)} (additive scale):", file=out)
        print(_text_matrix(result.projected.values), file=out)
        print(f"coefficients: {_text_vector(result.coefficients)}", file=out)
        print(f"distance: {_fmt(result.distance)}", file=out)
        print(f"weights before: {_text_vector(w_before)}", file=out)
        print(f"weights after:  {_text_vector(w_after)}", file=out)
    return EXIT_OK


def cmd_tip(args, out) -> int:
    tol = _tolerances(args)
    a, mf = _load_additive(args, tol)
    pair = _pair_from_args(args, a.n)
    result = project_to_tie(a, pair)
    tip = tip_pair(result, args.winner, args.delta)
    verdict = verify_manipulation(a, tip.tipped, pair, args.winner, tol)
    if args.output == "json":
        _emit_json({
            "pair": [pair.i, pair.j],
            "winner": tip.winner,
            "delta": tip.delta,
            "scale": "additive",
            "matrix": tip.tipped.values,
            "extra_distance": tip.extra_distance,
            "total_distance": tip.total_distance,
            "verdict": {
                "passed": verdict.passed,
                "winner_leads": verdict.winner_leads,
                "others_preserved": verdict.others_preserved,
                "already_winning": verdict.already_winning,
                "messages": list(verdict.messages),
            },
            "tolerances": asdict(tol),
        }, out)
    elif args.output == "csv":
        _emit_csv_matrix(tip.tipped.values, out)
    else:
        print(f"tipped matrix, {_label(mf.names, tip.winner)} wins "
              f"(delta = {tip.delta:g}, additive scale):", file=out)
        print(_text_matrix(tip.tipped.values), file=out)
        print(f"extra distance: {_fmt(tip.extra_distance)}", file=out)
        print(f"total distance: {_fmt(tip.total_distance)}", file=out)
        print(f"verdict: {'pass' if verdict.passed else 'FAIL'}", file=out)
        for msg in verdict.messages:
            print(f"  note: {msg}", file=out)
    return EXIT_OK


def cmd_emi(args, out) -> int:
    tol = _tolerances(args)
    a, mf = _load_additive(args, tol)
    pair = _pair_from_args(args, a.n)
    report = pair_report(a, pair, tol)
    if args.output == "json":
        _emit_json({
            "pair": [pair.i, pair.j],
            "emi": report.emi,
            "emi_ratio_scale": float(np.exp(report.emi)),
            "nonzero_count": report.nonzero_count,
            "max_changed_entries": max_changed_entries(a.n),
            "distance": report.distance,
            "abs_diff": report.abs_diff,
            "tolerances": asdict(tol),
        }, out)
    elif args.output == "csv":
        _emit_csv_matrix(report.abs_diff, out)
    else:
        print("absolute difference |A - A'|:", file=out)
        print(_text_matrix(report.abs_diff), file=out)
        print(f"EMI: {_fmt(report.emi)}  "
              f"(ratio-scale factor e^EMI = {_fmt(np.exp(report.emi))}, derived)",
              file=out)
        print(f"nonzero entries: {report.nonzero_count} of at most {max_changed_entries(a.n)}",
              file=out)
    return EXIT_OK


def cmd_scan(args, out) -> int:
    tol = _tolerances(args)
    a, mf = _load_additive(args, tol)
    table = scan_all_pairs(a)
    if args.output == "json":
        _emit_json({
            "n": table.n,
            "rows": [{"i": r.i, "j": r.j, "emi": r.emi,
                      "distance": r.distance, "f_value": r.f_value}
                     for r in table.rows],
            "tolerances": asdict(tol),
        }, out)
    elif args.output == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["i", "j", "emi", "distance", "f_value"])
        for r in table.rows:
            writer.writerow([r.i, r.j, repr(r.emi), repr(r.distance), repr(r.f_value)])
    else:
        print(f"{'pair':>12}  {'EMI':>10}  {'distance':>10}  {'f':>10}", file=out)
        for r in table.rows:
            pair = f"({_label(mf.names, r.i)},{_label(mf.names, r.j)})"
            print(f"{pair:>12}  {_fmt(r.emi):>10}  {_fmt(r.distance):>10}  "
                  f"{_fmt(r.f_value):>10}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcmanip",
                     description="Rank-reversal manipulation analysis for "
                                 "pairwise comparison matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair=False):
        p.add_argument("file", help="matrix file (CSV or JSON), or - for stdin")
        p.add_argument("--scale", choices=SCALES, default="multiplicative",
                       help="scale of the input matrix (default multiplicative)")
        p.add_argument("--names", action="store_true",
                       help="CSV input has a header row of alternative names")
        p.add_argument("--output", choices=("text", "json", "csv"),
                       default="text", help="report format")
        p.add_argument("--tol-reciprocity", type=float, default=1e-8)
        p.add_argument("--tol-antisymmetry", type=float, default=1e-9)
        p.add_argument("--tol-tie", type=float, default=1e-9)
        if pair:
            p.add_argument("--pair", nargs=2, type=int, required=True,
                           metavar=("I", "J"),
                           help="1-based indices of the two alternatives")

    p = sub.add_parser("validate", help="check the matrix against its scale")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("weights", help="priority vector and ranking")
    common(p)
    p.add_argument("--normalize", action="store_true",
                   help="scale weights to sum to 1 (multiplicative scale only)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("convert", help="convert between scales")
    common(p)
    p.add_argument("--to", choices=SCALES, required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("project", help="closest matrix tying a pair")
    common(p, pair=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("tip", help="projection plus the tie-breaking nudge")
    common(p, pair=True)
    p.add_argument("--winner", type=int, required=True,
                   help="1-based index of the alternative that should win")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help=f"size of the nudge (default {DEFAULT_DELTA})")
    p.set_defaults(func=cmd_tip)

    p = sub.add_parser("emi", help="ease of manipulation index for a pair")
    common(p, pair=True)
    p.set_defaults(func=cmd_emi)

    p = sub.add_parser("scan", help="EMI table over all pairs")
    common(p)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args, out)
    except CliParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, InvalidWinnerError, NonPositiveDeltaError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
