"""Output checks computed apart from pcmanip, with plain numpy.

Every check recomputes what the method must produce from the input
matrix alone: the closed-form tie projection A - (f/n) N, where f is the
row-sum gap of the pair and N the tie normal matrix, its distance
|f|/sqrt(n), its EMI |f| (2n-2) / (n (4n-6)), the tip's 2 delta / n lead,
row-mean and geometric-mean weights, the ranking they induce and the
first validation failure in the validators' documented scan order.
Nothing is compared against a stored copy of earlier output.

A check raises ``CheckError`` on the first mismatch.  Indices are 1-based
as in the program's interface.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

# the program's default tolerances (Tolerances in pcmanip.core)
RECIPROCITY_TOL = 1e-8
RANKING_TIE_TOL = 1e-9
# half a unit in the last printed place of the 4-decimal text output
TEXT_TOL = 5e-5


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def tolerance(a) -> float:
    """Absolute tolerance scaled by the entries' magnitude and by n."""
    a = np.asarray(a, dtype=float)
    return 1e-10 * a.shape[0] * max(1.0, float(np.max(np.abs(a))))


def expect_close(what, got, want, tol):
    if not isinstance(got, np.ndarray):
        try:
            got = np.asarray(got, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CheckError(f"{what}: {exc}") from exc
    want = np.asarray(want, dtype=float)
    if want.shape and got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want).max(initial=0.0)
    if not err <= tol:  # NaN fails too
        raise CheckError(f"{what}: off by {err:.3e} (tolerance {tol:.1e})")


def expect_equal(what, got, want):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# the method's closed forms

def row_gap(a, i, j) -> float:
    return float(a[i - 1].sum() - a[j - 1].sum())


def tie_projection(a, i, j) -> np.ndarray:
    """A - (f/n) N: the closest matrix tying i and j."""
    n = a.shape[0]
    normal = np.zeros((n, n))
    normal[i - 1, :] = 0.5
    normal[:, i - 1] = -0.5
    normal[j - 1, :] = -0.5
    normal[:, j - 1] = 0.5
    normal[i - 1, j - 1], normal[j - 1, i - 1] = 1.0, -1.0
    normal[i - 1, i - 1] = normal[j - 1, j - 1] = 0.0
    return a - (row_gap(a, i, j) / n) * normal


def tie_distance(a, i, j) -> float:
    return abs(row_gap(a, i, j)) / math.sqrt(a.shape[0])


def tie_emi(a, i, j) -> float:
    n = a.shape[0]
    return abs(row_gap(a, i, j)) * (2 * n - 2) / (n * (4 * n - 6))


def tipped_matrix(a, i, j, winner, delta) -> np.ndarray:
    tipped = tie_projection(a, i, j)
    shift = delta if winner == i else -delta
    tipped[i - 1, j - 1] += shift
    tipped[j - 1, i - 1] -= shift
    return tipped


def first_reciprocity_violation(m):
    """(i, j) where validate_multiplicative must stop, or None.

    Positivity is scanned over the whole matrix first, row by row; then
    |m_ii - 1| and |m_ij m_ji - 1| for j > i, row by row.
    """
    nonpositive = np.argwhere(m <= 0)
    if len(nonpositive):
        return tuple(int(x) + 1 for x in nonpositive[0])
    residual = np.abs(m * m.T - 1.0)
    np.fill_diagonal(residual, np.abs(np.diag(m) - 1.0))
    bad = np.argwhere(np.triu(residual > RECIPROCITY_TOL))
    return tuple(int(x) + 1 for x in bad[0]) if len(bad) else None


# ---------------------------------------------------------------------------
# library results

def check_projection(a, i, j, projected, distance=None, expected=None):
    """Antisymmetry, tied pair rows, bystander weights, closed form, distance.

    ``expected`` may pass tie_projection(a, i, j) when it is reused."""
    tol = tolerance(a)
    p = np.asarray(projected, dtype=float)
    expect_close("projection antisymmetry", p + p.T, 0.0, tol)
    expect_close(f"row sums of pair ({i},{j})", row_gap(p, i, j), 0.0, tol)
    bystanders = np.ones(a.shape[0], dtype=bool)
    bystanders[[i - 1, j - 1]] = False
    expect_close("bystander weights", (p - a).sum(axis=1)[bystanders] / a.shape[0], 0.0, tol)
    expect_close("projected matrix", p,
                 tie_projection(a, i, j) if expected is None else expected, tol)
    if distance is not None:
        expect_close("distance", distance, tie_distance(a, i, j), tol)


def check_emi(a, i, j, value):
    expect_close(f"EMI of pair ({i},{j})", value, tie_emi(a, i, j), tolerance(a))


def check_tip(a, i, j, winner, delta, tipped, verdict_passed, expected=None):
    """``expected`` may pass tipped_matrix(a, i, j, winner, delta)."""
    tol = tolerance(a)
    t = np.asarray(tipped, dtype=float)
    expect_close("tipped matrix", t,
                 tipped_matrix(a, i, j, winner, delta) if expected is None else expected, tol)
    loser = j if winner == i else i
    lead = (t[winner - 1].sum() - t[loser - 1].sum()) / a.shape[0]
    expect_close("winner's lead", lead, 2 * delta / a.shape[0], tol)
    expect_equal("verify_manipulation passed", verdict_passed, True)


def check_scan(a, rows):
    """rows: (i, j, emi, distance, f) in the program's order."""
    n = a.shape[0]
    tol = tolerance(a)
    pairs = [(r[0], r[1]) for r in rows]
    expect_equal("scan pairs", sorted(pairs),
                 [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    keys = [(r[2], r[0], r[1]) for r in rows]
    if keys != sorted(keys):
        raise CheckError("scan rows are not sorted by (EMI, i, j)")
    for i, j, emi_value, distance, f in rows:
        expect_close(f"scan EMI ({i},{j})", emi_value, tie_emi(a, i, j), tol)
        expect_close(f"scan distance ({i},{j})", distance, tie_distance(a, i, j), tol)
        expect_close(f"scan f ({i},{j})", f, row_gap(a, i, j), tol)


def check_ranking(groups, weights):
    """Groups descend in weight; members of a group chain within RANKING_TIE_TOL."""
    w = np.asarray(weights, dtype=float)
    order = [k for g in groups for k in g]
    expect_equal("ranking members", sorted(order), list(range(1, len(w) + 1)))
    ranked = sorted(range(1, len(w) + 1), key=lambda k: (-w[k - 1], k))
    prev = None
    for group in groups:
        expect_equal("ranking group order", list(group), sorted(group))
        for k in ranked[:len(group)]:
            if k not in group:
                raise CheckError(f"ranking: alternative {k} should come before group {group}")
        ranked = ranked[len(group):]
        members = sorted(group, key=lambda k: (-w[k - 1], k))
        for hi, lo in zip(members, members[1:]):
            if w[hi - 1] - w[lo - 1] > RANKING_TIE_TOL:
                raise CheckError(f"ranking: {hi} and {lo} grouped but differ")
        if prev is not None and w[prev - 1] - w[members[0] - 1] <= RANKING_TIE_TOL:
            raise CheckError(f"ranking: {prev} and {members[0]} tie but are split")
        prev = members[-1]


def check_error_location(err, expected):
    expect_equal(f"{type(err).__name__} location", (err.i, err.j), expected)


# ---------------------------------------------------------------------------
# CLI output

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def text_numbers(text):
    return [float(x) for x in _NUMBER.findall(text)]


def _text_close(what, got_text, want, tol):
    got = text_numbers(got_text)
    if len(got) != len(want):
        raise CheckError(f"{what}: {len(got)} numbers in text, expected {len(want)}")
    expect_close(what, got, want, tol)


def _csv_rows(stdout):
    return list(csv.reader(io.StringIO(stdout)))


def _csv_matrix(what, stdout, want, tol):
    rows = _csv_rows(stdout)
    try:
        values = [[float(x) for x in row] for row in rows]
    except ValueError as exc:
        raise CheckError(f"{what}: {exc}") from exc
    expect_close(what, values, want, tol)


def _json(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def additive_of(spec) -> np.ndarray:
    m = np.asarray(spec["matrix"], dtype=float)
    return np.log(m) if spec["scale"] == "multiplicative" else m


def check_cli(spec, command, output, stdout):
    """Check one successful CLI run.  spec describes the input file and
    the command's arguments: scale, matrix, names, pair, winner, delta,
    normalize, to."""
    m = np.asarray(spec["matrix"], dtype=float)
    a = additive_of(spec)
    n = a.shape[0]
    tol = tolerance(a)
    ttol = TEXT_TOL + tol
    names = spec.get("names")
    label = (lambda k: []) if names else (lambda k: [k])
    i, j = spec.get("pair") or (None, None)

    if command == "validate":
        if output == "json":
            data = _json(stdout)
            expect_equal("validate", (data["valid"], data["scale"], data["n"]),
                         (True, spec["scale"], n))
        else:
            if not stdout.startswith(f"valid {spec['scale']} PCM"):
                raise CheckError(f"validate: unexpected text {stdout[:60]!r}")
            _text_close("validate n", stdout, [n], 0)
        return

    if command == "weights":
        if spec["scale"] == "multiplicative":
            weights = np.exp(np.log(m).mean(axis=1))
        else:
            weights = a.mean(axis=1)
        shown = weights / weights.sum() if spec.get("normalize") else weights
        if output == "json":
            data = _json(stdout)
            expect_close("weights", data["weights"], shown, tol)
            check_ranking(data["ranking"], weights)
            expect_equal("normalized", data["normalized"], bool(spec.get("normalize")))
        elif output == "csv":
            rows = _csv_rows(stdout)
            expect_equal("weights header", rows[0], ["alternative", "weight"])
            labels = names or [str(k) for k in range(1, n + 1)]
            expect_equal("weights labels", [r[0] for r in rows[1:]], labels)
            expect_close("weights", [float(r[1]) for r in rows[1:]], shown, tol)
        else:
            head, _, ranking = stdout.partition("ranking:")
            _text_close("weights", head, shown, ttol)
            ranked = text_numbers(ranking)
            groups = [tuple(int(x) for x in _NUMBER.findall(g))
                      for g in re.findall(r"\{[^}]*\}|\d+", ranking)]
            check_ranking(groups, weights)
            expect_equal("ranking size", len(ranked), n)
        return

    if command == "convert":
        want = a if spec["to"] == "additive" else np.exp(a)
        want_tol = tolerance(want)
        if output == "json":
            data = _json(stdout)
            expect_equal("convert scale", data["scale"], spec["to"])
            expect_close("converted matrix", data["matrix"], want, want_tol)
            expect_equal("convert names", data.get("names"), names)
        elif output == "csv":
            _csv_matrix("converted matrix", stdout, want, want_tol)
        else:
            _text_close("converted matrix", stdout, want.ravel(), TEXT_TOL + want_tol)
        return

    if command == "project":
        p = tie_projection(a, i, j)
        if output == "json":
            data = _json(stdout)
            expect_equal("pair", data["pair"], [i, j])
            check_projection(a, i, j, data["matrix"], data["distance"])
            expect_equal("coefficient count", len(data["coefficients"]), (n * n - n) // 2 - 1)
            expect_close("weights before", data["weights_before"], a.mean(axis=1), tol)
            expect_close("weights after", data["weights_after"], p.mean(axis=1), tol)
        elif output == "csv":
            _csv_matrix("projected matrix", stdout, p, tol)
        else:
            head, _, rest = stdout.partition("coefficients:")
            coeffs, _, tail = rest.partition("distance:")
            _text_close("projection", head, label(i) + label(j) + list(p.ravel()), ttol)
            expect_equal("coefficient count", len(text_numbers(coeffs)), (n * n - n) // 2 - 1)
            _text_close("distance and weights", tail,
                        [tie_distance(a, i, j), *a.mean(axis=1), *p.mean(axis=1)], ttol)
        return

    if command == "tip":
        winner, delta = spec["winner"], spec["delta"]
        t = tipped_matrix(a, i, j, winner, delta)
        total = float(np.linalg.norm(a - t))
        if output == "json":
            data = _json(stdout)
            expect_equal("pair and winner", (data["pair"], data["winner"]), ([i, j], winner))
            check_tip(a, i, j, winner, delta, data["matrix"], data["verdict"]["passed"])
            expect_close("tip distances", [data["extra_distance"], data["total_distance"]],
                         [delta * math.sqrt(2.0), total], tol)
        elif output == "csv":
            _csv_matrix("tipped matrix", stdout, t, tol)
        else:
            head, _, verdict = stdout.partition("verdict:")
            if not verdict.strip().startswith("pass"):
                raise CheckError(f"tip verdict: {verdict.strip()[:60]!r}")
            _text_close("tip", head,
                        label(winner) + [delta] + list(t.ravel())
                        + [delta * math.sqrt(2.0), total], ttol)
        return

    if command == "emi":
        diff = np.abs(a - tie_projection(a, i, j))
        value = tie_emi(a, i, j)
        changed = int(np.count_nonzero(diff > 1e-12))
        if output == "json":
            data = _json(stdout)
            expect_equal("pair", data["pair"], [i, j])
            check_emi(a, i, j, data["emi"])
            expect_close("emi ratio scale", data["emi_ratio_scale"], math.exp(value), tol)
            expect_equal("changed entries", (data["nonzero_count"], data["max_changed_entries"]),
                         (changed, 4 * n - 6))
            expect_close("distance", data["distance"], tie_distance(a, i, j), tol)
            expect_close("abs diff", data["abs_diff"], diff, tol)
        elif output == "csv":
            _csv_matrix("abs diff", stdout, diff, tol)
        else:
            _text_close("emi", stdout,
                        list(diff.ravel()) + [value, math.exp(value), changed, 4 * n - 6], ttol)
        return

    if command == "scan":
        if output == "json":
            data = _json(stdout)
            expect_equal("scan n", data["n"], n)
            check_scan(a, [(r["i"], r["j"], r["emi"], r["distance"], r["f_value"])
                           for r in data["rows"]])
        elif output == "csv":
            rows = _csv_rows(stdout)
            expect_equal("scan header", rows[0], ["i", "j", "emi", "distance", "f_value"])
            try:
                parsed = [(int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]))
                          for r in rows[1:]]
            except (ValueError, IndexError) as exc:
                raise CheckError(f"scan csv: {exc}") from exc
            check_scan(a, parsed)
        else:
            index = {name: k for k, name in enumerate(names or [], start=1)}
            rows = []
            for line in stdout.splitlines()[1:]:
                labels, _, values = line.strip()[1:].partition(")")
                p, q = (index.get(x) or int(x) for x in labels.split(","))
                rows.append((p, q, *text_numbers(values)))
            expect_equal("scan pairs", sorted(r[:2] for r in rows),
                         [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)])
            emis = [r[2] for r in rows]
            if any(lo > hi + ttol for lo, hi in zip(emis, emis[1:])):
                raise CheckError("scan text rows are not sorted by EMI")
            expect_close("scan table", [r[2:] for r in rows],
                         [[tie_emi(a, p, q), tie_distance(a, p, q), row_gap(a, p, q)]
                          for p, q, *_ in rows], ttol)
        return

    raise ValueError(f"unknown command {command}")
