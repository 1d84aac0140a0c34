"""Manipulation metrics: difference matrix, ease index, the tipping
perturbation that realizes an almost-optimal rank reversal, and the
all-pairs ease scan.

The ease of manipulation index (EMI) is the average absolute entry
change between a matrix and its tie projection, with the denominator
fixed at 4n - 6, the maximum number of entries the projection can
change.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import (
    AdditivePcm,
    DEFAULT_TOLERANCES,
    Ranking,
    Tolerances,
    additive_weights,
    matched_values,
    overflow_safe,
    pair_values,
    ranking_of,
    validate_additive,
    _distance,
    _integer,
    _positive_finite,
    _row_sums,
    _square,
    _tolerances,
    _workspace,
)
from .errors import InvalidWinnerError, NonPositiveDeltaError, PcmError
from .projection import ProjectionResult, max_changed_entries, project_to_tie, tie_costs
from .tiespace import AlternativePair

DEFAULT_DELTA = 1e-3


def abs_difference(a, b) -> np.ndarray:
    """Entry-wise absolute difference |A - B|."""
    va, vb = matched_values(a, b)
    return np.abs(va - vb)


def emi(a, b) -> float:
    """Average absolute entry change of any two n x n matrices, n >= 2, normalized by 4n - 6."""
    va, vb = matched_values(a, b)
    m = max_changed_entries(_square(va).shape[0])
    return overflow_safe(lambda x, y: np.abs(
        d := np.subtract(x, y, out=_workspace(x, y), order="C"), out=d).sum() / m, va, vb)


class ManipulationReport(NamedTuple):
    """Everything the tie projection changed for one pair."""

    pair: AlternativePair
    original: AdditivePcm
    projected: AdditivePcm
    abs_diff: np.ndarray
    emi: float
    nonzero_count: int
    distance: float
    weights_before: np.ndarray
    weights_after: np.ndarray
    ranking_before: Ranking
    ranking_after: Ranking


def pair_report(
    a, pair: AlternativePair, tol: Tolerances = DEFAULT_TOLERANCES
) -> ManipulationReport:
    """Project onto the pair's tie space and summarize the change."""
    projection = project_to_tie(a, pair)
    diff = abs_difference(projection.original, projection.projected)
    weights_before = additive_weights(projection.original)
    weights_after = additive_weights(projection.projected)
    return ManipulationReport(
        pair=pair,
        original=projection.original,
        projected=projection.projected,
        abs_diff=diff,
        emi=tie_costs(projection.gap, pair.n)[1],
        nonzero_count=int(np.count_nonzero(diff)),  # exactly 0 off the pair's rows and columns
        distance=projection.distance,
        weights_before=weights_before,
        weights_after=weights_after,
        ranking_before=ranking_of(weights_before, tol),
        ranking_after=ranking_of(weights_after, tol),
    )


class TipResult(NamedTuple):
    """The tie projection nudged so one of the pair strictly wins."""

    tipped: AdditivePcm
    pair: AlternativePair
    winner: int
    delta: float
    extra_distance: float
    total_distance: float


def _winner_rows(pair: AlternativePair, winner) -> tuple[int, int]:
    """The 0-based rows (w, l) of the winner, an integer that is one of the pair, and the loser."""
    if (winner := _integer(winner, "winner")) not in (pair.i, pair.j):
        raise InvalidWinnerError(winner, pair.i, pair.j)
    return (pair.i - 1, pair.j - 1) if winner == pair.i else (pair.j - 1, pair.i - 1)


def tip_pair(projection: ProjectionResult, winner: int, delta: float = DEFAULT_DELTA) -> TipResult:
    """Add delta to the winner's entry against the loser in the projected matrix and take it
    from the mirror entry, so the winner strictly leads by 2*delta/n and every other row is left
    untouched; a tip beyond float64 is refused."""
    pair = projection.pair
    w, l = _winner_rows(pair, winner)
    if not _positive_finite(delta):
        raise NonPositiveDeltaError(delta)
    d = float(delta)
    tipped = projection.projected.values.copy()
    # Python floats overflow to inf without a warning
    tipped[w, l], tipped[l, w] = float(tipped[w, l]) + d, float(tipped[l, w]) - d
    extra = d * math.sqrt(2.0)
    if not max(extra, abs(sum(tipped[w].tolist())), abs(sum(tipped[l].tolist()))) < math.inf:
        raise PcmError(f"delta = {delta} takes the tipped matrix beyond float64")
    # frobenius_distance, on arrays already read and matched
    return TipResult(AdditivePcm(tipped), pair, w + 1, delta, extra,
                     overflow_safe(_distance, projection.original.values, tipped))


class PairScanRow(NamedTuple):
    """One pair's manipulation cost (a tuple: cheap to build by the thousand)."""

    i: int
    j: int
    emi: float
    distance: float
    f_value: float


class PairScanTable(NamedTuple):
    """Per-pair manipulation cost, easiest (lowest EMI) first."""

    n: int
    rows: tuple[PairScanRow, ...]


def scan_all_pairs(a) -> PairScanTable:
    """Rank every pair's tie projection by EMI.

    Both costs of pair (i, j) follow from f = s_i - s_j, the gap between
    the pair's row sums (see tie_costs), so one pass over the row sums
    serves all pairs.  The rows come sorted by EMI ascending, with ties
    in (i, j) order, so the result is deterministic.  The matrix is read
    through validate_additive.
    """
    values = validate_additive(a).values
    n = values.shape[0]
    row_sums = _row_sums(values)
    index = np.arange(n)
    i, j = np.nonzero(np.less.outer(index, index))  # the pairs i < j in (i, j) order
    f = row_sums[i] - row_sums[j]
    distances, emis = tie_costs(f, n)
    order = np.argsort(emis, kind="stable")  # so EMI ties keep (i, j) order
    columns = (i[order] + 1, j[order] + 1, emis[order], distances[order], f[order])
    # PairScanRow._make without its length check: NamedTuple's __new__ is Python code
    rows = map(tuple.__new__, repeat(PairScanRow), zip(*(c.tolist() for c in columns)))
    return PairScanTable(n=n, rows=tuple(rows))


class ManipulationVerdict(NamedTuple):
    """Outcome of checking a claimed manipulation."""

    passed: bool
    winner_leads: bool
    others_preserved: bool
    already_winning: bool
    messages: tuple[str, ...]


def verify_manipulation(
    original,
    tipped,
    pair: AlternativePair,
    winner: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ManipulationVerdict:
    """Check that the tipped matrix realizes the intended reversal: the winner's tipped weight
    exceeds the loser's by more than tol.ranking_tie (a test of the pair alone; ranking_of chains
    weights within it, so may still group the two), and every other weight stays within it of
    its original.  Also reports whether the winner's original weight already led by that much."""
    w, l = _winner_rows(pair, winner)
    weights_orig = _row_sums(pair_values(original, pair)) / pair.n  # additive_weights, read once
    weights_tip = _row_sums(pair_values(tipped, pair)) / pair.n
    tie = _tolerances(tol).ranking_tie
    messages = []

    gap = float(weights_tip[w]) - float(weights_tip[l])
    winner_leads = gap > tie
    if not winner_leads:
        messages.append(
            f"alternative {w + 1} does not strictly lead {l + 1} "
            f"(weight gap {gap:.3e})"
        )

    moved = np.abs(np.subtract(weights_tip, weights_orig, out=weights_tip), out=weights_tip)
    moved[w] = moved[l] = 0.0
    drift = float(np.maximum.reduce(moved))
    others_preserved = drift <= tie
    if not others_preserved:
        messages.append(f"non-pair weight changed by {drift:.3e}")

    already_winning = float(weights_orig[w]) - float(weights_orig[l]) > tie
    if already_winning:
        messages.append("original ranking already had the winner ahead")

    return ManipulationVerdict(winner_leads and others_preserved, winner_leads, others_preserved,
                               already_winning, tuple(messages))
