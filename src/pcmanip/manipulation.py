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
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import (
    AdditivePcm,
    DEFAULT_TOLERANCES,
    Ranking,
    Tolerances,
    additive_weights,
    frobenius_distance,
    matched_values,
    overflow_safe,
    pair_values,
    ranking_of,
    validate_additive,
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
    """Average absolute entry change of any two matrices, normalized by 4n - 6."""
    va, vb = matched_values(a, b)
    m = max_changed_entries(va.shape[0])
    if m <= 0:
        raise PcmError(f"EMI undefined for n = {va.shape[0]}")
    return overflow_safe(lambda x, y: np.abs(
        d := np.subtract(x, y, out=_workspace(x, y)), out=d).sum() / m, va, vb)


@dataclass(frozen=True)
class ManipulationReport:
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
        nonzero_count=int(np.count_nonzero(diff > 1e-12)),
        distance=projection.distance,
        weights_before=weights_before,
        weights_after=weights_after,
        ranking_before=ranking_of(weights_before, tol),
        ranking_after=ranking_of(weights_after, tol),
    )


@dataclass(frozen=True)
class TipResult:
    """The tie projection nudged so one of the pair strictly wins."""

    tipped: AdditivePcm
    pair: AlternativePair
    winner: int
    delta: float
    extra_distance: float
    total_distance: float


def tip_pair(projection: ProjectionResult, winner: int, delta: float = DEFAULT_DELTA) -> TipResult:
    """Shift the (i, j) entry of the projected matrix by +-delta so the
    chosen alternative strictly leads the other by 2*delta/n, leaving
    every other row untouched; a tip beyond float64 is refused."""
    pair = projection.pair
    if winner not in (pair.i, pair.j):
        raise InvalidWinnerError(winner, pair.i, pair.j)
    try:
        valid = 0 < delta < np.inf  # also false for NaN
    except (TypeError, ValueError):  # and for a value that is not a real number
        valid = False
    if not valid:
        raise NonPositiveDeltaError(delta)
    i, j = pair.i - 1, pair.j - 1
    shift = float(delta) if winner == pair.i else -float(delta)
    tipped = projection.projected.values.copy()
    # Python floats overflow to inf without a warning
    tipped[i, j], tipped[j, i] = float(tipped[i, j]) + shift, float(tipped[j, i]) - shift
    extra = abs(shift) * math.sqrt(2.0)
    if not max(extra, abs(sum(tipped[i].tolist())), abs(sum(tipped[j].tolist()))) < math.inf:
        raise PcmError(f"delta = {delta} takes the tipped matrix beyond float64")
    return TipResult(
        tipped=AdditivePcm(tipped),
        pair=pair,
        winner=winner,
        delta=delta,
        extra_distance=extra,
        total_distance=frobenius_distance(projection.original, tipped),
    )


class PairScanRow(NamedTuple):
    """One pair's manipulation cost (a tuple: cheap to build by the thousand)."""

    i: int
    j: int
    emi: float
    distance: float
    f_value: float


@dataclass(frozen=True)
class PairScanTable:
    """Per-pair manipulation cost, easiest (lowest EMI) first."""

    n: int
    rows: tuple[PairScanRow, ...]


def scan_all_pairs(a) -> PairScanTable:
    """Rank every pair's tie projection by EMI.

    Both costs of pair (i, j) follow from f = s_i - s_j, the gap between
    the pair's row sums (see tie_costs), so one pass over the row sums
    serves all pairs.  The rows come sorted by EMI ascending, with ties
    in (i, j) order, so the result is deterministic.  An AdditivePcm is
    trusted; anything else is validated as one first.
    """
    values = (a if isinstance(a, AdditivePcm) else validate_additive(a)).values
    n = values.shape[0]
    if n < 3:
        raise PcmError(f"scan requires n >= 3, got {n}")
    row_sums = np.add.reduce(values, axis=1)
    index = np.arange(n)
    i, j = np.nonzero(np.less.outer(index, index))  # the pairs i < j in (i, j) order
    f = row_sums[i] - row_sums[j]
    distances, emis = tie_costs(f, n)
    order = np.argsort(emis, kind="stable")  # so EMI ties keep (i, j) order
    columns = (i[order] + 1, j[order] + 1, emis[order], distances[order], f[order])
    # PairScanRow._make without its length check: NamedTuple's __new__ is Python code
    rows = map(tuple.__new__, repeat(PairScanRow), zip(*(c.tolist() for c in columns)))
    return PairScanTable(n=n, rows=tuple(rows))


@dataclass(frozen=True)
class ManipulationVerdict:
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
    """Check that the tipped matrix realizes the intended reversal.

    Conditions: the winner strictly outranks the loser in the tipped
    ranking, and every alternative outside the pair keeps its original
    weight within the ranking-tie tolerance.  Also reports whether the
    original ranking already had the winner ahead.
    """
    if winner not in (pair.i, pair.j):
        raise InvalidWinnerError(winner, pair.i, pair.j)
    loser = pair.j if winner == pair.i else pair.i
    w_orig = additive_weights(pair_values(original, pair))
    w_tip = additive_weights(pair_values(tipped, pair))
    messages = []

    gap = float(w_tip[winner - 1] - w_tip[loser - 1])
    winner_leads = gap > tol.ranking_tie
    if not winner_leads:
        messages.append(
            f"alternative {winner} does not strictly lead {loser} "
            f"(weight gap {gap:.3e})"
        )

    moved = np.abs(w_tip - w_orig)
    moved[pair.i - 1] = moved[pair.j - 1] = 0.0
    drift = float(np.maximum.reduce(moved))
    others_preserved = drift <= tol.ranking_tie
    if not others_preserved:
        messages.append(f"non-pair weight changed by {drift:.3e}")

    already_winning = float(w_orig[winner - 1] - w_orig[loser - 1]) > tol.ranking_tie
    if already_winning:
        messages.append("original ranking already had the winner ahead")

    return ManipulationVerdict(
        winner_leads=winner_leads,
        others_preserved=others_preserved,
        already_winning=already_winning,
        passed=winner_leads and others_preserved,
        messages=tuple(messages),
    )
