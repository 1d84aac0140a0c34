"""Manipulation metrics: difference matrix, ease index, the tipping
perturbation that realizes an almost-optimal rank reversal, and the
all-pairs ease scan.

The ease of manipulation index (EMI) is the average absolute entry
change between a matrix and its tie projection, with the denominator
fixed at 4n - 6, the maximum number of entries the projection can
change.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    pair_values,
    ranking_of,
    validate_additive,
)
from .errors import InvalidWinnerError, NonPositiveDeltaError, PcmError
from .projection import ProjectionResult, project_to_tie
from .tiespace import AlternativePair

DEFAULT_DELTA = 1e-3


def abs_difference(a, b) -> np.ndarray:
    """Entry-wise absolute difference |A - B|."""
    va, vb = matched_values(a, b)
    return np.abs(va - vb)


def max_changed_entries(n: int) -> int:
    """Upper bound on nonzero entries of |A - A'|: both rows and both
    columns of the pair, minus overlaps."""
    return 4 * n - 6


def emi(a, b) -> float:
    """Average absolute entry change, normalized by 4n - 6."""
    diff = abs_difference(a, b)
    n = diff.shape[0]
    if max_changed_entries(n) <= 0:
        raise PcmError(f"EMI undefined for n = {n}")
    return float(diff.sum() / max_changed_entries(n))


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
        emi=emi(projection.original, projection.projected),
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
    every other row untouched."""
    pair = projection.pair
    if winner not in (pair.i, pair.j):
        raise InvalidWinnerError(winner, pair.i, pair.j)
    if not 0 < delta < np.inf:  # also false for NaN
        raise NonPositiveDeltaError(delta)
    shift = delta if winner == pair.i else -delta
    tipped = projection.projected.values.copy()
    tipped[pair.i - 1, pair.j - 1] += shift
    tipped[pair.j - 1, pair.i - 1] -= shift
    return TipResult(
        tipped=AdditivePcm(tipped),
        pair=pair,
        winner=winner,
        delta=delta,
        extra_distance=delta * np.sqrt(2.0),
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

    The projection of pair (i, j) moves A by |f|/sqrt(n) with EMI
    |f| (2n - 2) / (n (4n - 6)), where f = s_i - s_j is the gap between
    the pair's row sums, so one pass over the row sums serves all pairs.
    Sorted ascending by EMI with ties broken lexicographically by
    (i, j), so the result is deterministic.  An AdditivePcm is trusted;
    anything else is validated as one first.
    """
    values = (a if isinstance(a, AdditivePcm) else validate_additive(a)).values
    n = values.shape[0]
    if n < 3:
        raise PcmError(f"scan requires n >= 3, got {n}")
    row_sums = values.sum(axis=1)
    i, j = np.triu_indices(n, 1)
    f = row_sums[i] - row_sums[j]
    emis = np.abs(f) * ((2 * n - 2) / (n * max_changed_entries(n)))
    distances = np.abs(f) / np.sqrt(n)
    order = np.lexsort((j, i, emis))
    columns = (i[order] + 1, j[order] + 1, emis[order], distances[order], f[order])
    return PairScanTable(n=n, rows=tuple(map(PairScanRow, *(c.tolist() for c in columns))))


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

    off_pair = [k for k in range(1, pair.n + 1) if k not in (pair.i, pair.j)]
    drift = max(
        (abs(float(w_tip[k - 1] - w_orig[k - 1])) for k in off_pair), default=0.0
    )
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
