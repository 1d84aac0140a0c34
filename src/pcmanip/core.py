"""Core PCM types: validation, scale conversion, weights, rankings,
and Frobenius geometry.

Two representations are used throughout:

* multiplicative: strictly positive entries with m_ij * m_ji = 1
  (ratio judgments, Saaty style);
* additive: real entries with a_ij + a_ji = 0 (log-scale judgments).

The two are linked by the entry-wise natural log / exp, and the engine
works additively.  Matrix entries are stored 0-based in numpy arrays;
every index that crosses an API boundary (pairs, errors, reports) is
1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AntisymmetryViolationError,
    DimensionMismatchError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NotSquareError,
    OverflowDomainError,
    PcmError,
    ReciprocityViolationError,
)

# largest additive entry exp() can map into a finite float64
_MAX_EXP = np.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validators and ranking ties."""

    reciprocity: float = 1e-8
    antisymmetry: float = 1e-9
    ranking_tie: float = 1e-9

    def __post_init__(self):
        for name in ("reciprocity", "antisymmetry", "ranking_tie"):
            if getattr(self, name) <= 0:
                raise PcmError(f"tolerance {name} must be strictly positive")


DEFAULT_TOLERANCES = Tolerances()


def _as_square(matrix) -> np.ndarray:
    values = np.array(matrix, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 2:
        raise NotSquareError(values.shape)
    return values


@dataclass(frozen=True)
class MultiplicativePcm:
    """A validated multiplicative pairwise comparison matrix."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AdditivePcm:
    """A validated additive (antisymmetric) pairwise comparison matrix."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def additive_values(a) -> np.ndarray:
    """Accept an AdditivePcm, MultiplicativePcm-free ndarray, or nested list."""
    if isinstance(a, AdditivePcm):
        return a.values
    return np.asarray(a, dtype=float)


@dataclass(frozen=True)
class Ranking:
    """Alternatives grouped by descending weight; 1-based indices.

    Each group collects indices whose weights are equal within the
    ranking-tie tolerance; groups are strictly decreasing in weight.
    """

    groups: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(k for group in self.groups for k in group)

    def position(self, k: int) -> int:
        """1-based rank of alternative k (tied alternatives share a rank)."""
        for rank, group in enumerate(self.groups, start=1):
            if k in group:
                return rank
        raise PcmError(f"alternative {k} not in ranking")

    def __str__(self) -> str:
        parts = []
        for group in self.groups:
            if len(group) == 1:
                parts.append(str(group[0]))
            else:
                parts.append("{" + ",".join(map(str, group)) + "}")
        return "(" + ", ".join(parts) + ")"


def _raise_first(mask: np.ndarray, error, values: np.ndarray) -> None:
    """Raise error at the first True entry of mask in row-major order."""
    hits = np.argwhere(mask)
    if len(hits):
        i, j = hits[0]
        raise error(int(i) + 1, int(j) + 1, values[i, j])


def validate_multiplicative(matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> MultiplicativePcm:
    """Check finiteness, positivity, unit diagonal and reciprocity, each
    scanned row by row; never mutates input."""
    values = _as_square(matrix)
    _raise_first(~np.isfinite(values), NonFiniteEntryError, values)
    _raise_first(values <= 0, NonPositiveEntryError, values)
    residual = np.abs(values * values.T - 1.0)
    np.fill_diagonal(residual, np.abs(np.diag(values) - 1.0))
    _raise_first(np.triu(residual > tol.reciprocity), ReciprocityViolationError, residual)
    return MultiplicativePcm(values)


def validate_additive(matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> AdditivePcm:
    """Check finiteness and antisymmetry (which covers the zero
    diagonal), each scanned row by row."""
    values = _as_square(matrix)
    _raise_first(~np.isfinite(values), NonFiniteEntryError, values)
    residual = np.abs(values + values.T)
    _raise_first(np.triu(residual > tol.antisymmetry), AntisymmetryViolationError, residual)
    return AdditivePcm(values)


def to_additive(m: MultiplicativePcm) -> AdditivePcm:
    """Entry-wise natural logarithm."""
    return AdditivePcm(np.log(m.values))


def to_multiplicative(a: AdditivePcm) -> MultiplicativePcm:
    """Entry-wise exponential."""
    values = additive_values(a)
    _raise_first(np.abs(values) >= _MAX_EXP, OverflowDomainError, values)
    return MultiplicativePcm(np.exp(values))


def gmm_weights(m: MultiplicativePcm) -> np.ndarray:
    """Geometric mean of each row (computed via logs for stability)."""
    return np.exp(np.mean(np.log(m.values), axis=1))


def additive_weights(a) -> np.ndarray:
    """Arithmetic mean of each row."""
    return np.mean(additive_values(a), axis=1)


def normalize_weights(w) -> np.ndarray:
    """Scale a positive weight vector to sum to one."""
    w = np.asarray(w, dtype=float)
    for k, value in enumerate(w):
        if value <= 0:
            raise NonPositiveWeightError(k + 1, value)
    return w / w.sum()


def ranking_of(weights, tol: Tolerances = DEFAULT_TOLERANCES) -> Ranking:
    """Rank alternatives by descending weight, grouping near-equal ones.

    Grouping chains: consecutive weights within the tie tolerance join
    the same group.  Within a group, indices ascend.
    """
    w = np.asarray(weights, dtype=float)
    order = sorted(range(len(w)), key=lambda k: (-w[k], k))
    groups: list[list[int]] = []
    for k in order:
        if groups and abs(w[groups[-1][-1] - 1] - w[k]) <= tol.ranking_tie:
            groups[-1].append(k + 1)
        else:
            groups.append([k + 1])
    return Ranking(tuple(tuple(sorted(g)) for g in groups))


def frobenius_inner(a, b) -> float:
    """Entry-wise product sum of two equally sized matrices."""
    va, vb = additive_values(a), additive_values(b)
    if va.shape != vb.shape:
        raise DimensionMismatchError(va.shape[0], vb.shape[0])
    return float(np.sum(va * vb))


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(additive_values(a)))


def frobenius_distance(a, b) -> float:
    va, vb = additive_values(a), additive_values(b)
    if va.shape != vb.shape:
        raise DimensionMismatchError(va.shape[0], vb.shape[0])
    return float(np.linalg.norm(va - vb))
