"""Construction of the tie space basis.

For a fixed pair of alternatives (i, j), the tie space is the linear
subspace of additive PCMs whose induced row-mean weights for i and j
coincide.  Its dimension is (n^2 - n)/2 - 1 and it admits an explicit
basis of sparse integer matrices built from five generator families,
labeled C, D, E, F and G.  Indices i, j, p, q, r below are 1-based.

The construction assumes i < j < n; pairs touching the last index are
handled by permutation conjugation in the projection layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import pair_values
from .errors import ParamOutOfRangeError, PairRequiresRelabelingError, PcmError

GeneratorLabel = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class AlternativePair:
    """An unordered pair of distinct alternatives in a size-n problem.

    Canonicalized so that i < j.  Indices are 1-based.
    """

    i: int
    j: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise PcmError(f"n must be >= 2, got {self.n}")
        if self.i == self.j:
            raise PcmError(f"pair indices must differ, got ({self.i},{self.j})")
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise PcmError(
                f"pair ({self.i},{self.j}) out of range for n = {self.n}"
            )
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class TieBasis:
    """Ordered basis of the tie space for one pair, with generator labels."""

    pair: AlternativePair
    matrices: tuple[np.ndarray, ...]
    labels: tuple[GeneratorLabel, ...]

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class ZSet:
    """Index pairs above the diagonal disjoint from the fixed pair."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def tie_space_dimension(n: int) -> int:
    if n < 2:
        raise PcmError(f"n must be >= 2, got {n}")
    return (n * n - n) // 2 - 1


def z_set(pair: AlternativePair) -> ZSet:
    """All (q, r) with 1 <= q < r <= n and {q,r} disjoint from {i,j}."""
    i, j, n = pair.i, pair.j, pair.n
    pairs = tuple(
        (q, r)
        for q in range(1, n + 1)
        for r in range(q + 1, n + 1)
        if q not in (i, j) and r not in (i, j)
    )
    assert len(pairs) == (n - 2) * (n - 3) // 2
    return ZSet(pairs)


def _sparse(n: int, entries: dict[tuple[int, int], float]) -> np.ndarray:
    out = np.zeros((n, n))
    for (k, l), value in entries.items():
        out[k - 1, l - 1] = value
    return out


def generator_matrix(kind: str, params, pair: AlternativePair) -> np.ndarray:
    """Build one generator matrix by its case formula.

    kind "C" takes params = (q, r) from the Z set; kinds "D", "E", "F",
    "G" take a single integer p.  Legal ranges:

        C: (q, r) with q < r, both outside {i, j}
        D: 1 <= p < i
        E: 1 <= p < j            (p = i is the special +-2 case)
        F: i < p <= n, p != j
        G: j < p <= n - 1
    """
    i, j, n = pair.i, pair.j, pair.n
    if j == n:
        raise PairRequiresRelabelingError(i, j, n)
    if kind == "C":
        q, r = params
        if not (1 <= q < r <= n) or q in (i, j) or r in (i, j):
            raise ParamOutOfRangeError(kind, params)
        return _sparse(n, {(q, r): 1, (r, q): -1})
    p = int(params[0] if isinstance(params, (tuple, list)) else params)
    if kind == "D":
        if not 1 <= p < i:
            raise ParamOutOfRangeError(kind, p)
        return _sparse(n, {(p, i): 1, (n, j): 1, (i, p): -1, (j, n): -1})
    if kind == "E":
        if not 1 <= p < j:
            raise ParamOutOfRangeError(kind, p)
        if p == i:
            return _sparse(n, {(p, j): 1, (j, p): -1, (j, n): 2, (n, j): -2})
        return _sparse(n, {(p, j): 1, (j, n): 1, (j, p): -1, (n, j): -1})
    if kind == "F":
        if not (i < p <= n) or p == j:
            raise ParamOutOfRangeError(kind, p)
        return _sparse(n, {(i, p): 1, (j, n): 1, (p, i): -1, (n, j): -1})
    if kind == "G":
        if not j < p <= n - 1:
            raise ParamOutOfRangeError(kind, p)
        return _sparse(n, {(j, p): 1, (n, j): 1, (p, j): -1, (j, n): -1})
    raise ParamOutOfRangeError(kind, params, "unknown generator kind")


def tie_basis(pair: AlternativePair) -> TieBasis:
    """The ordered basis: C (lexicographic), then D, E, F, G by ascending p.

    The F block runs p = i+1..j-1 followed by p = j+1..n.  Total length
    is (n^2 - n)/2 - 1.  Requires i < j < n.
    """
    i, j, n = pair.i, pair.j, pair.n
    labels: list[GeneratorLabel] = []
    labels += [("C", qr) for qr in z_set(pair).pairs]
    labels += [("D", (p,)) for p in range(1, i)]
    labels += [("E", (p,)) for p in range(1, j)]
    labels += [("F", (p,)) for p in list(range(i + 1, j)) + list(range(j + 1, n + 1))]
    labels += [("G", (p,)) for p in range(j + 1, n)]
    matrices = tuple(generator_matrix(kind, params, pair) for kind, params in labels)
    assert len(matrices) == tie_space_dimension(n)
    return TieBasis(pair, matrices, tuple(labels))


def is_tie_equating(a, pair: AlternativePair, tol: float = 1e-9) -> bool:
    """True iff the row sums of alternatives i and j agree within tol*n."""
    return bool(abs(tie_gap(a, pair)) <= tol * pair.n)


def tie_gap(a, pair: AlternativePair) -> float:
    """Row-sum difference f = sum_k a_ik - sum_k a_jk (signed)."""
    values = pair_values(a, pair)
    return float(values[pair.i - 1].sum() - values[pair.j - 1].sum())
