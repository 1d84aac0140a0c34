"""Construction of the tie space basis.

For a fixed pair of alternatives (i, j), the tie space is the linear
subspace of additive PCMs whose induced row-mean weights for i and j
coincide.  Its dimension is (n^2 - n)/2 - 1 and it admits an explicit
basis of sparse integer matrices built from five generator families,
labeled C, D, E, F and G.  Each follows one rule, E(own) + s * E(j, n):
a unit antisymmetric pair at its own index plus s times the anchor
(j, n), which keeps rows i and j at equal sums.  The basis order is the C
block, off rows and columns i and j (``z_set``), then the 2n - 4 D-G
generators, on them: ``_pair_block`` maps each D-G label to its own and s,
all the coefficients read; ``_generator_entry`` checks a label given from
outside; only the reference route builds ``tie_basis``.  Indices are
1-based.  The construction assumes i < j < n; pairs touching the last
index are handled by permutation conjugation in the projection layer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DEFAULT_TOLERANCES, _positive_finite, pair_values
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
        for name in ("i", "j", "n"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise PcmError(f"{name} = {getattr(self, name)!r} must be an integer") from None
        if self.i == self.j:
            raise PcmError(f"pair indices must differ, got ({self.i},{self.j})")
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise PcmError(f"pair ({self.i},{self.j}) out of range for n = {self.n}")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class TieBasis:
    """Ordered basis of one pair's tie space: the dense (n, n) generators, with their labels."""

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
    try:  # as AlternativePair reads n: 2.5 is not an integer
        n = operator.index(n)
    except TypeError:
        raise PcmError(f"n = {n!r} must be an integer") from None
    if n < 2:
        raise PcmError(f"n must be >= 2, got {n}")
    return (n * n - n) // 2 - 1


def z_set(pair: AlternativePair) -> ZSet:
    """All (q, r) with 1 <= q < r <= n and {q,r} disjoint from {i,j}, lexicographic."""
    others = [k for k in range(1, pair.n + 1) if k not in (pair.i, pair.j)]
    return ZSet(tuple(combinations(others, 2)))


def _pair_block(pair: AlternativePair) -> dict[GeneratorLabel, tuple[tuple[int, int], int]]:
    """The D-G block, on rows and columns i and j: its 2n - 4 labels, D, E, F, G by ascending
    p in basis order, each mapped to (own, s) of E(own) + s * E(j, n), where E(k, l) is +1 at
    (k, l) and -1 at (l, k), and the anchor (j, n) carries s to keep rows i and j at equal sums."""
    i, j, n = pair.i, pair.j, pair.n
    return {**{("D", (p,)): ((p, i), -1) for p in range(1, i)},
            **{("E", (p,)): ((p, j), 2 if p == i else 1) for p in range(1, j)},
            **{("F", (p,)): ((i, p), 1) for p in range(i + 1, n + 1) if p != j},
            **{("G", (p,)): ((j, p), -1) for p in range(j + 1, n)}}


def _generator_entry(kind: str, params, pair: AlternativePair) -> tuple[tuple[int, int], int]:
    """(own, s) of the generator E(own) + s * E(j, n) with a label given from outside, checked:
    j < n, a known kind, and integer parameters, (q, r) for C, with q < r both outside {i, j},
    own (q, r) and s = 0, or one p for D-G, whose range and entry ``_pair_block`` holds."""
    i, j, n = pair.i, pair.j, pair.n
    if j == n:
        raise PairRequiresRelabelingError(i, j, n)
    if kind not in ("C", "D", "E", "F", "G"):
        raise ParamOutOfRangeError(kind, params, "unknown generator kind")
    try:  # as AlternativePair reads its indices, by operator.index: 2.9 is not 2
        ints = tuple(map(operator.index, params if isinstance(params, (tuple, list)) else [params]))
    except TypeError:
        ints = ()
    if len(ints) != (2 if kind == "C" else 1):
        raise ParamOutOfRangeError(kind, params, "C takes integers (q, r), D-G one integer p")
    if kind == "C" and 1 <= ints[0] < ints[1] <= n and not set(ints) & {i, j}:
        return ints, 0
    if (kind, ints) in (block := _pair_block(pair)):  # D-G: their legal ranges live there
        return block[kind, ints]
    raise ParamOutOfRangeError(kind, params if kind == "C" else ints[0])


def generator_matrix(kind: str, params, pair: AlternativePair) -> np.ndarray:
    """The dense n x n form of one generator, E(own) + s * E(j, n) by ``_generator_entry``,
    which checks the label.  kind "C" takes params = (q, r) from the Z set; kinds "D", "E",
    "F", "G" take a single integer p."""
    return _dense(*_generator_entry(kind, params, pair), pair)


def _dense(own: tuple[int, int], s: int, pair: AlternativePair) -> np.ndarray:
    """E(own) + s * E(j, n) as a dense n x n array."""
    (k, l), out = own, np.zeros((pair.n, pair.n))
    out[k - 1, l - 1], out[pair.j - 1, pair.n - 1] = 1, s
    return out - out.T


def tie_labels(pair: AlternativePair) -> tuple[GeneratorLabel, ...]:
    """The basis order, (n^2 - n)/2 - 1 labels: the C block of ``z_set``, then ``_pair_block``."""
    return (*[("C", qr) for qr in z_set(pair).pairs], *_pair_block(pair))


def tie_basis(pair: AlternativePair) -> TieBasis:
    """The generator matrices in ``tie_labels`` order: a C label's own is its (q, r), with
    s = 0, and the D-G entries come from one ``_pair_block``.  Requires i < j < n."""
    if pair.j == pair.n:
        raise PairRequiresRelabelingError(pair.i, pair.j, pair.n)
    labels, block = tie_labels(pair), _pair_block(pair)
    return TieBasis(pair, tuple(_dense(*block.get(g, (g[1], 0)), pair) for g in labels), labels)


def is_tie_equating(a, pair: AlternativePair, tol: float = DEFAULT_TOLERANCES.ranking_tie) -> bool:
    """True iff the row sums of i and j agree within tol*n, that is their weights within tol."""
    if not _positive_finite(tol):
        raise PcmError(f"tolerance tol must be positive and finite, got {tol}")
    return bool(abs(tie_gap(a, pair)) <= tol * pair.n)


def tie_gap(a, pair: AlternativePair) -> float:
    """Row-sum difference f = sum_k a_ik - sum_k a_jk (signed)."""
    values = pair_values(a, pair)
    return float(np.add.reduce(values[pair.i - 1]) - np.add.reduce(values[pair.j - 1]))
