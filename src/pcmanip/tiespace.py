"""The tie space of a pair of alternatives.

For a fixed pair of alternatives (i, j), the tie space is the linear
subspace of additive PCMs whose induced row-mean weights for i and j
coincide; its dimension is (n^2 - n)/2 - 1.  ``tie_gap`` gives a
matrix's row-sum gap f, zero on the tie space, and ``is_tie_equating``
compares the two row means.  Of the paper's sparse integer generators,
the library keeps only the block on rows and columns i and j,
``_pair_block``, from which the projection's coefficients are read; the
whole basis is built only by ``tests/reference.py``.  1-based indices.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (DEFAULT_TOLERANCES, Tolerances, _integer, _row_sums, _size, _tolerances,
                   pair_values)
from .errors import PcmError

GeneratorLabel = tuple[str, tuple[int, ...]]


class AlternativePair(namedtuple("AlternativePair", "i j n")):
    """An unordered pair of distinct alternatives in a size-n problem: the tuple (i, j, n).

    Canonicalized so that i < j, each stored as an int.  Indices are 1-based.
    """

    __slots__ = ()

    def __new__(cls, i, j, n):
        i, j, n = _integer(i, "i"), _integer(j, "j"), _integer(n, "n")
        if i == j:
            raise PcmError(f"pair indices must differ, got ({i},{j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise PcmError(f"pair ({i},{j}) out of range for n = {n}")
        return tuple.__new__(cls, (i, j, n) if i < j else (j, i, n))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace is checked too


def tie_space_dimension(n: int) -> int:
    return (n := _size(n)) * (n - 1) // 2 - 1


def _pair_block(pair: AlternativePair) -> dict[GeneratorLabel, tuple[tuple[int, int], int]]:
    """The D-G block, on rows and columns i and j: its 2n - 4 labels, D, E, F, G by ascending
    p in basis order, each mapped to (own, s) of E(own) + s * E(j, n), where E(k, l) is +1 at
    (k, l) and -1 at (l, k), and the anchor (j, n) carries s to keep rows i and j at equal sums."""
    i, j, n = pair.i, pair.j, pair.n
    return {**{("D", (p,)): ((p, i), -1) for p in range(1, i)},
            **{("E", (p,)): ((p, j), 2 if p == i else 1) for p in range(1, j)},
            **{("F", (p,)): ((i, p), 1) for p in range(i + 1, n + 1) if p != j},
            **{("G", (p,)): ((j, p), -1) for p in range(j + 1, n)}}


def is_tie_equating(a, pair: AlternativePair, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff the weights (row means) of i and j agree within tol.ranking_tie: on the same bits,
    the pairwise test of verify_manipulation's lead and ranking_of's neighbours, not its chain."""
    w_i, w_j = _row_sums(pair_values(a, pair)[pair.i - 1:pair.j:pair.j - pair.i]) / pair.n
    return bool(abs(w_i - w_j) <= _tolerances(tol).ranking_tie)


def tie_gap(a, pair: AlternativePair) -> float:
    """Row-sum gap f = sum_k a_ik - sum_k a_jk (signed): _row_sums of a view of rows i and j."""
    s_i, s_j = _row_sums(pair_values(a, pair)[pair.i - 1:pair.j:pair.j - pair.i])
    return float(s_i - s_j)
