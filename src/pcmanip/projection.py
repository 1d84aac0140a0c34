"""Orthogonal projection of an additive PCM onto a tie space.

The tie space of a pair is the hyperplane of antisymmetric matrices
orthogonal to the tie normal matrix N: +-1 at the pair's two entries,
+-1/2 along its rows and columns, zero elsewhere, with squared Frobenius
norm n.  So ``project_to_tie`` uses the closed form A - (f/n) * N, with
f the pair's row-sum gap, in O(n^2), and reads its coefficients along
the paper's orthogonal tie basis off the pair's rows and columns in
O(n^2).  Pairs with j = n fall outside the basis construction and are
conjugated with an index transposition (a Frobenius isometry that
permutes row sums), ``relabel_pair``, and back.

The paper's own construction, the generator basis, un-normalized
Gram-Schmidt and coefficient expansion, is the tests' reference route
(``tests/reference.py``); they hold both routes and a constrained
least-squares solve to 1e-9 of each other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import AdditivePcm, overflow_safe, pair_values, validate_additive, _size
from .errors import PcmError
from .tiespace import AlternativePair, _pair_block, tie_gap


class ProjectionResult(NamedTuple):
    """Projection of an additive PCM onto a tie space."""

    original: AdditivePcm
    projected: AdditivePcm
    distance: float
    pair: AlternativePair
    gap: float  # the pair's row-sum gap f, from which every tie cost follows

    @property
    def coefficients(self) -> np.ndarray:
        """Coefficients along the orthogonal tie basis (relabeled frame when j = n), in O(n^2)
        on each access.  C(q, r), off the pair's rows and columns, gets (a_qr - a_rq)/2, halved
        first not to overflow.  On their upper entries the D-G rows are e_own + s e_(j,n), whose
        Gram-Schmidt is a rank-one Cholesky update of I (Gill, Golub, Murray & Saunders, Math.
        Comp. 28, 1974): with b_k = a_own(k) + s_k a_(j,n), d_k = 1 + sum_{l<=k} s_l^2 and
        B_k = sum_{l<=k} s_l b_l, coefficient k is (d_{k-1} b_k - s_k B_{k-1}) / d_k."""
        if self.pair.n == 2:  # the tie space is {0}
            return np.zeros(0)
        work, pair, _ = relabel_pair(self.original.values, self.pair)
        off_pair = np.triu(np.ones_like(work, dtype=bool), 1)  # row-major, the C block's order
        off_pair[[pair.i - 1, pair.j - 1]] = off_pair[:, [pair.i - 1, pair.j - 1]] = False
        own, s = zip(*_pair_block(pair).values())
        (k, l), s = np.array(own).T - 1, np.array(s, dtype=float)
        d = np.cumsum(s * s) + 1  # integers, exact

        def d_to_g(x, anchor):
            b = x + s * anchor
            return ((d - s * s) * b - s * np.concatenate([[0], np.cumsum(s * b)[:-1]])) / d

        return np.concatenate([work[off_pair] / 2 - work.T[off_pair] / 2,
                               overflow_safe(d_to_g, work[k, l], work[pair.j - 1, -1:])])


def relabel_pair(a, pair: AlternativePair) -> tuple[np.ndarray, AlternativePair, list[int]]:
    """Conjugate so the pair satisfies i < j < n: the values as values[np.ix_(perm, perm)],
    the pair, and perm, which maps new -> old indices (0-based).

    When j = n, index n is swapped with the largest index below n that
    is outside the pair; otherwise perm is the identity.  Either way perm
    is its own inverse, so the same np.ix_ conjugates back.
    """
    values = pair_values(a, pair)
    n = pair.n
    perm = list(range(n))
    if pair.j < n:
        return values, pair, perm
    if n == 2:
        raise PcmError("n = 2 has no index outside the pair to swap with n: its tie space is {0}")
    k = n - 1 if (n - 1) != pair.i else n - 2
    perm[k - 1], perm[n - 1] = perm[n - 1], perm[k - 1]
    return values[np.ix_(perm, perm)], AlternativePair(pair.i, k, n), perm  # which sorts i, k


def max_changed_entries(n: int) -> int:
    """Upper bound on nonzero entries of |A - A'|: both rows and both
    columns of the pair, minus overlaps; n is an integer >= 2."""
    return 4 * _size(n) - 6


def tie_costs(f, n: int) -> tuple:
    """Distance |f|/sqrt(n) and EMI |f| (2n - 2) / (n (4n - 6)) of the tie
    projection A - (f/n) * N, for a row-sum gap f (number or array)."""
    size = abs(f)
    return size / math.sqrt(n), size * ((2 * n - 2) / (n * max_changed_entries(n)))


def project_to_tie(a, pair: AlternativePair) -> ProjectionResult:
    """Closest matrix to validate_additive(a) (Frobenius) whose weights tie the given pair."""
    original = validate_additive(a)
    f = tie_gap(original, pair)
    projected = AdditivePcm._trusted(_tie_projection(original.values, pair, f))
    return ProjectionResult(original, projected, tie_costs(f, pair.n)[0], pair, f)


def _tie_projection(values: np.ndarray, pair: AlternativePair, f: float) -> np.ndarray:
    """values - (f/n) * N, N the pair's tie normal matrix, bit for bit, in O(n) after one copy."""
    i, j, c = pair.i - 1, pair.j - 1, f / pair.n
    zero, half = c * 0.0, c * 0.5
    out = values - zero  # as N's zeros do: -0.0 turns to +0.0 when c < 0
    np.subtract(values[i], half, out=out[i])  # in place: no row or column temporaries
    np.add(values[j], half, out=out[j])
    np.add(values[:, i], half, out=out[:, i])
    np.subtract(values[:, j], half, out=out[:, j])
    out[i, j], out[j, i] = values[i, j] - c, values[j, i] + c
    out[i, i], out[j, j] = values[i, i] - zero, values[j, j] - zero
    return out


def hyperplane_oracle_project(a, pair: AlternativePair) -> AdditivePcm:
    """project_to_tie(a, pair).projected, by the name the large-n benchmark op reads."""
    return project_to_tie(a, pair).projected
