"""Orthogonal projection of an additive PCM onto a tie space.

The tie space of a pair is the hyperplane of antisymmetric matrices
orthogonal to the tie normal matrix N, so ``project_to_tie`` uses the
closed form A - (f/n) * N, with f the pair's row-sum gap, in O(n^2), and
reads its coefficients off the pair's rows and columns in O(n^2).

``basis_projection`` keeps the paper's construction as the reference:
tie-space basis, un-normalized Gram-Schmidt under the Frobenius inner
product, then coefficient expansion.  Pairs with j = n fall outside the
basis construction and are conjugated with an index transposition (a
Frobenius isometry that permutes row sums) and back.  The tests hold
both routes and a constrained least-squares solve to 1e-9 of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import AdditivePcm, overflow_safe, pair_values, validate_additive
from .errors import DegenerateBasisError
from .tiespace import AlternativePair, TieBasis, _pair_block, tie_basis, tie_gap

_MIN_SQ_NORM = 1e-12


@dataclass(frozen=True)
class OrthogonalBasis:
    """Pairwise Frobenius-orthogonal basis of one tie space.

    Elements are kept un-normalized so they match hand-computed
    fractional forms exactly.  ``flat`` holds them as rows of length n*n
    for fast inner products; ``matrices`` reads them as (n, n) views.
    """

    pair: AlternativePair
    flat: np.ndarray
    squared_norms: np.ndarray

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(self.flat.reshape(-1, self.pair.n, self.pair.n))

    def __len__(self) -> int:
        return self.flat.shape[0]


@dataclass(frozen=True)
class Relabeling:
    """Index permutation applied before projecting; perm maps new -> old.

    ``apply`` conjugates a matrix into the relabeled frame.  perm is the
    identity or one transposition (``relabel_pair``), its own inverse, so
    ``apply`` also conjugates back; ``undo`` is another name for it.
    """

    perm: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values[np.ix_(self.perm, self.perm)]

    undo = apply


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
        off_pair = np.triu(np.ones_like(work, dtype=bool), 1)  # row-major, as z_set orders C
        off_pair[[pair.i - 1, pair.j - 1]] = off_pair[:, [pair.i - 1, pair.j - 1]] = False
        own, s = zip(*_pair_block(pair).values())
        (k, l), s = np.array(own).T - 1, np.array(s, dtype=float)
        d = np.cumsum(s * s) + 1  # integers, exact

        def d_to_g(x, anchor):
            b = x + s * anchor
            return ((d - s * s) * b - s * np.concatenate([[0], np.cumsum(s * b)[:-1]])) / d

        return np.concatenate([work[off_pair] / 2 - work.T[off_pair] / 2,
                               overflow_safe(d_to_g, work[k, l], work[pair.j - 1, -1:])])


def gram_schmidt(basis: TieBasis) -> OrthogonalBasis:
    """Un-normalized classical Gram-Schmidt of a dense tie basis, order preserved, ravelled:
    each generator less its projection onto the ones before it, none for the first."""
    dim = len(basis)
    flat = np.stack([b.ravel() for b in basis.matrices])
    ortho = np.zeros_like(flat)
    sq_norms = np.zeros(dim)
    for k in range(dim):
        v = flat[k] - (ortho[:k] @ flat[k] / sq_norms[:k]) @ ortho[:k]
        sq = float(v @ v)
        if sq < _MIN_SQ_NORM:
            raise DegenerateBasisError(k + 1, sq)
        ortho[k] = v
        sq_norms[k] = sq
    return OrthogonalBasis(basis.pair, ortho, sq_norms)


@lru_cache(maxsize=256)
def orthogonal_basis_for(n: int, i: int, j: int) -> OrthogonalBasis:
    """Cached basis + orthogonalization for a canonical pair (i < j < n)."""
    return gram_schmidt(tie_basis(AlternativePair(i, j, n)))


def projection_coefficients(a, h: OrthogonalBasis) -> np.ndarray:
    """Expansion coefficients <A,H_k> / <H_k,H_k> along the orthogonal basis."""
    return h.flat @ pair_values(a, h.pair).ravel() / h.squared_norms


def relabel_pair(a, pair: AlternativePair) -> tuple[np.ndarray, AlternativePair, Relabeling]:
    """Conjugate so the pair satisfies i < j < n.

    When j = n, index n is swapped with the largest index below n that
    is outside the pair; otherwise the identity is returned.
    """
    values = pair_values(a, pair)
    n = pair.n
    if pair.j < n:
        return values, pair, Relabeling(tuple(range(n)))
    k = n - 1 if (n - 1) != pair.i else n - 2
    perm = list(range(n))
    perm[k - 1], perm[n - 1] = perm[n - 1], perm[k - 1]
    relabeling = Relabeling(tuple(perm))
    return relabeling.apply(values), AlternativePair(pair.i, k, n), relabeling  # which sorts i, k


def basis_projection(a, pair: AlternativePair) -> np.ndarray:
    """Reference route: the paper's basis expansion of the projection."""
    values, n = pair_values(a, pair), pair.n
    if n == 2:  # the tie space is {0}
        return np.zeros_like(values)
    work, work_pair, relabeling = relabel_pair(values, pair)
    h = orthogonal_basis_for(n, work_pair.i, work_pair.j)
    return relabeling.apply((projection_coefficients(work, h) @ h.flat).reshape(n, n))


def max_changed_entries(n: int) -> int:
    """Upper bound on nonzero entries of |A - A'|: both rows and both
    columns of the pair, minus overlaps."""
    return 4 * n - 6


def tie_costs(f, n: int) -> tuple:
    """Distance |f|/sqrt(n) and EMI |f| (2n - 2) / (n (4n - 6)) of the tie
    projection A - (f/n) * N, for a row-sum gap f (number or array)."""
    size = abs(f)
    return size / math.sqrt(n), size * ((2 * n - 2) / (n * max_changed_entries(n)))


def project_to_tie(a, pair: AlternativePair) -> ProjectionResult:
    """Closest matrix to validate_additive(a) (Frobenius) whose weights tie the given pair.
    A copy of the input is kept, so later changes to it do not leak in."""
    original = AdditivePcm(validate_additive(a).values.copy())
    f = tie_gap(original, pair)
    return ProjectionResult(original, AdditivePcm(_tie_projection(original.values, pair, f)),
                            tie_costs(f, pair.n)[0], pair, f)


def tie_normal_matrix(pair: AlternativePair) -> np.ndarray:
    """Riesz representer of the row-sum gap functional on antisymmetric
    matrices: +-1 at the pair positions, +-1/2 along the pair's rows
    and columns, zero elsewhere.  Its squared Frobenius norm is n."""
    i, j, n = pair.i - 1, pair.j - 1, pair.n
    normal = np.zeros((n, n))
    normal[i], normal[j] = 0.5, -0.5
    normal[:, i], normal[:, j] = -0.5, 0.5
    normal[i, j], normal[j, i] = 1.0, -1.0
    normal[i, i] = normal[j, j] = 0.0
    return normal


def _tie_projection(values: np.ndarray, pair: AlternativePair, f: float) -> np.ndarray:
    """values - (f/n) * tie_normal_matrix(pair), bit for bit, in O(n) after one copy."""
    i, j, c = pair.i - 1, pair.j - 1, f / pair.n
    zero, half = c * 0.0, c * 0.5
    out = values - zero  # as N's zeros do: -0.0 turns to +0.0 when c < 0
    out[i], out[j] = values[i] - half, values[j] + half
    out[:, i], out[:, j] = values[:, i] + half, values[:, j] - half
    out[i, j], out[j, i] = values[i, j] - c, values[j, i] + c
    out[i, i], out[j, j] = values[i, i] - zero, values[j, j] - zero
    return out


def hyperplane_oracle_project(a, pair: AlternativePair) -> AdditivePcm:
    """Closed-form projection of validate_additive(a): A - (f/n) * N with f the
    row-sum gap and N the tie normal matrix.  Valid for every pair, including j = n."""
    values = validate_additive(a).values  # tie_gap checks the shape
    return AdditivePcm(_tie_projection(values, pair, tie_gap(values, pair)))
