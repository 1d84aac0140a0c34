"""The paper's reference route to the tie projection, which the tests pin the library to.

For a fixed pair of alternatives (i, j), the tie space is the linear subspace of additive PCMs
whose induced row-mean weights for i and j coincide.  Its dimension is (n^2 - n)/2 - 1 and it
admits an explicit basis of sparse integer matrices built from five generator families, labeled
C, D, E, F and G.  Each follows one rule, E(own) + s * E(j, n): a unit antisymmetric pair at its
own index plus s times the anchor (j, n), which keeps rows i and j at equal sums.  The basis
order is the C block, off rows and columns i and j (``z_set``), then the 2n - 4 D-G generators
of ``pcmanip.tiespace._pair_block``, on them.  Indices are 1-based.  The construction assumes
i < j < n; pairs touching the last index are conjugated with ``pcmanip.relabel_pair``.

``basis_projection`` expands a matrix along the tie basis after un-normalized Gram-Schmidt under
the Frobenius inner product.  The library computes the same projection in closed form, A - (f/n)
* N, with N the ``tie_normal_matrix``; the tests hold the two routes to 1e-9 of each other.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations

import numpy as np

from pcmanip import AlternativePair, PcmError, relabel_pair
from pcmanip.core import additive_values, matched_values, overflow_safe, pair_values
from pcmanip.tiespace import GeneratorLabel, _pair_block

_MIN_SQ_NORM = 1e-12


class ParamOutOfRangeError(PcmError):
    def __init__(self, kind, param, detail=""):
        msg = f"parameter {param} out of range for generator kind {kind}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.kind, self.param = kind, param


class PairRequiresRelabelingError(PcmError):
    """Signal that a pair with j = n needs permutation handling upstream."""

    def __init__(self, i, j, n):
        super().__init__(
            f"pair ({i},{j}) with j = n = {n} requires index relabeling; "
            "route through the projection layer"
        )
        self.i, self.j, self.n = i, j, n


class DegenerateBasisError(PcmError):
    def __init__(self, k, sq_norm):
        super().__init__(
            f"orthogonalized basis element {k} has squared norm {sq_norm:.3e}; "
            "source basis is not linearly independent"
        )
        self.k, self.sq_norm = k, sq_norm


def z_set(pair: AlternativePair) -> tuple[tuple[int, int], ...]:
    """All (q, r) with 1 <= q < r <= n and {q,r} disjoint from {i,j}, lexicographic."""
    others = [k for k in range(1, pair.n + 1) if k not in (pair.i, pair.j)]
    return tuple(combinations(others, 2))


def _generator_entry(kind: str, params, pair: AlternativePair) -> tuple[tuple[int, int], int]:
    """(own, s) of the generator E(own) + s * E(j, n) with a label given from outside, checked:
    j < n, a known kind, and integer parameters, (q, r) for C, a pair of ``z_set``, own (q, r)
    and s = 0, or one p for D-G, whose range and entry ``_pair_block`` holds."""
    if pair.j == pair.n:
        raise PairRequiresRelabelingError(pair.i, pair.j, pair.n)
    if kind not in ("C", "D", "E", "F", "G"):
        raise ParamOutOfRangeError(kind, params, "unknown generator kind")
    try:  # as AlternativePair reads its indices, by operator.index: 2.9 is not 2
        ints = tuple(map(operator.index, params if isinstance(params, (tuple, list)) else [params]))
    except TypeError:
        ints = ()
    if len(ints) != (2 if kind == "C" else 1):
        raise ParamOutOfRangeError(kind, params, "C takes integers (q, r), D-G one integer p")
    if kind == "C" and ints in z_set(pair):
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
    return (*[("C", qr) for qr in z_set(pair)], *_pair_block(pair))


def tie_basis(pair: AlternativePair) -> np.ndarray:
    """The generator matrices stacked (dim, n, n) in ``tie_labels`` order: a C label's own is
    its (q, r), with s = 0, and the D-G entries come from one ``_pair_block``.  Requires
    i < j < n."""
    if pair.j == pair.n:
        raise PairRequiresRelabelingError(pair.i, pair.j, pair.n)
    block = _pair_block(pair)
    return np.stack([_dense(*block.get(g, (g[1], 0)), pair) for g in tie_labels(pair)])


def gram_schmidt(basis) -> tuple[np.ndarray, np.ndarray]:
    """Un-normalized classical Gram-Schmidt of a stack of equally shaped generators, read as
    float64, order preserved: each less its projection onto the ones before it, none for the
    first.  Returns the orthogonal stack, in the input's shape, and its squared norms; kept
    un-normalized, the elements match the paper's hand-computed fractional forms."""
    basis = np.asarray(basis, dtype=float)
    flat = basis.reshape(len(basis), -1)
    ortho = np.zeros_like(flat)
    sq_norms = np.zeros(len(flat))
    for k in range(len(flat)):
        v = flat[k] - (ortho[:k] @ flat[k] / sq_norms[:k]) @ ortho[:k]
        sq = float(v @ v)
        if sq < _MIN_SQ_NORM:
            raise DegenerateBasisError(k + 1, sq)
        ortho[k] = v
        sq_norms[k] = sq
    return ortho.reshape(basis.shape), sq_norms


@lru_cache(maxsize=256, typed=True)  # typed: n = 5.0 is checked, not served as 5
def orthogonal_basis_for(n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``gram_schmidt(tie_basis(...))`` for a canonical pair (i < j < n), cached: the
    orthogonal (dim, n, n) stack and its squared norms, shared, so both read-only."""
    orthogonal, squared_norms = gram_schmidt(tie_basis(AlternativePair(i, j, n)))
    orthogonal.flags.writeable = squared_norms.flags.writeable = False
    return orthogonal, squared_norms


def projection_coefficients(a, basis: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Expansion coefficients <A,H_k> / <H_k,H_k> along an orthogonal basis, the
    (orthogonal, squared_norms) pair of ``gram_schmidt``; a has the shape of each H_k."""
    orthogonal, squared_norms = basis
    values, _ = matched_values(a, orthogonal[0])
    return orthogonal.reshape(len(orthogonal), -1) @ values.ravel() / squared_norms


def basis_projection(a, pair: AlternativePair) -> np.ndarray:
    """Reference route: the paper's basis expansion of the projection."""
    values, n = pair_values(a, pair), pair.n
    if n == 2:  # the tie space is {0}
        return np.zeros_like(values)
    work, work_pair, perm = relabel_pair(values, pair)
    basis = orthogonal_basis_for(n, work_pair.i, work_pair.j)
    flat = basis[0].reshape(len(basis[0]), -1)
    return (projection_coefficients(work, basis) @ flat).reshape(n, n)[np.ix_(perm, perm)]


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


def frobenius_inner(a, b) -> float:
    """Entry-wise product sum of two equally sized matrices."""
    va, vb = matched_values(a, b)
    return overflow_safe(lambda x: np.add.reduce(x * vb, None), va)  # bilinear: scale va alone


def frobenius_norm(a) -> float:
    return overflow_safe(np.linalg.norm, additive_values(a))
