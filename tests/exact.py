"""Exact rational answers, by the stdlib's fractions, for checking float outputs.

``Fraction(x)`` of a float is exact, so these are the exact answers for the
float input the code actually read.  The D-G coefficients follow the paper's
construction (Gram-Schmidt of the generators), not the closed form the library
uses.  The cost grows as n^3 per pair, for the small n (up to 12) of the tests.
"""

import math
from fractions import Fraction
from functools import lru_cache

from pcmanip import AlternativePair, generator_matrix, relabel_pair
from pcmanip.tiespace import tie_labels, z_set


@lru_cache(maxsize=None)
def _d_to_g_gram_schmidt(n: int, i: int, j: int):
    """Gram-Schmidt of the pair's D-G generators (i < j < n), each kept as its nonzero upper
    entries (half of each Frobenius product, which leaves every ratio as it is), in the
    Gram-matrix form: with rows R and Gram matrix R R^T = L D L^T (L unit lower triangular), the
    orthogonal rows are L^-1 R and their squared norms D.  The factors come from Bareiss's
    fraction-free elimination of the integer Gram matrix, whose k-th pivot (from 0) is its
    leading principal minor of order k + 1, minors[k + 1]: D_k = minors[k + 1] / minors[k] and
    L_kl = u_lk / minors[l + 1]."""
    pair = AlternativePair(i, j, n)
    rows = []
    for kind, params in tie_labels(pair):
        if kind != "C":
            g = generator_matrix(kind, params, pair)
            rows.append({(k, l): int(g[k, l])
                         for k in range(n) for l in range(k + 1, n) if g[k, l]})
    u = [[sum(v * s.get(key, 0) for key, v in r.items()) for s in rows] for r in rows]
    minors = [1]
    for k in range(len(u)):
        for r in range(k + 1, len(u)):
            for c in range(k + 1, len(u)):
                u[r][c] = (u[k][k] * u[r][c] - u[r][k] * u[k][c]) // minors[-1]  # exact
        minors.append(u[k][k])
    low = [[Fraction(u[l][k], minors[l + 1]) for l in range(k)] for k in range(len(u))]
    return rows, low, [Fraction(minors[k + 1], minors[k]) for k in range(len(u))]


def exact_coefficients(a, pair) -> list:
    """The coefficients of the tie projection along the orthogonal tie basis, as Fractions,
    in the relabeled frame when j = n: C(q, r) gives (a_qr - a_rq)/2, and the D-G block exact
    Gram-Schmidt of its generators.  The C generators have no entry on rows and columns i and
    j, where every D-G one lies, so the two blocks are orthogonal and each is orthogonalized
    alone."""
    work, pair, _ = relabel_pair(a, pair)
    exact = lambda k, l: Fraction(float(work[k, l]))  # noqa: E731
    out = [(exact(q - 1, r - 1) - exact(r - 1, q - 1)) / 2 for q, r in z_set(pair)]
    rows, low, sq = _d_to_g_gram_schmidt(pair.n, pair.i, pair.j)
    z = []  # <x, h_k> = (L^-1 R x)_k, by forward substitution
    for lk, r in zip(low, rows):
        z.append(sum(v * exact(*key) for key, v in r.items()) - sum(c * y for c, y in zip(lk, z)))
    return out + [y / s for y, s in zip(z, sq)]


def ulps(got: float, exact: Fraction) -> Fraction:
    """|got - exact| in units in the last place of the float nearest to exact."""
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))
