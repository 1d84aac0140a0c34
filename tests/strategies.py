"""Shared Hypothesis strategies for additive matrices and their pairs.

``layout_cases`` draws what the library's bit-for-bit statements must hold
for: n from 2 to 60, a per-matrix scale from 1e-300 to 1e300 with entries
of mixed magnitudes inside each matrix (down to subnormals), -0.0 and +0.0
entries on both sides of the diagonal and on it, a pair with j = n half the
time, and one of six memory layouts (LAYOUTS).  The entries come from a
drawn seed, so a 60 x 60 matrix costs one draw, while n, the scale, the
layout and the pair still shrink.
"""

import numpy as np
from hypothesis import strategies as st

from pcmanip import AlternativePair


def strided(a: np.ndarray) -> np.ndarray:
    """The same values as a view of every other row and column of a NaN-filled larger array."""
    big = np.full((2 * a.shape[0], 2 * a.shape[1]), np.nan)
    big[::2, ::2] = a
    return big[::2, ::2]


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "(-a).T": lambda a: (-a).T,  # the same values, up to signed zeros, as an F-ordered view
    "C(a.T).T": lambda a: np.ascontiguousarray(a.T).T,  # the same values, as an F-ordered view
    "strided": strided,
    # the same values, as a view with negative strides in both axes
    "reversed": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
}
# every layout that holds exactly a's values, signed zeros included
EXACT_LAYOUTS = {name: f for name, f in LAYOUTS.items() if name != "(-a).T"}


def mixed_antisymmetric(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """An exactly antisymmetric n x n matrix around scale: each upper entry is a uniform
    mantissa times 10^-12..10^0 times scale, one in ten is +-0.0, and so is the diagonal."""
    size = n * (n - 1) // 2
    upper = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-12, 1, size) * scale
    zeros = rng.random(size) < 0.1
    upper[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    i, j = np.triu_indices(n, 1)
    a = np.empty((n, n))
    a[i, j], a[j, i] = upper, -upper
    a[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return a


@st.composite
def layout_cases(draw):
    """(a, pair, layout): a mixed_antisymmetric matrix, 2 <= n <= 60, in one of LAYOUTS,
    and a pair."""
    n = draw(st.integers(2, 60))
    scale = 10.0 ** draw(st.integers(-300, 300))
    a = mixed_antisymmetric(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, scale)
    if n == 2 or draw(st.booleans()):  # j = n
        i, j = draw(st.integers(1, n - 1)), n
    else:
        i = draw(st.integers(1, n - 2))
        j = draw(st.integers(i + 1, n - 1))
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    return LAYOUTS[layout](a), AlternativePair(i, j, n), layout
