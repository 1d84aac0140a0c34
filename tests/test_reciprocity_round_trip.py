"""One reciprocity rule for both scales: a matrix and its image in the other
scale get the same decision at the same tolerance, so what conversion writes
validates.

Both validators read tol.reciprocity.  The multiplicative check bounds
|m_ij * m_ji - 1| on every entry, the diagonal's m_ii^2 included, and the
additive check bounds |a_ij + a_ji|.  With s = a_ij + a_ji = log(m_ij * m_ji),
the two residuals are |expm1(s)| and |s|, equal to first order.  A residual s
is planted near each tolerance, on and off the diagonal, in each scale; the
property covers every s for which |s| and |expm1(s)| lie on the same side of
the tolerance, each clear of it by more than the rounding that log or exp of
the matrix's entries brings.  Within that band, which also holds the
second-order term s^2/2, the scales cannot agree: with tol 0.5 the product
0.55 passes and its log, -0.598, does not."""

import numpy as np
import pytest

from pcmanip import (
    Tolerances,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from pcmanip.errors import PcmError

from refdata import random_antisymmetric

TOLERANCES = [1e-15, 1e-8, 1e-3, 0.5]
FRACTIONS = sorted({0.125, 8.0, *(1 + sign * 2.0 ** -k for sign in (1, -1) for k in range(30))})


def _accepts(validate, matrix, tol) -> bool:
    try:
        validate(matrix, tol)
    except PcmError:
        return False
    return True


def _bases(rng, n):
    """Exactly antisymmetric: zeros, multiples of ln 2, and uniform entries in (-2, 2)."""
    k = rng.integers(-4, 5, size=n)
    return [np.zeros((n, n)), (k[:, None] - k[None, :]) * np.log(2.0),
            random_antisymmetric(rng, n, scale=2.0)]


def _decidable(s, t, base) -> bool:
    """|s| and |expm1(s)|, the two scales' residuals, on one side of t, each clear of it by
    more than a few ulps of 1 and of base's largest entry: what log, exp and a product move
    a residual by."""
    additive, multiplicative = abs(s), abs(np.expm1(s))
    slack = 2.0 ** -51 * (1.0 + np.abs(base).max())
    return ((additive <= t) == (multiplicative <= t)
            and min(abs(additive - t), abs(multiplicative - t)) > slack)


LOCATIONS = ["diagonal", "off the diagonal"]
# source scale: its validator, the image of its matrix in the other scale, the conversion
# that the CLI's convert takes, and the other scale's validator
DIRECTIONS = {
    "multiplicative": (validate_multiplicative, np.log, to_additive, validate_additive),
    "additive": (validate_additive, np.exp, to_multiplicative, validate_multiplicative),
}


def _planted(s, base, location):
    """{scale: matrix}: base and np.exp(base), each with the residual s planted at one
    diagonal or one off-diagonal entry."""
    n = len(base)
    i, j = (n // 2, n // 2) if location == "diagonal" else (n - 1, 0)
    a, m = base.copy(), np.exp(base)
    if i == j:
        a[i, i], m[i, i] = s / 2, np.exp(s / 2)
    else:
        a[i, j], m[i, j] = s - a[j, i], np.exp(s) / m[j, i]
    return {"additive": a, "multiplicative": m}


@pytest.mark.parametrize("location", LOCATIONS)
@pytest.mark.parametrize("source", DIRECTIONS)
@pytest.mark.parametrize("t", TOLERANCES)
def test_a_planted_residual_gets_one_decision_in_both_scales(rng, t, source, location):
    validate_source, image, convert, validate_target = DIRECTIONS[source]
    tol = Tolerances(reciprocity=t)
    seen = set()
    for n in (2, 5, 12):
        for base in _bases(rng, n):
            for s in (sign * t * f for sign in (1, -1) for f in FRACTIONS):
                if not _decidable(s, t, base):
                    continue
                passes = abs(s) <= t
                matrix = _planted(s, base, location)[source]
                assert _accepts(validate_source, matrix, tol) is passes, (n, s)
                assert _accepts(validate_target, image(matrix), tol) is passes, (n, s)
                if passes:
                    validate_target(convert(validate_source(matrix, tol)).values, tol)
                seen.add(passes)
    assert seen == {True, False}
