"""validate_multiplicative accepts from the range of m_ij * m_ji and must
decide every matrix as the residual rule it replaced, ``oracle.multiplicative_outcome``
(residuals on every entry, the diagonal's |m_ii^2 - 1| included): the same outcome,
error type and message, and reported value, without a warning."""

import warnings

import numpy as np
import pytest

from pcmanip import Tolerances, validate_multiplicative
from pcmanip.errors import (
    NonFiniteEntryError,
    NonPositiveEntryError,
    ReciprocityViolationError,
)

from oracle import multiplicative_outcome as reference_outcome
from refdata import random_antisymmetric

TOLERANCES = [1e-15, 1e-8, 1e-3, 0.5, 5.0]
FACTORS = [0.49, 0.5, 0.51, 0.99, 1.0, 1.01, 2.0]


def outcome(matrix, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            validate_multiplicative(matrix, tol)
        except (NonFiniteEntryError, NonPositiveEntryError, ReciprocityViolationError) as exc:
            return exc
    return None


def _key(result):
    if not isinstance(result, Exception):  # accepted
        return None
    value = result.value if hasattr(result, "value") else result.residual
    return type(result), str(result), result.i, result.j, np.float64(value).tobytes()


def assert_same_decision(matrix, tol):
    assert _key(outcome(matrix, tol)) == _key(reference_outcome(matrix, tol))


def _ulps(x, k):
    """x moved k ulps (down for negative k)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def _diagonal_values(tol):
    edges = [1.0 + sign * tol * factor for sign in (1, -1) for factor in FACTORS]
    near = [_ulps(edge, k) for edge in (1.0 + tol, 1.0 - tol) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]
    return edges + near + [_ulps(1.0, k) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]


def _bases(rng, n):
    """An exactly reciprocal matrix of powers of two, and a rounded one."""
    k = rng.integers(-4, 5, size=n)
    return [np.ldexp(1.0, k[:, None] - k[None, :]),
            np.exp(random_antisymmetric(rng, n, scale=2.0))]


@pytest.mark.parametrize("n", [2, 5, 40])
@pytest.mark.parametrize("t", TOLERANCES)
def test_diagonal_near_the_tolerance(rng, n, t):
    tol = Tolerances(reciprocity=t)
    for base in _bases(rng, n):
        for k in {0, n // 2, n - 1}:
            for value in _diagonal_values(t):
                m = base.copy()
                m[k, k] = value
                assert_same_decision(m, tol)


@pytest.mark.parametrize("n", [2, 5, 40])
@pytest.mark.parametrize("t", TOLERANCES)
def test_reciprocity_near_the_tolerance(rng, n, t):
    tol = Tolerances(reciprocity=t)
    for base in _bases(rng, n):
        for i, j in {(0, 1), (n - 2, n - 1), (n - 1, 0)}:
            for x in (1.0, base[i, j], 3.0, 1 / 7):
                for target in (1 + t * (1 - 1e-6), 1 + t * (1 + 1e-6),
                               1 - t * (1 - 1e-6), 1 - t * (1 + 1e-6)):
                    m = base.copy()
                    m[i, j], m[j, i] = x, target / x
                    assert_same_decision(m, tol)


@pytest.mark.parametrize("n", [2, 5, 40])
def test_negative_pair_with_unit_product(rng, n):
    for base in _bases(rng, n):
        m = base.copy()
        m[n - 1, 0], m[0, n - 1] = -2.0, -0.5
        assert_same_decision(m, Tolerances())
        with pytest.raises(NonPositiveEntryError) as exc:
            validate_multiplicative(m)
        assert (exc.value.i, exc.value.j) == (1, n)


@pytest.mark.parametrize("n", [2, 5, 40])
@pytest.mark.parametrize("t", TOLERANCES)
@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e200, 1e-200])
def test_extreme_entries(rng, n, t, special):
    tol = Tolerances(reciprocity=t)
    for base in _bases(rng, n):
        for i, j in {(0, 0), (0, n - 1), (n - 1, 0), (n // 2, n // 2)}:
            m = base.copy()
            m[i, j] = special
            assert_same_decision(m, tol)
            m[j, i] = special
            assert_same_decision(m, tol)


@pytest.mark.parametrize("t", TOLERANCES)
def test_random_faults(rng, t):
    tol = Tolerances(reciprocity=t)
    choices = [np.inf, np.nan, 0.0, -1.0, 1e200, 1e-200, 1 + t, 1 - t, 1 + t / 2, 1 + 0.6 * t]
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = _bases(rng, n)[int(rng.integers(2))]
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.integers(n, size=2)
            m[i, j] = choices[int(rng.integers(len(choices)))]
        assert_same_decision(m, tol)
