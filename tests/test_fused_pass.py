"""The validators' fused acceptance pass and the ufunc-level reductions.

A matrix that fails the fused pass is handed to the ordered scans, so
the error reported must still be the documented first one: non-finite,
then non-positive, then reciprocity or antisymmetry, each at its first
entry in row-major order.  The reductions must give the bytes of the
numpy wrappers they replace, and the vectorized ranking must stay as
silent on infinite weights as the Python loop it replaced."""

import warnings

import numpy as np
import pytest

from pcmanip import (
    AlternativePair,
    MultiplicativePcm,
    additive_weights,
    gmm_weights,
    ranking_of,
    tie_gap,
    validate_additive,
    validate_multiplicative,
)
from pcmanip.errors import (
    AntisymmetryViolationError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    ReciprocityViolationError,
)

from refdata import all_pairs, random_antisymmetric


def _raises_without_warning(validate, values, error, location):
    """validate(values) raises error at the 1-based location and emits
    no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            validate(values)
    assert (exc.value.i, exc.value.j) == location


def _one_based(k, n):
    """A 1-based index, counted from the end (-1 for n) when negative."""
    return k if k > 0 else n + 1 + k


# Faults that a search in the wrong order or triangle would misplace, most
# with the kind reported second in the earlier row; a pairing fault planted
# below the diagonal is named by its upper mirror: (scale, [(row, column,
# value), ...], error, its location), all indices 1-based and negative ones
# counted from the end.
ORDER_CASES = [
    ("multiplicative", [(1, 2, -1.0), (-1, -2, np.nan)], NonFiniteEntryError, (-1, -2)),
    ("multiplicative", [(1, 2, 0.0), (-1, -2, np.inf)], NonFiniteEntryError, (-1, -2)),
    ("multiplicative", [(1, 2, 3.0), (-1, -2, -2.0)], NonPositiveEntryError, (-1, -2)),
    ("multiplicative", [(1, 2, 3.0), (-1, -2, -np.inf)], NonFiniteEntryError, (-1, -2)),
    ("multiplicative", [(-1, 1, np.nan), (2, -1, np.nan)], NonFiniteEntryError, (2, -1)),
    ("multiplicative", [(-1, 1, 3.0)], ReciprocityViolationError, (1, -1)),
    ("multiplicative", [(3, 2, 3.0), (4, 4, 1.5)], ReciprocityViolationError, (2, 3)),
    ("multiplicative", [(-1, 2, 3.0), (3, 3, 1.5)], ReciprocityViolationError, (2, -1)),
    ("multiplicative", [(-1, 3, 3.0), (2, 2, 1.5)], ReciprocityViolationError, (2, 2)),
    ("additive", [(1, 2, 5.0), (-1, -2, np.nan)], NonFiniteEntryError, (-1, -2)),
    ("additive", [(1, 2, 5.0), (-1, -2, -np.inf)], NonFiniteEntryError, (-1, -2)),
    ("additive", [(-1, 1, 5.0), (2, 2, 1e-3)], AntisymmetryViolationError, (1, -1)),
    # row 1's sum overflows, which is checked after antisymmetry
    ("additive", [(1, 2, 1e308), (2, 1, -1e308), (1, 3, 1e308), (3, 1, -1e308),
                  (-1, -2, 7.0)], AntisymmetryViolationError, (-2, -1)),
]


@pytest.mark.parametrize("n", [200, 300])
@pytest.mark.parametrize("scale, faults, error, location", ORDER_CASES)
def test_first_error_survives_the_fused_pass(rng, n, scale, faults, error, location):
    a = random_antisymmetric(rng, n, scale=2.0)
    values = np.exp(a) if scale == "multiplicative" else a
    for row, column, value in faults:
        values[_one_based(row, n) - 1, _one_based(column, n) - 1] = value
    validate = validate_multiplicative if scale == "multiplicative" else validate_additive
    _raises_without_warning(validate, values, error, tuple(_one_based(k, n) for k in location))


@pytest.mark.parametrize("n", [2, 5, 300])
def test_inf_against_zero_is_non_finite(rng, n):
    m = np.exp(random_antisymmetric(rng, n, scale=2.0))
    m[0, 1], m[1, 0] = np.inf, 0.0  # inf * 0 is NaN in the residual
    _raises_without_warning(validate_multiplicative, m, NonFiniteEntryError, (1, 2))
    m[0, 1], m[1, 0] = 0.0, np.inf
    _raises_without_warning(validate_multiplicative, m, NonFiniteEntryError, (2, 1))
    m[0, 1], m[1, 0] = 1e200, 1e200  # the product overflows
    _raises_without_warning(validate_multiplicative, m, ReciprocityViolationError, (1, 2))


@pytest.mark.parametrize("n", [2, 5, 300])
def test_diagonal_residual_is_its_product_with_itself(rng, n):
    # m_kk * m_kk is the diagonal's product, so |m_kk - 1| = 0.6e-8 fails the 1e-8 tolerance,
    # as its log fails the additive check with 2|a_kk| = 1.2e-8
    m = np.exp(random_antisymmetric(rng, n, scale=2.0))
    k = n // 2
    m[k, k] = 1.0 + 0.4e-8
    for layout in (m, np.asfortranarray(m)):
        validate_multiplicative(layout)
    validate_additive(np.log(m))
    m[k, k] = 1.0 + 0.6e-8
    location = (k + 1, k + 1)
    for layout in (m, np.asfortranarray(m)):
        with pytest.raises(ReciprocityViolationError) as exc:
            validate_multiplicative(layout)
        assert (exc.value.i, exc.value.j, exc.value.residual) == (*location, m[k, k] ** 2 - 1.0)
    _raises_without_warning(validate_additive, np.log(m), AntisymmetryViolationError, location)


def test_a_diagonal_violation_reports_the_residual_its_message_names():
    # |m_11 - 1| is 2e-8; the message names |m_ij*m_ji - 1|, which is m_11^2 - 1 = 4e-8
    with pytest.raises(ReciprocityViolationError) as exc:
        validate_multiplicative([[1.00000002, 2.0], [0.5, 1.0]])
    assert str(exc.value) == ("entries (1,1) and (1,1) violate reciprocity: "
                              "|m_ij*m_ji - 1| = 4.000e-08")


@pytest.mark.parametrize("n", [2, 5, 300])
def test_inf_against_minus_inf_is_non_finite(rng, n):
    a = random_antisymmetric(rng, n)
    a[0, 1], a[1, 0] = np.inf, -np.inf  # inf + -inf is NaN in the residual
    _raises_without_warning(validate_additive, a, NonFiniteEntryError, (1, 2))
    a[0, 1], a[1, 0] = -np.inf, np.inf
    _raises_without_warning(validate_additive, a, NonFiniteEntryError, (1, 2))
    a[0, 0] = np.inf
    _raises_without_warning(validate_additive, a, NonFiniteEntryError, (1, 1))


def _with_signed_zeros_and_huge(a, rng):
    """a with -0.0 in every fifth upper entry and a few entries near 1e300,
    kept antisymmetric."""
    a = a.copy()
    n = a.shape[0]
    k, l = np.triu_indices(n, 1)
    a[k[::5], l[::5]], a[l[::5], k[::5]] = -0.0, 0.0
    for _ in range(max(1, n // 4)):
        i, j = rng.choice(n, size=2, replace=False)
        a[i, j] = rng.uniform(-1.0, 1.0) * 1e300
        a[j, i] = -a[i, j]
    return a


@pytest.mark.parametrize("n", [*range(2, 13), 300])
def test_reductions_keep_the_wrappers_bits(rng, n):
    a = random_antisymmetric(rng, n)
    for a in (a, _with_signed_zeros_and_huge(a, rng), np.full((n, n), -0.0)):
        assert additive_weights(a).tobytes() == np.mean(a, axis=1).tobytes()
        pairs = all_pairs(n) if n <= 12 else [AlternativePair(1, 2, n),
                                             AlternativePair(7, n, n),
                                             AlternativePair(150, 299, n)]
        for pair in pairs:
            want = a[pair.i - 1].sum() - a[pair.j - 1].sum()
            assert np.float64(tie_gap(a, pair)).tobytes() == want.tobytes()
    # reciprocal entries from about 1e-300 to 1e300
    u = np.triu(rng.uniform(-690.0, 690.0, size=(n, n)), 1)
    m = np.exp(u - u.T)
    assert (gmm_weights(MultiplicativePcm(m)).tobytes()
            == np.exp(np.mean(np.log(m), axis=1)).tobytes())


def test_ranking_of_infinite_weights_warns_nothing():
    # inf - inf is NaN, which is no tie: every weight here is its own group
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranking = ranking_of([np.inf, np.inf, 1.0, -np.inf, -np.inf])
    assert ranking.groups == ((1,), (2,), (3,), (4,), (5,))
