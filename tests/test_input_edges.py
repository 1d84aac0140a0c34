"""Inputs at the edges of what the readers take: complex numbers, arrays that
are not square for additive_weights, a dimension that is not an integer, and
weight vectors with NaN, infinities and signed zeros for ranking_of."""

import re
from fractions import Fraction

import numpy as np
import pytest

from pcmanip import (
    AdditivePcm,
    PcmError,
    Tolerances,
    additive_weights,
    emi,
    normalize_weights,
    ranking_of,
    tie_space_dimension,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)

from pcmanip.errors import NotSquareError

from refdata import random_antisymmetric
from reference import frobenius_norm

COMPLEX_INPUTS = {
    "ndarray": np.array([[0, 1j], [-1j, 0]]),
    "ndarray-zero-imag": np.array([[0, 1], [-1, 0]], dtype=complex),
    "scalars": [[np.complex128(0), np.complex128(1j)], [np.complex128(-1j), np.complex128(0)]],
    "python": [[0, 1j], [-1j, 0]],
}

READERS = {
    "validate_additive": validate_additive,
    "validate_multiplicative": validate_multiplicative,
    "to_multiplicative": to_multiplicative,
    "additive_weights": additive_weights,
    "frobenius_norm": frobenius_norm,
    "emi": lambda x: emi(x, np.zeros((2, 2))),
    "ranking_of": lambda x: ranking_of(flat(x)),
    "normalize_weights": lambda x: normalize_weights(flat(x)),
}


def flat(x):
    """The entries as a vector: an ndarray ravelled, a list of rows joined."""
    return np.ravel(x) if isinstance(x, np.ndarray) else [v for row in x for v in row]


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
@pytest.mark.parametrize("x", COMPLEX_INPUTS.values(), ids=COMPLEX_INPUTS)
def test_complex_input_is_a_pcm_error(reader, x):
    # under filterwarnings = error, numpy's ComplexWarning would escape instead
    with pytest.raises(PcmError, match="expected an array of numbers"):
        reader(x)


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
@pytest.mark.parametrize("x", [
    np.array([[0, 1j], [-1j, 0]], dtype=object),
    np.array([[0, np.complex128(1j)], [np.complex128(-1j), 0]], dtype=object),
], ids=["python", "scalars"])
def test_complex_numbers_held_as_objects_are_a_pcm_error(reader, x):
    # an object array is read by what it holds; numpy's own float reading drops the imaginary part
    with pytest.raises(PcmError, match="complex values are not real numbers"):
        reader(x)


@pytest.mark.parametrize("x", [
    np.array([[Fraction(0), Fraction(1, 3)], [Fraction(-1, 3), Fraction(0)]], dtype=object),
    np.array([[0.0, 1.5], [-1.5, 0.0]], dtype=object),
], ids=["fractions", "floats"])
def test_real_numbers_held_as_objects_read_as_floats(x):
    want = np.array(x, dtype=float)
    assert validate_additive(x).values.tobytes() == want.tobytes()
    assert additive_weights(x).tobytes() == np.mean(want, axis=1).tobytes()


@pytest.mark.parametrize("x", [
    [[0.0, 1.5], [-1.5, 0.0]],
    [[0, 3], [-3, 0]],
    [[0, 2**63], [-(2**63), 0]],
    [[0, 2**70], [-(2**70), 0]],
    [[False, True], [-1, 0]],
    [[0, np.float32(0.1)], [-np.float32(0.1), 0]],
    [["0", "2.5"], ["-2.5", "0"]],
    [[0, None], [None, 0]],
], ids=["floats", "ints", "uint64", "object-ints", "bools", "float32", "strings", "none"])
def test_a_list_reads_as_numpy_reads_it_with_dtype_float(x):
    # a list of plain numbers is read once, its dtype found first; the rest as before
    want = np.array(x, dtype=float)
    assert additive_weights(x).tobytes() == np.mean(want, axis=1).tobytes()
    assert np.float64(frobenius_norm(x)).tobytes() == np.float64(frobenius_norm(want)).tobytes()


def test_a_list_that_is_not_numbers_names_the_entry_as_written():
    with pytest.raises(PcmError, match="could not convert string to float: 'x'$"):
        additive_weights([["0", "x"], ["1", "0"]])


@pytest.mark.parametrize("x", [np.float64(1.0), np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1)),
                               [[0.0, 1.0]], np.zeros((2, 2, 2))],
                         ids=["0-d", "1-d", "2x3", "1x1", "list-1x2", "3-d"])
def test_additive_weights_names_a_shape_that_is_not_square(x):
    with pytest.raises(NotSquareError, match=re.escape(f"got shape {np.shape(x)}")):
        additive_weights(x)


def test_additive_weights_keep_the_bytes_of_the_row_means(rng):
    for n in (2, 5, 40, 300):
        a = random_antisymmetric(rng, n)
        want = np.mean(a, axis=1).tobytes()
        assert additive_weights(a).tobytes() == want
        assert additive_weights(a.tolist()).tobytes() == want
        assert additive_weights(AdditivePcm(a)).tobytes() == want


def test_an_additive_pcm_is_trusted_by_additive_weights():
    # no shape check: the type says it passed validate_additive
    assert additive_weights(AdditivePcm(np.array([[1.0, 2.0, 3.0]]))).tolist() == [2.0]


@pytest.mark.parametrize("n", [2.5, "5", None, 5.0])
def test_tie_space_dimension_names_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(PcmError, match=f"n = {n!r} must be an integer"):
        tie_space_dimension(n)


@pytest.mark.parametrize("n", [5, np.int64(5), np.array(5), True + 4])
def test_tie_space_dimension_reads_integers(n):
    assert tie_space_dimension(n) == 9


def _ranking_by_lexsort(weights, tol):
    """ranking_of's groups as computed when it sorted with np.lexsort."""
    w = np.asarray(weights, dtype=float)
    order = np.lexsort((np.arange(len(w)), -w))
    ws, ks = w[order], (order + 1).tolist()
    with np.errstate(invalid="ignore"):
        cuts = (np.flatnonzero(~(np.abs(ws[:-1] - ws[1:]) <= tol.ranking_tie)) + 1).tolist()
    groups = (ks[a:b] for a, b in zip([0, *cuts], [*cuts, len(ks)]) if a < b)
    return tuple(tuple(sorted(g)) for g in groups)


def test_ranking_matches_the_lexsort_with_nan_infinities_and_signed_zeros(rng):
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0 + 5e-10, -2.0, 3.0])
    tol = Tolerances()
    for size in [*range(0, 16), 300] * 40:
        w = rng.choice(values, size) if rng.random() < 0.7 else rng.normal(size=size)
        assert ranking_of(w, tol).groups == _ranking_by_lexsort(w, tol)
