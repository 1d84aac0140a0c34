"""Inputs of the wrong type get a PcmError, not numpy's TypeError,
ValueError or IndexError: a pair index or size that is not an integer,
and a matrix numpy cannot read as float64 numbers.  A MultiplicativePcm
given where additive values are expected is told to convert with
to_additive first."""

import numpy as np
import pytest

from pcmanip import (
    AdditivePcm,
    AlternativePair,
    abs_difference,
    additive_weights,
    emi,
    frobenius_distance,
    frobenius_norm,
    project_to_tie,
    scan_all_pairs,
    tie_gap,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from pcmanip.errors import PcmError

from refdata import EXAMPLE_A

PAIR = AlternativePair(1, 2, 5)


@pytest.mark.parametrize("i, j, n, bad", [
    (1.5, 3, 3, "i = 1.5"),
    (1, 2, 3.0, "n = 3.0"),
    (1, np.float64(2.0), 3, "j = "),
    ("1", 2, 3, "i = '1'"),
    (None, 2, 3, "i = None"),
])
def test_a_pair_rejects_indices_that_are_not_integers(i, j, n, bad):
    with pytest.raises(PcmError, match="must be an integer") as info:
        AlternativePair(i, j, n)
    assert bad in str(info.value)


def test_a_non_integral_pair_never_reaches_numpy_indexing():
    with pytest.raises(PcmError, match="i = 1.5"):
        project_to_tie(EXAMPLE_A, AlternativePair(1.5, 3, 3))


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, int])
def test_a_pair_accepts_numpy_integers(integer):
    pair = AlternativePair(integer(4), integer(2), integer(5))
    assert (pair.i, pair.j, pair.n) == (2, 4, 5)
    assert pair == AlternativePair(2, 4, 5)
    assert tie_gap(EXAMPLE_A, pair) == tie_gap(EXAMPLE_A, AlternativePair(2, 4, 5))


ADDITIVE_ENTRY_POINTS = {
    "scan_all_pairs": scan_all_pairs,
    "project_to_tie": lambda m: project_to_tie(m, PAIR),
    "additive_weights": additive_weights,
    "tie_gap": lambda m: tie_gap(m, PAIR),
    "to_multiplicative": to_multiplicative,
    "validate_additive": validate_additive,
    "frobenius_norm": frobenius_norm,
    "emi": lambda m: emi(m, EXAMPLE_A),
    "frobenius_distance": lambda m: frobenius_distance(EXAMPLE_A, m),
    "abs_difference": lambda m: abs_difference(m, EXAMPLE_A),
}


@pytest.mark.parametrize("call", ADDITIVE_ENTRY_POINTS)
def test_a_multiplicative_pcm_is_sent_to_to_additive(call):
    m = to_multiplicative(AdditivePcm(EXAMPLE_A))
    with pytest.raises(PcmError, match="MultiplicativePcm: .*to_additive first"):
        ADDITIVE_ENTRY_POINTS[call](m)
    ADDITIVE_ENTRY_POINTS[call](to_additive(m).values)  # the conversion it names is accepted


NOT_NUMBERS = {
    "strings": [["a", "b"], ["c", "d"]],
    "ragged": [[0.0, 1.0], [-1.0]],
    "beyond float": [[0, 10 ** 400], [-(10 ** 400), 0]],
    "objects": [[object(), 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize("matrix", NOT_NUMBERS)
@pytest.mark.parametrize("call", [validate_additive, validate_multiplicative, additive_weights,
                                  frobenius_norm, scan_all_pairs])
def test_a_matrix_that_is_not_numbers_is_a_pcm_error(call, matrix):
    with pytest.raises(PcmError, match="expected an array of numbers, got list"):
        call(NOT_NUMBERS[matrix])
