"""The projection's coefficients against exact rational Gram-Schmidt (``exact.py``): within
half an ulp on the golden inputs, within a measured bound on random matrices, and within
2**-52 * max|a| where a product of the entries overflows but every coefficient fits."""

import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcmanip import project_to_tie
from pcmanip.cli import parse_matrix_file

from exact import exact_coefficients, ulps
from refdata import all_pairs, random_antisymmetric
from test_generator_rule import OVERFLOW_MATRIX

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the C-block overflow matrix of test_tie_coefficients.py: every row sum and gap is finite
C_OVERFLOW_MATRIX = np.array([[0, 1, 1e308, -1e308],
                              [-1, 0, 2, 3],
                              [-1e308, -2, 0, 1e308],
                              [1e308, -3, -1e308, 0]])
# the worst error measured on the random matrices below is 2.25 * 2**-52 * max|a|; the
# Gram-Schmidt route that served requests before the closed form read 3.11
RANDOM_BOUND = 2.5


def error_in_eps(a, pair):
    """The largest |coefficient - exact| over the pair, in units of 2**-52 * max|a|."""
    got = project_to_tie(a, pair).coefficients
    exact = exact_coefficients(a, pair)
    assert got.shape == (len(exact),)
    scale = Fraction(float(np.abs(a).max())) * Fraction(2) ** -52
    return max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact)) / scale


@pytest.mark.parametrize("name", ["example.csv", "named.json"])
def test_golden_inputs_are_correctly_rounded(name):
    a = parse_matrix_file(str(GOLDEN_INPUTS / name), default_scale="additive").matrix
    for pair in all_pairs(len(a)):
        got = project_to_tie(a, pair).coefficients
        for k, (g, e) in enumerate(zip(got, exact_coefficients(a, pair))):
            assert ulps(float(g), e) <= Fraction(1, 2), (pair, k, g, e)


@pytest.mark.parametrize("n", range(3, 13))
def test_random_matrices_are_within_the_measured_bound(n):
    a = random_antisymmetric(np.random.default_rng(1000 + n), n, (1e-3, 1.0, 1e4)[n % 3])
    for pair in all_pairs(n):  # j = n included
        assert error_in_eps(a, pair) <= RANDOM_BOUND, pair


@pytest.mark.parametrize("a", [OVERFLOW_MATRIX, C_OVERFLOW_MATRIX], ids=["d-to-g", "c"])
def test_overflow_matrices_are_finite_and_within_one_eps(a):
    for pair in all_pairs(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(project_to_tie(a, pair).coefficients).all()
            assert error_in_eps(a, pair) <= 1, pair
