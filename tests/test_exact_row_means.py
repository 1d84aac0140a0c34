"""additive_weights against the exact row means (``exact.py``): within half an ulp on the
golden inputs, within a measured bound on random matrices, and within the bound that holds
for any order of summation on matrices of mixed magnitudes.  Every check runs on the C, F,
transposed-view and strided copies of each matrix, which must give one answer."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcmanip import additive_weights
from pcmanip.cli import parse_matrix_file

from exact import exact_row_means, exact_sum, ulps
from refdata import random_antisymmetric
from strategies import EXACT_LAYOUTS, mixed_antisymmetric

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
U = Fraction(2) ** -53  # the unit roundoff of float64
# the worst error measured on the random matrices below is 0.44 of 2 * 2**-52 * sum_l |a_kl| / n
RANDOM_BOUND = 2 * Fraction(2) ** -52
DRAWS = 300


def weights_in_every_layout(a) -> list:
    """additive_weights(a), after checking that every exact layout of a gives its bytes."""
    got = {name: additive_weights(layout(a)) for name, layout in EXACT_LAYOUTS.items()}
    assert len({w.tobytes() for w in got.values()}) == 1, got
    return got["C"].tolist()


def worst_error(a, bound) -> Fraction:
    """The largest |weight - exact mean| over the rows of a, in units of bound(n) * sum_l |a_kl|
    / n, plus half the smallest subnormal, the most a quotient can lose to underflow."""
    n = a.shape[0]
    worst = Fraction(0)
    for got, exact, row in zip(weights_in_every_layout(a), exact_row_means(a), a.tolist()):
        scale = bound(n) * exact_sum(map(abs, row)) / n + Fraction(2) ** -1075
        worst = max(worst, abs(Fraction(got) - exact) / scale)
    return worst


def _draw(seed: int):
    rng = np.random.default_rng(seed)
    return rng, int(rng.integers(2, 81))


@pytest.mark.parametrize("name", ["example.csv", "named.json"])
def test_golden_inputs_are_correctly_rounded(name):
    a = parse_matrix_file(str(GOLDEN_INPUTS / name), default_scale="additive").matrix
    for k, (got, exact) in enumerate(zip(weights_in_every_layout(a), exact_row_means(a))):
        assert ulps(got, exact) <= Fraction(1, 2), (k, got, exact)


def test_random_matrices_are_within_the_measured_bound():
    for seed in range(DRAWS):
        rng, n = _draw(seed)
        a = random_antisymmetric(rng, n, (1e-3, 1.0, 1e4)[seed % 3])
        assert worst_error(a, lambda n: RANDOM_BOUND) <= 1, (seed, n)


def test_mixed_magnitudes_are_within_the_summation_bound():
    """Entries from 10^-12 to 1 times a scale, and +-0.0: here the measured bound above does
    not hold (the worst of these draws reads 1.05 of it), but gamma_n = n u / (1 - n u) does
    (0.27 of it at worst), as it must for any order of the n - 1 additions and the division."""
    for seed in range(DRAWS):
        rng, n = _draw(seed)
        a = mixed_antisymmetric(rng, n, 10.0 ** int(rng.integers(-300, 301)))
        assert worst_error(a, lambda n: n * U / (1 - n * U)) <= 1, (seed, n)
