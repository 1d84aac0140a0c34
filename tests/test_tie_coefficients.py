"""The projection's coefficients along the paper's orthogonal tie basis,
read off the pair's rows and columns, against the dense reference route."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmanip import AlternativePair, project_to_tie, relabel_pair
from pcmanip.cli import parse_matrix_file

from refdata import all_pairs, random_antisymmetric
from reference import orthogonal_basis_for, projection_coefficients, z_set

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def dense_reference(a, pair):
    work, work_pair, _ = relabel_pair(a, pair)
    return projection_coefficients(work, orthogonal_basis_for(pair.n, work_pair.i, work_pair.j))


def assert_matches_reference(a, pair):
    got, want = project_to_tie(a, pair).coefficients, dense_reference(a, pair)
    assert got.shape == want.shape == ((pair.n * pair.n - pair.n) // 2 - 1,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max()))


@pytest.mark.parametrize("n", range(3, 13))
def test_every_pair_matches_the_dense_reference(rng, n):
    for scale in (1e-3, 10.0, 1e4):
        a = random_antisymmetric(rng, n, scale)
        for pair in all_pairs(n):
            assert_matches_reference(a, pair)


@pytest.mark.parametrize("name", ["example.csv", "named.json"])
def test_golden_inputs_match_the_dense_reference(name):
    a = parse_matrix_file(str(GOLDEN_INPUTS / name), default_scale="additive").matrix
    for pair in all_pairs(len(a)):
        assert_matches_reference(a, pair)


@pytest.mark.parametrize("pair", [(37, 141), (2, 200)], ids=["interior", "j=n"])
def test_request_route_builds_no_vector_of_length_n_squared(rng, pair):
    n = 200
    a = random_antisymmetric(rng, n)
    pair = AlternativePair(*pair, n)
    coefficients = project_to_tie(a, pair).coefficients
    assert coefficients.shape == (n * (n - 1) // 2 - 1,)
    assert np.isfinite(coefficients).all()
    work, work_pair, _ = relabel_pair(a, pair)
    q, r = (np.array(z_set(work_pair)) - 1).T
    c_block = (work[q, r] - work[r, q]) / 2
    assert coefficients[:len(c_block)].tobytes() == c_block.tobytes()


def test_c_block_does_not_overflow_where_the_coefficient_fits():
    # valid: every row sum and every gap between two is finite
    a = np.array([[0, 1, 1e308, -1e308],
                  [-1, 0, 2, 3],
                  [-1e308, -2, 0, 1e308],
                  [1e308, -3, -1e308, 0]])
    coefficients = project_to_tie(a, AlternativePair(1, 2, 4)).coefficients  # warnings are errors
    assert coefficients[0] == 1e308
    exact = [1e308, 1.4, 8.333333333333334e307, -1e308, 1.625]  # rational Gram-Schmidt
    np.testing.assert_allclose(coefficients, exact, rtol=0, atol=1e-12 * 1e308)


@st.composite
def matrix_and_pair(draw):
    n = draw(st.integers(3, 10))
    i = draw(st.integers(1, n))
    j = draw(st.sampled_from([n, *range(1, n)]).filter(lambda j: j != i))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return random_antisymmetric(np.random.default_rng(seed), n, scale), AlternativePair(i, j, n)


@given(matrix_and_pair())
@settings(max_examples=60, deadline=None)
def test_projection_keeps_its_coefficients(case):
    a, pair = case
    result = project_to_tie(a, pair)
    again = project_to_tie(result.projected.values, pair).coefficients
    np.testing.assert_allclose(again, result.coefficients, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(a).max()))
