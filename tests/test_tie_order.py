"""The tie-space order as two blocks, C off the pair's rows and columns and
D-G on them; the coefficients read only the D-G block, and a generator's
parameters must be integers."""

import numpy as np
import pytest

from pcmanip import AlternativePair, project_to_tie

from refdata import all_pairs, random_antisymmetric
from reference import ParamOutOfRangeError, generator_matrix, tie_labels, z_set


def loop_z_set(i, j, n):
    """The Z set as a double loop over q < r, skipping the pair."""
    return tuple((q, r) for q in range(1, n + 1) for r in range(q + 1, n + 1)
                 if q not in (i, j) and r not in (i, j))


def range_labels(i, j, n):
    """The basis order written out: C, then D, E, F, G by ascending p."""
    return (*[("C", qr) for qr in loop_z_set(i, j, n)],
            *[("D", (p,)) for p in range(1, i)],
            *[("E", (p,)) for p in range(1, j)],
            *[("F", (p,)) for p in [*range(i + 1, j), *range(j + 1, n + 1)]],
            *[("G", (p,)) for p in range(j + 1, n)])


@pytest.mark.parametrize("n", range(3, 13))
def test_z_set_is_the_double_loop(n):
    for pair in all_pairs(n):
        assert z_set(pair) == loop_z_set(pair.i, pair.j, n)


@pytest.mark.parametrize("n", range(3, 13))
def test_tie_labels_are_the_written_out_order(n):
    for pair in all_pairs(n):
        if pair.j < n:
            assert tie_labels(pair) == range_labels(pair.i, pair.j, n)


@pytest.mark.parametrize("pair", [(37, 141), (2, 200)], ids=["interior", "j=n"])
def test_coefficients_build_no_c_label(rng, pair):
    n = 200
    a = random_antisymmetric(rng, n)
    want = project_to_tie(a, AlternativePair(*pair, n)).coefficients.tobytes()
    assert project_to_tie(a, AlternativePair(*pair, n)).coefficients.tobytes() == want


PAIR = AlternativePair(1, 3, 4)


@pytest.mark.parametrize("kind, params", [
    ("E", (2.9,)),  # was read as E(2)
    ("E", 2.9),
    ("C", (1.5, 4)),
    ("C", 3),
    ("C", (3, 4, 5)),
    ("C", (2,)),
    ("D", "a"),
    ("F", np.array([3])),
    ("F", (2, 4)),
    ("G", ()),
    ("G", None),
])
def test_non_integer_parameters_are_rejected(kind, params):
    with pytest.raises(ParamOutOfRangeError, match=f"parameter .* generator kind {kind}"):
        generator_matrix(kind, params, PAIR)


@pytest.mark.parametrize("params", [2, (2,), [2], np.int64(2), (np.int32(2),), np.array(2)])
def test_integer_parameters_keep_working(params):
    want = np.zeros((4, 4))
    want[1, 2], want[2, 3] = 1, 1  # E(2): own (2, 3) and the anchor (3, 4)
    assert np.array_equal(generator_matrix("E", params, PAIR), want - want.T)
