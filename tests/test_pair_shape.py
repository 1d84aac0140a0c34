"""A matrix passed with a pair must be pair.n x pair.n; every function that
takes both raises DimensionMismatchError, a PcmError, when it is not."""

import numpy as np
import pytest

from pcmanip import (
    AlternativePair,
    basis_projection,
    frobenius_distance,
    hyperplane_oracle_project,
    is_tie_equating,
    pair_report,
    project_to_tie,
    projection_coefficients,
    tie_gap,
    tip_pair,
    verify_manipulation,
)
from pcmanip.errors import DimensionMismatchError
from pcmanip.projection import orthogonal_basis_for, relabel_pair

from refdata import random_antisymmetric

FOUR = random_antisymmetric(np.random.default_rng(5), 4)


def _same_size(pair):
    return random_antisymmetric(np.random.default_rng(pair.n), pair.n)


CALLS = {
    "tie_gap": lambda a, pair: tie_gap(a, pair),
    "is_tie_equating": lambda a, pair: is_tie_equating(a, pair),
    "relabel_pair": lambda a, pair: relabel_pair(a, pair),
    "hyperplane_oracle_project": lambda a, pair: hyperplane_oracle_project(a, pair),
    "basis_projection": lambda a, pair: basis_projection(a, pair),
    "projection_coefficients":
        lambda a, pair: projection_coefficients(a, orthogonal_basis_for(pair.n, 1, 2)),
    "project_to_tie": lambda a, pair: project_to_tie(a, pair),
    "pair_report": lambda a, pair: pair_report(a, pair),
    "verify_manipulation(original)":
        lambda a, pair: verify_manipulation(a, _same_size(pair), pair, pair.i),
    "verify_manipulation(tipped)":
        lambda a, pair: verify_manipulation(_same_size(pair), a, pair, pair.i),
}

PAIRS = [AlternativePair(1, 2, 3), AlternativePair(2, 3, 3),
         AlternativePair(1, 2, 5), AlternativePair(3, 5, 5)]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"({p.i},{p.j})of{p.n}")
@pytest.mark.parametrize("name", CALLS)
def test_four_by_four_matrix_with_a_pair_of_another_size(name, pair):
    with pytest.raises(DimensionMismatchError):
        CALLS[name](FOUR, pair)


def test_bystanders_outside_a_small_pair_are_not_ignored():
    a = random_antisymmetric(np.random.default_rng(7), 5)
    pair = AlternativePair(1, 2, 5)
    tipped = tip_pair(project_to_tie(a, pair), winner=1).tipped.values.copy()
    tipped[3, 4] += 1.0
    tipped[4, 3] -= 1.0
    verdict = verify_manipulation(a, tipped, pair, 1)
    assert verdict.winner_leads and not verdict.others_preserved and not verdict.passed
    with pytest.raises(DimensionMismatchError):
        verify_manipulation(a, tipped, AlternativePair(1, 2, 3), 1)


def test_the_error_names_both_shapes():
    with pytest.raises(DimensionMismatchError, match=r"\(\) vs \(3, 3\)"):
        tie_gap(5.0, AlternativePair(1, 2, 3))
    with pytest.raises(DimensionMismatchError, match=r"\(4, 5\) vs \(4, 4\)"):
        frobenius_distance(np.zeros((4, 5)), np.zeros((4, 4)))
