"""One table for the tie space's D-G block: each label with the own index and
anchor factor s of its generator E(own) + s * E(j, n), built in basis order.
The coefficients read it directly; labels from outside are checked against
it.  Alongside: Gram-Schmidt's one update and the relabeling's one method."""

import numpy as np
import pytest

from pcmanip import AlternativePair, project_to_tie
from pcmanip.projection import relabel_pair
from pcmanip.tiespace import _pair_block

from refdata import all_pairs, random_antisymmetric
from reference import (
    DegenerateBasisError,
    ParamOutOfRangeError,
    _generator_entry,
    gram_schmidt,
    tie_basis,
)


def written_out_block(i, j, n):
    """The paper's D-G generators as a list of (label, own, s), in basis order."""
    return ([(("D", (p,)), (p, i), -1) for p in range(1, i)]
            + [(("E", (p,)), (p, j), 2 if p == i else 1) for p in range(1, j)]
            + [(("F", (p,)), (i, p), 1) for p in [*range(i + 1, j), *range(j + 1, n + 1)]]
            + [(("G", (p,)), (j, p), -1) for p in range(j + 1, n)])


def canonical_pairs(n):
    return [pair for pair in all_pairs(n) if pair.j < n]


@pytest.mark.parametrize("n", range(3, 13))
def test_the_block_is_the_written_out_table(n):
    for pair in canonical_pairs(n):
        block = _pair_block(pair)
        assert [(label, *entry) for label, entry in block.items()] == \
            written_out_block(pair.i, pair.j, n)
        assert len(block) == 2 * n - 4


@pytest.mark.parametrize("n", range(3, 9))
def test_labels_from_outside_are_looked_up_in_the_block(n):
    for pair in canonical_pairs(n):
        block = _pair_block(pair)
        for kind in "DEFG":
            for p in range(-1, n + 3):
                if (kind, (p,)) in block:
                    assert _generator_entry(kind, p, pair) == block[kind, (p,)]
                    assert _generator_entry(kind, (np.int64(p),), pair) == block[kind, (p,)]
                else:
                    with pytest.raises(ParamOutOfRangeError, match=f"parameter {p} out of range"):
                        _generator_entry(kind, p, pair)


@pytest.mark.parametrize("pair", [(37, 141), (2, 200), (1, 2)], ids=["interior", "j=n", "i=1"])
def test_coefficients_check_no_label(rng, pair):
    n = 200
    a = random_antisymmetric(rng, n)
    want = project_to_tie(a, AlternativePair(*pair, n)).coefficients.tobytes()
    assert project_to_tie(a, AlternativePair(*pair, n)).coefficients.tobytes() == want


def branched_gram_schmidt(basis):
    """Classical Gram-Schmidt with the first row taken as it is."""
    flat = np.stack([b.ravel() for b in basis])
    ortho, sq_norms = np.zeros_like(flat), np.zeros(len(flat))
    for k, v in enumerate(flat):
        if k:
            v = v - (ortho[:k] @ v / sq_norms[:k]) @ ortho[:k]
        ortho[k], sq_norms[k] = v, v @ v
    return ortho, sq_norms


@pytest.mark.parametrize("n", range(3, 9))
def test_gram_schmidt_gives_the_branched_bytes(n):
    for pair in canonical_pairs(n):
        orthogonal, squared_norms = gram_schmidt(tie_basis(pair))
        ortho, sq_norms = branched_gram_schmidt(tie_basis(pair))
        assert orthogonal.tobytes() == ortho.tobytes()
        assert squared_norms.tobytes() == sq_norms.tobytes()


def test_gram_schmidt_keeps_a_random_first_row(rng):
    rows = tuple(rng.normal(size=(4, 7)))
    orthogonal, squared_norms = gram_schmidt(rows)
    assert orthogonal.shape == (4, 7)
    assert orthogonal[0].tobytes() == rows[0].tobytes()
    assert squared_norms[0] == rows[0] @ rows[0]
    assert np.allclose(np.triu(orthogonal @ orthogonal.T, 1), 0, atol=1e-12)


@pytest.mark.parametrize("first", [0, 1], ids=["first-row", "second-row"])
def test_gram_schmidt_names_a_degenerate_row(first):
    rows = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    if first == 0:
        rows = [np.zeros(2), *rows]
    with pytest.raises(DegenerateBasisError, match=f"element {first + 1} has"):
        gram_schmidt(rows)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_relabeling_is_its_own_inverse(rng, n):
    for pair in all_pairs(n):
        a = random_antisymmetric(rng, n)
        work, _, perm = relabel_pair(a, pair)
        assert work[np.ix_(perm, perm)].tobytes() == a.tobytes()
        assert a[np.ix_(perm, perm)].tobytes() == work.tobytes()
        assert (perm == list(range(n))) == (pair.j < n)

