import numpy as np
import pytest

from pcmanip import (
    AlternativePair,
    is_tie_equating,
    tie_gap,
    tie_space_dimension,
)
from pcmanip.errors import PcmError

from refdata import (
    EXAMPLE_A,
    EXAMPLE_A_PROJECTED,
    EXAMPLE_BASIS,
    EXAMPLE_BASIS_LABELS,
    EXAMPLE_PAIR,
    random_antisymmetric,
)
from reference import (
    PairRequiresRelabelingError,
    ParamOutOfRangeError,
    generator_matrix,
    tie_basis,
    tie_labels,
    z_set,
)


def canonical_pairs(n):
    """All pairs with i < j < n, as required by the basis construction."""
    return [
        AlternativePair(i, j, n)
        for i in range(1, n)
        for j in range(i + 1, n)
    ]


class TestAlternativePair:
    def test_canonicalizes_order(self):
        p = AlternativePair(3, 2, 5)
        assert (p.i, p.j) == (2, 3)

    def test_rejects_equal_indices(self):
        with pytest.raises(PcmError):
            AlternativePair(2, 2, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(PcmError):
            AlternativePair(0, 2, 5)
        with pytest.raises(PcmError):
            AlternativePair(1, 6, 5)


class TestZSet:
    def test_reference_case(self):
        assert z_set(EXAMPLE_PAIR) == ((1, 4), (1, 5), (4, 5))

    def test_empty_for_n3(self):
        for pair in canonical_pairs(3):
            assert z_set(pair) == ()

    def test_n6_first_pair(self):
        zs = z_set(AlternativePair(1, 2, 6))
        assert zs == ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6))

    def test_cardinality_formula(self):
        for n in range(3, 13):
            for pair in canonical_pairs(n):
                assert len(z_set(pair)) == (n - 2) * (n - 3) // 2


class TestGeneratorMatrix:
    def test_c_generator(self):
        got = generator_matrix("C", (1, 4), EXAMPLE_PAIR)
        assert np.array_equal(got, EXAMPLE_BASIS[0])

    def test_e_special_case(self):
        got = generator_matrix("E", 2, EXAMPLE_PAIR)
        assert np.array_equal(got, EXAMPLE_BASIS[5])
        assert got[1, 2] == 1 and got[2, 4] == 2

    def test_g_generator(self):
        got = generator_matrix("G", 4, EXAMPLE_PAIR)
        assert np.array_equal(got, EXAMPLE_BASIS[8])

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("C", (2, 4), EXAMPLE_PAIR)  # touches the pair
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("D", 2, EXAMPLE_PAIR)  # needs p < i = 2
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("E", 3, EXAMPLE_PAIR)  # needs p < j = 3
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("F", 3, EXAMPLE_PAIR)  # p = j forbidden
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("G", 5, EXAMPLE_PAIR)  # needs p <= n-1
        with pytest.raises(ParamOutOfRangeError):
            generator_matrix("X", 1, EXAMPLE_PAIR)

    def test_last_index_pair_is_signalled(self):
        with pytest.raises(PairRequiresRelabelingError):
            generator_matrix("C", (1, 2), AlternativePair(3, 5, 5))


class TestTieBasis:
    def test_reference_basis(self):
        basis = tie_basis(EXAMPLE_PAIR)
        assert len(basis) == 9
        assert list(tie_labels(EXAMPLE_PAIR)) == EXAMPLE_BASIS_LABELS
        for got, expected in zip(basis, EXAMPLE_BASIS):
            assert np.array_equal(got, expected)

    def test_n3_basis(self):
        basis = tie_basis(AlternativePair(1, 2, 3))
        assert list(tie_labels(AlternativePair(1, 2, 3))) == [("E", (1,)), ("F", (3,))]
        # E^1 hits the special doubled case because p = i
        assert basis[0][1, 2] == 2

    def test_n4_basis(self):
        assert tie_basis(AlternativePair(1, 2, 4)).shape == (5, 4, 4)
        assert list(tie_labels(AlternativePair(1, 2, 4))) == [
            ("C", (3, 4)), ("E", (1,)), ("F", (3,)), ("F", (4,)), ("G", (3,)),
        ]

    def test_last_index_pair_is_signalled(self):
        with pytest.raises(PairRequiresRelabelingError):
            tie_basis(AlternativePair(2, 5, 5))

    def test_basis_equals_generator_matrix_per_label(self):
        for n in range(3, 11):
            for pair in canonical_pairs(n):
                basis, labels = tie_basis(pair), tie_labels(pair)
                assert len(basis) == len(labels) == tie_space_dimension(n)
                for (kind, params), b in zip(labels, basis):
                    g = generator_matrix(kind, params, pair)
                    assert (b.dtype, b.shape, b.tobytes()) == (g.dtype, g.shape, g.tobytes())

    def test_dimension(self):
        assert tie_space_dimension(5) == 9
        assert tie_space_dimension(2) == 0
        assert tie_space_dimension(3) == 2
        with pytest.raises(PcmError):
            tie_space_dimension(1)

    def test_basis_invariants_small_n(self):
        for n in range(3, 9):
            for pair in canonical_pairs(n):
                basis = tie_basis(pair)
                assert len(basis) == tie_space_dimension(n)
                flat = basis.reshape(len(basis), -1)
                gram = flat @ flat.T
                assert abs(np.linalg.det(gram)) > 1e-9  # linear independence
                for (kind, params), b in zip(tie_labels(pair), basis):
                    assert np.array_equal(b, -b.T)
                    assert is_tie_equating(b, pair, tol=1e-12)
                    entries = set(np.unique(b))
                    assert entries <= {-2.0, -1.0, 0.0, 1.0, 2.0}
                    if 2.0 in entries or -2.0 in entries:
                        assert kind == "E" and params == (pair.i,)


class TestReconstruction:
    """Coordinates of a tie-space member can be read off its entries:
    C^{qr} at (q,r), D^p at (p,i), E^p at (p,j), F^p at (i,p), G^p at (j,p)."""

    def _read_position(self, label, pair):
        kind, params = label
        if kind == "C":
            q, r = params
            return q, r
        (p,) = params
        return {
            "D": (p, pair.i),
            "E": (p, pair.j),
            "F": (pair.i, p),
            "G": (pair.j, p),
        }[kind]

    def test_round_trip(self, rng):
        for n in range(3, 8):
            for pair in canonical_pairs(n):
                basis = tie_basis(pair)
                coeffs = rng.uniform(-5, 5, size=len(basis))
                a = sum(c * b for c, b in zip(coeffs, basis))
                read = np.array([
                    a[q - 1, r - 1]
                    for q, r in (self._read_position(lb, pair) for lb in tie_labels(pair))
                ])
                assert np.allclose(read, coeffs, atol=1e-12)


class TestIsTieEquating:
    def test_projected_example_is_tied(self):
        assert is_tie_equating(EXAMPLE_A_PROJECTED, EXAMPLE_PAIR)

    def test_zero_matrix_is_tied(self):
        assert is_tie_equating(np.zeros((4, 4)), AlternativePair(1, 3, 4))

    def test_example_is_not_tied(self):
        assert not is_tie_equating(EXAMPLE_A, EXAMPLE_PAIR)
        assert tie_gap(EXAMPLE_A, EXAMPLE_PAIR) == pytest.approx(15.0)

    def test_works_for_last_index_pair(self):
        assert is_tie_equating(np.zeros((5, 5)), AlternativePair(3, 5, 5))

    def test_random_members_are_tied(self, rng):
        pair = AlternativePair(1, 4, 6)
        basis = tie_basis(pair)
        for _ in range(10):
            coeffs = rng.uniform(-5, 5, size=len(basis))
            a = sum(c * b for c, b in zip(coeffs, basis))
            assert is_tie_equating(a, pair, tol=1e-12)

    def test_random_matrices_are_generally_not_tied(self, rng):
        pair = AlternativePair(2, 4, 6)
        hits = sum(
            is_tie_equating(random_antisymmetric(rng, 6), pair) for _ in range(20)
        )
        assert hits == 0
