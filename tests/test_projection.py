import numpy as np
import pytest

from pcmanip import (
    AlternativePair,
    additive_weights,
    basis_projection,
    frobenius_distance,
    frobenius_norm,
    gram_schmidt,
    hyperplane_oracle_project,
    project_to_tie,
    projection_coefficients,
    relabel_pair,
    tie_basis,
    tie_gap,
)
from pcmanip.errors import DegenerateBasisError, DimensionMismatchError, PcmError
from pcmanip.projection import orthogonal_basis_for, tie_normal_matrix

from refdata import (
    EXAMPLE_A,
    EXAMPLE_A_PROJECTED,
    EXAMPLE_BASIS,
    EXAMPLE_COEFFICIENTS,
    EXAMPLE_INNER_PRODUCTS,
    EXAMPLE_ORTHOGONAL,
    EXAMPLE_PAIR,
    EXAMPLE_SQUARED_NORMS,
    EXAMPLE_WEIGHTS_PROJECTED,
    all_pairs,
    random_antisymmetric,
)


def constrained_lstsq_project(a: np.ndarray, pair: AlternativePair) -> np.ndarray:
    """Generic equality-constrained least squares over the upper
    triangle: minimize the change of the free coordinates subject to
    the single linear tie constraint, solved via the KKT system."""
    n = pair.n
    idx = [(q, r) for q in range(n) for r in range(q + 1, n)]
    b = np.array([a[q, r] for q, r in idx])
    i, j = pair.i - 1, pair.j - 1
    c = np.array([
        (q == i) - (r == i) - (q == j) + (r == j) for q, r in idx
    ], dtype=float)
    m = len(idx)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2 * np.eye(m)
    kkt[:m, m] = c
    kkt[m, :m] = c
    rhs = np.concatenate([2 * b, [0.0]])
    x = np.linalg.solve(kkt, rhs)[:m]
    out = np.zeros((n, n))
    for (q, r), v in zip(idx, x):
        out[q, r] = v
        out[r, q] = -v
    return out


class TestGramSchmidt:
    def test_reference_orthogonal_basis(self):
        orthogonal, squared_norms = gram_schmidt(tie_basis(EXAMPLE_PAIR))
        assert orthogonal.shape == (9, 5, 5)
        for got, expected in zip(orthogonal, EXAMPLE_ORTHOGONAL):
            assert np.allclose(got, expected, atol=1e-9)
        assert np.allclose(squared_norms, EXAMPLE_SQUARED_NORMS, atol=1e-9)

    def test_orthogonal_input_is_unchanged(self):
        # the first four reference basis matrices are already mutually
        # orthogonal
        basis = tuple(EXAMPLE_BASIS[:4])
        orthogonal, _ = gram_schmidt(basis)
        for got, src in zip(orthogonal, basis):
            assert np.allclose(got, src, atol=1e-12)

    def test_degenerate_input_is_rejected(self):
        basis = (EXAMPLE_BASIS[0], EXAMPLE_BASIS[0])
        with pytest.raises(DegenerateBasisError):
            gram_schmidt(basis)

    def test_integer_generators_are_read_as_float64(self):
        basis = tie_basis(AlternativePair(2, 3, 5))
        exact, ints = gram_schmidt(basis), gram_schmidt(basis.astype(np.int64))
        assert ints[0].dtype == ints[1].dtype == np.float64
        assert ints[0].tobytes() == exact[0].tobytes()
        assert ints[1].tobytes() == exact[1].tobytes()

    def test_pairwise_orthogonality_small_n(self):
        for n in range(3, 9):
            for i in range(1, n):
                for j in range(i + 1, n):
                    flat = orthogonal_basis_for(n, i, j)[0].reshape(-1, n * n)
                    gram = flat @ flat.T
                    off = gram - np.diag(np.diag(gram))
                    assert np.max(np.abs(off)) < 1e-9

    def test_span_is_preserved(self, rng):
        basis = tie_basis(EXAMPLE_PAIR)
        h = gram_schmidt(basis)
        for b in basis:
            coeffs = projection_coefficients(b, h)
            assert np.allclose((coeffs @ h[0].reshape(9, 25)).reshape(5, 5), b, atol=1e-9)


class TestProjectionCoefficients:
    def test_reference_table(self):
        h = orthogonal_basis_for(5, 2, 3)
        inner = h[0].reshape(9, 25) @ EXAMPLE_A.ravel()
        assert np.allclose(inner, EXAMPLE_INNER_PRODUCTS, atol=1e-9)
        assert np.allclose(h[1], EXAMPLE_SQUARED_NORMS, atol=1e-9)
        coeffs = projection_coefficients(EXAMPLE_A, h)
        assert np.allclose(coeffs, EXAMPLE_COEFFICIENTS, atol=1e-9)
        # truncated decimal forms of the published table
        printed = [0, 4, -8, 2, -3.33333, -3.71429, 1.875, -8.11111, 5.5]
        assert np.allclose(coeffs, printed, atol=1e-3)

    def test_zero_matrix(self):
        h = orthogonal_basis_for(5, 2, 3)
        assert np.allclose(projection_coefficients(np.zeros((5, 5)), h), 0.0)

    def test_basis_element_has_unit_coordinate(self):
        h = orthogonal_basis_for(5, 2, 3)
        coeffs = projection_coefficients(h[0][1], h)
        expected = np.zeros(9)
        expected[1] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        h = orthogonal_basis_for(5, 2, 3)
        with pytest.raises(DimensionMismatchError):
            projection_coefficients(np.zeros((4, 4)), h)


class TestProjectToTie:
    def test_reference_projection(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        assert np.allclose(result.projected.values, EXAMPLE_A_PROJECTED, atol=1e-9)
        assert np.allclose(
            additive_weights(result.projected), EXAMPLE_WEIGHTS_PROJECTED, atol=1e-9
        )
        assert result.distance == pytest.approx(
            frobenius_distance(EXAMPLE_A, EXAMPLE_A_PROJECTED), abs=1e-12
        )

    def test_fixes_tie_space_members(self, rng):
        basis = tie_basis(EXAMPLE_PAIR)
        coeffs = rng.uniform(-5, 5, size=len(basis))
        a = sum(c * b for c, b in zip(coeffs, basis))
        result = project_to_tie(a, EXAMPLE_PAIR)
        assert np.allclose(result.projected.values, a, atol=1e-9)
        assert result.distance < 1e-9

    def test_idempotent(self, rng):
        a = random_antisymmetric(rng, 6)
        pair = AlternativePair(2, 5, 6)
        once = project_to_tie(a, pair).projected
        twice = project_to_tie(once, pair).projected
        assert np.allclose(once.values, twice.values, atol=1e-9)

    def test_projected_is_antisymmetric(self, rng):
        a = random_antisymmetric(rng, 7)
        for pair in all_pairs(7):
            p = project_to_tie(a, pair).projected.values
            assert np.max(np.abs(p + p.T)) < 1e-12

    def test_weight_preservation(self, rng):
        for n in range(3, 9):
            a = random_antisymmetric(rng, n)
            w = additive_weights(a)
            for pair in all_pairs(n):
                w2 = additive_weights(project_to_tie(a, pair).projected)
                i, j = pair.i - 1, pair.j - 1
                for k in range(n):
                    if k in (i, j):
                        continue
                    assert w2[k] == pytest.approx(w[k], abs=1e-9)
                assert w2[i] == pytest.approx(w2[j], abs=1e-9)
                assert w2[i] == pytest.approx((w[i] + w[j]) / 2, abs=1e-9)

    def test_pythagoras(self, rng):
        a = random_antisymmetric(rng, 6)
        for pair in all_pairs(6):
            result = project_to_tie(a, pair)
            assert frobenius_norm(a) ** 2 == pytest.approx(
                frobenius_norm(result.projected) ** 2 + result.distance ** 2,
                abs=1e-8,
            )

    def test_minimality_sampling(self, rng):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        h = orthogonal_basis_for(5, 2, 3)
        samples = rng.uniform(-10, 10, size=(1000, 9))
        candidates = samples @ h[0].reshape(9, 25)
        dists = np.linalg.norm(candidates - EXAMPLE_A.ravel(), axis=1)
        assert np.all(dists >= result.distance - 1e-9)

    def test_n2_projects_to_zero(self):
        a = np.array([[0.0, 3.0], [-3.0, 0.0]])
        result = project_to_tie(a, AlternativePair(1, 2, 2))
        assert np.array_equal(result.projected.values, np.zeros((2, 2)))
        assert result.coefficients.size == 0
        assert result.distance == pytest.approx(np.sqrt(18))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project_to_tie(np.zeros((4, 4)), AlternativePair(1, 2, 5))


class TestHyperplaneOracle:
    def test_reference_case(self):
        assert tie_gap(EXAMPLE_A, EXAMPLE_PAIR) == pytest.approx(15.0)
        got = hyperplane_oracle_project(EXAMPLE_A, EXAMPLE_PAIR)
        assert np.allclose(got.values, EXAMPLE_A_PROJECTED, atol=1e-12)
        # spot check the pair entry: 2 - 3 * 1
        assert got.values[1, 2] == pytest.approx(-1.0)

    def test_normal_matrix_norm(self):
        for n in range(3, 9):
            for pair in all_pairs(n):
                normal = tie_normal_matrix(pair)
                assert np.sum(normal * normal) == pytest.approx(n)
                assert np.array_equal(normal, -normal.T)

    def test_tie_member_is_unchanged(self, rng):
        basis = tie_basis(EXAMPLE_PAIR)
        a = sum(c * b for c, b in zip(rng.uniform(-5, 5, size=9), basis))
        got = hyperplane_oracle_project(a, EXAMPLE_PAIR)
        assert np.allclose(got.values, a, atol=1e-12)

    def test_matches_gram_schmidt_route_all_pairs(self, rng):
        a = random_antisymmetric(rng, 5)
        for pair in all_pairs(5):
            via_basis = project_to_tie(a, pair).projected.values
            via_oracle = hyperplane_oracle_project(a, pair).values
            assert np.allclose(via_basis, via_oracle, atol=1e-9)

    def test_matches_constrained_lstsq(self, rng):
        for n in range(3, 8):
            a = random_antisymmetric(rng, n)
            for pair in all_pairs(n):
                via_lstsq = constrained_lstsq_project(a, pair)
                via_oracle = hyperplane_oracle_project(a, pair).values
                assert np.allclose(via_lstsq, via_oracle, atol=1e-9)


class TestRelabelPair:
    def test_canonical_pair_is_identity(self):
        values, pair, rel = relabel_pair(EXAMPLE_A, EXAMPLE_PAIR)
        assert rel == list(range(5))
        assert (pair.i, pair.j) == (2, 3)
        assert np.array_equal(values, EXAMPLE_A)

    def test_last_index_is_swapped_out(self):
        _, pair, rel = relabel_pair(np.zeros((5, 5)), AlternativePair(3, 5, 5))
        assert (pair.i, pair.j) == (3, 4)
        assert rel != list(range(5))

    def test_reversed_pair_is_canonicalized(self):
        _, pair, _ = relabel_pair(np.zeros((5, 5)), AlternativePair(5, 2, 5))
        assert pair.j < 5

    def test_avoid_collision_with_pair_member(self):
        _, pair, _ = relabel_pair(np.zeros((5, 5)), AlternativePair(4, 5, 5))
        assert (pair.i, pair.j) == (3, 4)

    def test_n2_has_no_index_to_swap_with(self):
        with pytest.raises(PcmError, match=r"n = 2 has no index outside the pair"):
            relabel_pair(np.zeros((2, 2)), AlternativePair(1, 2, 2))

    def test_conjugation_round_trip(self, rng):
        a = random_antisymmetric(rng, 6)
        values, _, rel = relabel_pair(a, AlternativePair(2, 6, 6))
        assert np.allclose(values[np.ix_(rel, rel)], a)

    def test_projection_commutes_with_conjugation(self, rng):
        # j = n pairs go through relabeling inside project_to_tie; the
        # oracle needs no relabeling, so agreement exercises
        # equivariance
        for n in range(3, 8):
            a = random_antisymmetric(rng, n)
            for i in range(1, n):
                pair = AlternativePair(i, n, n)
                via_basis = project_to_tie(a, pair).projected.values
                via_oracle = hyperplane_oracle_project(a, pair).values
                assert np.allclose(via_basis, via_oracle, atol=1e-9)


class TestResultIndependence:
    def test_result_does_not_alias_the_input(self, rng):
        a = random_antisymmetric(rng, 6)
        pair = AlternativePair(2, 6, 6)
        result = project_to_tie(a, pair)
        assert result.original.values is not a
        before = (a.copy(), result.projected.values.copy(), result.distance)
        a[1, 3] += 100.0
        a[3, 1] -= 100.0
        assert np.array_equal(result.original.values, before[0])
        assert np.array_equal(result.projected.values, before[1])
        assert result.distance == before[2]
        assert np.allclose(result.coefficients,
                           project_to_tie(before[0], pair).coefficients, atol=0)

    def test_cached_basis_is_read_only(self, rng):
        """Every caller shares one cached basis, so none may write to it; the basis that
        gram_schmidt returns itself stays the caller's."""
        orthogonal, squared_norms = orthogonal_basis_for(6, 2, 4)
        for array in (orthogonal, squared_norms, orthogonal[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        assert all(x.flags.writeable for x in gram_schmidt(tie_basis(AlternativePair(2, 4, 6))))
        a = random_antisymmetric(rng, 6)
        for pair in (AlternativePair(2, 4, 6), AlternativePair(4, 6, 6)):  # (4, 6) uses (4, 5)
            assert np.allclose(basis_projection(a, pair),
                               hyperplane_oracle_project(a, pair).values, atol=1e-12)

    def test_cache_does_not_accept_a_float_n(self):
        """lru_cache keys 5.0 and 5 alike unless typed, so a cached (5, 2, 3) basis would
        answer n = 5.0, which AlternativePair rejects while the cache is empty."""
        orthogonal_basis_for.cache_clear()
        with pytest.raises(PcmError, match="must be an integer"):
            orthogonal_basis_for(5.0, 2, 3)
        orthogonal_basis_for(5, 2, 3)
        with pytest.raises(PcmError, match="must be an integer"):
            orthogonal_basis_for(5.0, 2, 3)
