import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmanip import (
    AdditivePcm,
    MultiplicativePcm,
    Ranking,
    Tolerances,
    additive_weights,
    frobenius_distance,
    gmm_weights,
    normalize_weights,
    ranking_of,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from pcmanip.errors import (
    AntisymmetryViolationError,
    DimensionMismatchError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NotSquareError,
    OverflowDomainError,
    PcmError,
    ReciprocityViolationError,
    RowSumOverflowError,
)

from refdata import (
    EXAMPLE_A,
    EXAMPLE_H5,
    EXAMPLE_H6,
    EXAMPLE_WEIGHTS,
    M,
    family_matrix,
    random_antisymmetric,
)
from reference import frobenius_inner


class TestValidateMultiplicative:
    def test_identity_is_valid(self):
        m = validate_multiplicative(np.ones((3, 3)))
        assert isinstance(m, MultiplicativePcm)
        assert m.n == 3

    def test_reciprocal_pair_is_valid(self):
        validate_multiplicative(M([[1, 2, 1], [0.5, 1, 1], [1, 1, 1]]))

    def test_broken_reciprocity_is_rejected(self):
        with pytest.raises(ReciprocityViolationError) as exc:
            validate_multiplicative(M([[1, 2, 1], [0.6, 1, 1], [1, 1, 1]]))
        assert (exc.value.i, exc.value.j) == (1, 2)

    def test_nonpositive_entry_is_rejected(self):
        with pytest.raises(NonPositiveEntryError):
            validate_multiplicative(M([[1, -2], [0.5, 1]]))

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_multiplicative(np.ones((2, 3)))
        with pytest.raises(NotSquareError):
            validate_multiplicative(np.ones((1, 1)))

    def test_diagonal_must_be_one(self):
        with pytest.raises(ReciprocityViolationError):
            validate_multiplicative(M([[1, 2], [0.5, 1.5]]))


class TestValidateAdditive:
    def test_zero_matrix_is_valid(self):
        a = validate_additive(np.zeros((4, 4)))
        assert a.n == 4

    def test_example_matrix_is_valid(self):
        validate_additive(EXAMPLE_A)

    def test_symmetric_pair_is_rejected(self):
        with pytest.raises(AntisymmetryViolationError) as exc:
            validate_additive(M([[0, 1], [1, 0]]))
        assert (exc.value.i, exc.value.j) == (1, 2)

    def test_nonzero_diagonal_is_rejected(self):
        with pytest.raises(AntisymmetryViolationError):
            validate_additive(M([[0.1, 1], [-1, 0]]))

    @pytest.mark.parametrize("values, location", [
        ([[0, 1e308, 1e308], [-1e308, 0, 1e308], [-1e308, -1e308, 0]], (1, 2)),
        ([[0, 5e307, -5e307], [-5e307, 0, -1e308], [5e307, 1e308, 0]], (2, 3)),
    ], ids=["row-sum", "gap"])
    def test_row_sums_beyond_float64_are_rejected(self, values, location):
        with pytest.raises(RowSumOverflowError) as exc:
            validate_additive(M(values))
        assert (exc.value.i, exc.value.j) == location


class TestConversion:
    def test_all_ones_maps_to_zero(self):
        a = to_additive(validate_multiplicative(np.ones((3, 3))))
        assert np.array_equal(a.values, np.zeros((3, 3)))

    def test_e_maps_to_one(self):
        m = validate_multiplicative(M([[1, np.e], [1 / np.e, 1]]))
        a = to_additive(m)
        assert a.values[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert a.values[1, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_maps_to_all_ones(self):
        m = to_multiplicative(AdditivePcm(np.zeros((3, 3))))
        assert np.array_equal(m.values, np.ones((3, 3)))

    def test_log2_entry(self):
        m = to_multiplicative(AdditivePcm(M([[0, np.log(2)], [-np.log(2), 0]])))
        assert m.values[0, 1] == pytest.approx(2.0, rel=1e-15)
        assert m.values[1, 0] == pytest.approx(0.5, rel=1e-15)

    def test_round_trip_from_additive(self):
        m = to_multiplicative(AdditivePcm(EXAMPLE_A))
        back = to_additive(validate_multiplicative(m.values, Tolerances(reciprocity=1e-6)))
        assert np.allclose(back.values, EXAMPLE_A, atol=1e-12)

    def test_round_trip_from_multiplicative(self, rng):
        a = random_antisymmetric(rng, 4, scale=2.0)
        m = validate_multiplicative(np.exp(a))
        again = to_multiplicative(to_additive(m))
        assert np.allclose(again.values, m.values, atol=1e-12)

    def test_overflow_is_reported(self):
        huge = M([[0, 1e4], [-1e4, 0]])
        with pytest.raises(OverflowDomainError):
            to_multiplicative(AdditivePcm(huge))

    @pytest.mark.parametrize("values, error", [
        ([[0, np.nan], [np.nan, 0]], NonFiniteEntryError),
        ([[0, 1], [1, 0]], AntisymmetryViolationError),
        ([[0, 1e308, 1e308], [-1e308, 0, 1e308], [-1e308, -1e308, 0]], RowSumOverflowError),
        ([[0, 1], [-1, 0], [0, 0]], NotSquareError),
    ], ids=["nan", "symmetric", "row-sum", "not-square"])
    def test_raw_arrays_are_validated_first(self, values, error):
        with pytest.raises(error):
            to_multiplicative(np.array(values, dtype=float))

    def test_raw_array_gives_the_same_bytes_as_a_validated_one(self):
        raw = to_multiplicative(EXAMPLE_A).values
        assert raw.tobytes() == to_multiplicative(AdditivePcm(EXAMPLE_A)).values.tobytes()
        with pytest.raises(OverflowDomainError):
            to_multiplicative(M([[0, 1e4], [-1e4, 0]]))

    def test_to_additive_passes_strict_validation(self, rng):
        a = random_antisymmetric(rng, 5, scale=3.0)
        m = validate_multiplicative(np.exp(a), Tolerances(reciprocity=1e-6))
        validate_additive(to_additive(m).values, Tolerances(reciprocity=1e-12))


class TestWeights:
    def test_gmm_of_ones(self):
        w = gmm_weights(validate_multiplicative(np.ones((3, 3))))
        assert np.allclose(w, [1, 1, 1])

    def test_gmm_two_by_two(self):
        w = gmm_weights(validate_multiplicative(M([[1, 4], [0.25, 1]])))
        assert np.allclose(w, [2, 0.5])

    def test_gmm_matches_additive_weights(self):
        m = to_multiplicative(AdditivePcm(EXAMPLE_A))
        assert np.allclose(gmm_weights(m), np.exp(EXAMPLE_WEIGHTS), rtol=1e-12)

    def test_additive_weights_of_example(self):
        assert np.allclose(additive_weights(EXAMPLE_A), EXAMPLE_WEIGHTS, atol=1e-12)

    def test_additive_weights_of_family(self):
        for k in range(1, 11):
            w = additive_weights(family_matrix(1 / k))
            assert np.allclose(w, [1 / (3 * k), -1 / (3 * k), 0], atol=1e-15)

    def test_additive_weights_of_zero(self):
        assert np.array_equal(additive_weights(np.zeros((4, 4))), np.zeros(4))

    def test_weight_consistency_invariant(self, rng):
        a = random_antisymmetric(rng, 6, scale=2.0)
        m = to_multiplicative(AdditivePcm(a))
        assert np.allclose(
            additive_weights(to_additive(m)), np.log(gmm_weights(m)), atol=1e-12
        )

    def test_normalize(self):
        assert np.allclose(normalize_weights([1, 1, 1]), [1 / 3] * 3)
        assert np.allclose(normalize_weights([2, 0.5]), [0.8, 0.2])
        assert np.allclose(normalize_weights([2, 3, 5]), [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("weights", [
        [1e308, 1e308], [1.7e308, 1.7e308, 1.7e308], [1e308, 1e308, 1.0, 5e-324],
    ])
    def test_normalize_survives_a_sum_beyond_float64(self, weights):
        w = np.array(weights)
        e = np.frexp(w.max())[1]
        scaled = np.ldexp(w, -e)  # 5e-324 underflows to 0 here, as its share does
        assert np.array_equal(normalize_weights(w), scaled / scaled.sum())
        assert np.isclose(normalize_weights(w).sum(), 1.0)

    def test_normalize_keeps_its_bits_when_the_sum_fits(self, rng):
        for w in [rng.random(7) + 0.1, rng.random(300) * 1e305, np.array([1e308, 7e307]),
                  np.array([])]:
            assert normalize_weights(w).tobytes() == (w / w.sum()).tobytes()
        assert normalize_weights([]).shape == (0,)

    @staticmethod
    def _rejected_at(weights, k):
        """normalize_weights names weight k, 1-based, and its value to the bit."""
        with pytest.raises(NonPositiveWeightError) as exc:
            normalize_weights(weights)
        assert exc.value.k == k
        assert np.float64(exc.value.value).tobytes() == np.float64(weights[k - 1]).tobytes()

    @pytest.mark.parametrize("weights, k", [
        ([1, 0, 2], 2), ([1, 0, -1, np.nan], 2), ([-1.0, np.inf, 0.0], 1),
        ([-0.0, 1.0, 2.0], 1), ([1.0, -0.0, 2.0], 2), ([1.0, 2.0, -0.0], 3),
    ])
    def test_normalize_rejects_nonpositive(self, weights, k):
        self._rejected_at(weights, k)

    @pytest.mark.parametrize("weights, k", [
        ([np.nan, 1.0], 1), ([np.inf, 1.0], 1),
        ([1.0, np.inf, 2.0], 2), ([1.0, 2.0, np.inf], 3),
        ([1.0, np.nan, 2.0], 2), ([1.0, 2.0, np.nan], 3), ([1.0, np.nan, -np.inf, 0.0], 2),
    ])
    def test_normalize_rejects_non_finite(self, weights, k):
        self._rejected_at(weights, k)


class TestRanking:
    def test_simple_order(self):
        r = ranking_of([1 / 3, -1 / 3, 0])
        assert r.order == (1, 3, 2)
        assert str(r) == "(1, 3, 2)"

    def test_tie_group(self):
        r = ranking_of([0.2, -0.3, -0.3, -3.4, 3.8])
        assert r.groups == ((5,), (1,), (2, 3), (4,))
        assert r.position(2) == r.position(3) == 3

    def test_all_tied(self):
        r = ranking_of([0.0, 0.0, 0.0])
        assert r.groups == ((1, 2, 3),)

    def test_shift_invariance(self, rng):
        for _ in range(20):
            w = rng.uniform(-5, 5, size=6)
            shift = rng.uniform(-100, 100)
            assert ranking_of(w).groups == ranking_of(w + shift).groups

    def test_tolerance_controls_ties(self):
        w = [1.0, 1.0 + 5e-10, 0.0]
        assert ranking_of(w).groups == ((1, 2), (3,))
        tight = Tolerances(ranking_tie=1e-12)
        assert ranking_of(w, tight).groups == ((2,), (1,), (3,))


class TestFrobenius:
    def test_inner_with_h6(self):
        assert frobenius_inner(EXAMPLE_A, EXAMPLE_H6) == pytest.approx(-52 / 3, abs=1e-9)

    def test_inner_single_pair(self):
        x = M([[0, 1], [-1, 0]])
        assert frobenius_inner(x, x) == pytest.approx(2.0)

    def test_h5_squared_norm(self):
        assert frobenius_inner(EXAMPLE_H5, EXAMPLE_H5) == pytest.approx(3.0, abs=1e-12)

    def test_inner_of_overflowing_products_with_a_finite_sum(self):
        # the products are beyond float64, their sums are not
        a = M([[0, 1e200], [-1e200, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_inner(a, M([[0, 1e200], [1e200, 0]])) == 0.0
            assert frobenius_inner(a, M([[0, 2e108], [1e108, 0]])) == pytest.approx(1e308)
            assert frobenius_inner(a, a) == np.inf

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_inner_keeps_the_bits_of_np_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a, b = (rng.standard_normal((n, n)) * 10.0 ** rng.integers(-150, 150) for _ in "ab")
        assert np.float64(frobenius_inner(a, b)).tobytes() == np.sum(a * b).tobytes()

    def test_family_distance(self):
        for k in range(1, 11):
            d = frobenius_distance(family_matrix(1 / k), family_matrix(-1 / k))
            assert d == pytest.approx(2 * np.sqrt(2) / k, abs=1e-12)

    def test_zero_distance(self):
        assert frobenius_distance(EXAMPLE_A, EXAMPLE_A) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            frobenius_inner(np.zeros((3, 3)), np.zeros((4, 4)))
        with pytest.raises(DimensionMismatchError):
            frobenius_distance(np.zeros((3, 3)), np.zeros((4, 4)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_antisymmetric(rng, 4) for _ in range(3))
        s, t = rng.uniform(-3, 3, size=2)
        assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a), abs=1e-12)
        assert frobenius_inner(s * a + t * b, c) == pytest.approx(
            s * frobenius_inner(a, c) + t * frobenius_inner(b, c), abs=1e-9
        )


def test_tolerances_must_be_positive():
    with pytest.raises(PcmError):
        Tolerances(reciprocity=0.0)
    with pytest.raises(PcmError):
        Tolerances(ranking_tie=-1e-9)


@pytest.mark.parametrize("field", ["reciprocity", "ranking_tie"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(PcmError, match="positive and finite"):
        Tolerances(**{field: value})


def test_one_tolerance_bounds_both_scales():
    # |a_ij + a_ji| is the image of |m_ij*m_ji - 1|: validate_additive reads tol.reciprocity too
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["reciprocity", "ranking_tie"]
    with pytest.raises(TypeError):
        Tolerances(antisymmetry=1e-9)


def test_ranking_position_of_unknown_alternative():
    with pytest.raises(PcmError):
        Ranking(((1,), (2,))).position(5)


def _first_violation_by_loops(values, scale, tol=Tolerances()):
    """The validators' documented scan order, written as plain loops."""
    n = values.shape[0]
    for i in range(n):
        for j in range(n):
            if not np.isfinite(values[i, j]):
                return NonFiniteEntryError, i + 1, j + 1
    if scale == "multiplicative":
        for i in range(n):
            for j in range(n):
                if values[i, j] <= 0:
                    return NonPositiveEntryError, i + 1, j + 1
        for i in range(n):
            for j in range(i, n):
                if abs(values[i, j] * values[j, i] - 1.0) > tol.reciprocity:
                    return ReciprocityViolationError, i + 1, j + 1
        return None
    for i in range(n):
        for j in range(i, n):
            if abs(values[i, j] + values[j, i]) > tol.reciprocity:
                return AntisymmetryViolationError, i + 1, j + 1
    return None


class TestFirstViolation:
    BAD = (np.nan, np.inf, -np.inf, 0.0, -1.0, 3.0, 1.5)

    def _cases(self, rng, count=300):
        for _ in range(count):
            n = int(rng.integers(2, 8))
            a = random_antisymmetric(rng, n, scale=2.0)
            for scale, values in (("additive", a), ("multiplicative", np.exp(a))):
                values = values.copy()
                for _ in range(int(rng.integers(0, 4))):
                    i, j = rng.integers(0, n, size=2)
                    values[i, j] = self.BAD[int(rng.integers(len(self.BAD)))]
                yield scale, values

    def test_location_matches_row_by_row_scan(self, rng):
        validators = {"additive": validate_additive,
                      "multiplicative": validate_multiplicative}
        seen = set()
        for scale, values in self._cases(rng):
            expected = _first_violation_by_loops(values, scale)
            if expected is None:
                validators[scale](values)
                continue
            with pytest.raises(expected[0]) as exc:
                validators[scale](values)
            assert (exc.value.i, exc.value.j) == expected[1:]
            assert type(exc.value.i) is int and type(exc.value.j) is int
            seen.add(expected[0])
        assert len(seen) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_rejected_before_other_checks(self, bad):
        m = M([[1, -2, 1], [0.5, 1, 1], [1, bad, 1]])
        with pytest.raises(NonFiniteEntryError) as exc:
            validate_multiplicative(m)
        assert (exc.value.i, exc.value.j) == (3, 2)
        assert isinstance(exc.value, PcmError)
        a = M([[0, 1, 5], [-1, 0, bad], [2, 0, 0]])
        with pytest.raises(NonFiniteEntryError) as exc:
            validate_additive(a)
        assert (exc.value.i, exc.value.j) == (2, 3)
        assert "must be finite" in str(exc.value)
