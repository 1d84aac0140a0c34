import numpy as np
import pytest

import pcmanip.core
from pcmanip import (
    AdditivePcm,
    AlternativePair,
    abs_difference,
    additive_weights,
    emi,
    frobenius_distance,
    max_changed_entries,
    pair_report,
    project_to_tie,
    scan_all_pairs,
    tie_gap,
    tip_pair,
    verify_manipulation,
)
from pcmanip.errors import (
    AntisymmetryViolationError,
    DimensionMismatchError,
    InvalidWinnerError,
    NonPositiveDeltaError,
    PcmError,
)

from refdata import (
    EXAMPLE_A,
    EXAMPLE_ABS_DIFF,
    EXAMPLE_A_PROJECTED,
    EXAMPLE_EMI,
    EXAMPLE_PAIR,
    all_pairs,
    family_matrix,
    random_antisymmetric,
)


class TestAbsDifference:
    def test_reference_case(self):
        diff = abs_difference(EXAMPLE_A, EXAMPLE_A_PROJECTED)
        assert np.allclose(diff, EXAMPLE_ABS_DIFF, atol=1e-12)
        assert sorted(set(np.round(diff.ravel(), 12))) == [0.0, 1.5, 3.0]

    def test_identical_matrices(self):
        assert np.array_equal(abs_difference(EXAMPLE_A, EXAMPLE_A), np.zeros((5, 5)))

    def test_support_confined_to_pair_rows_and_columns(self, rng):
        a = random_antisymmetric(rng, 6)
        pair = AlternativePair(2, 4, 6)
        diff = abs_difference(a, project_to_tie(a, pair).projected)
        mask = np.zeros((6, 6), dtype=bool)
        mask[[1, 3], :] = True
        mask[:, [1, 3]] = True
        assert np.max(diff[~mask]) < 1e-12

    def test_symmetry(self, rng):
        a = random_antisymmetric(rng, 5)
        diff = abs_difference(a, project_to_tie(a, AlternativePair(1, 3, 5)).projected)
        assert np.allclose(diff, diff.T, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            abs_difference(np.zeros((3, 3)), np.zeros((4, 4)))


class TestEmi:
    def test_reference_case(self):
        assert emi(EXAMPLE_A, EXAMPLE_A_PROJECTED) == pytest.approx(EXAMPLE_EMI, abs=1e-12)

    def test_identical_matrices(self):
        assert emi(EXAMPLE_A, EXAMPLE_A) == 0.0

    def test_matches_brute_force_sum(self, rng):
        a = random_antisymmetric(rng, 5)
        pair = AlternativePair(1, 4, 5)
        projected = project_to_tie(a, pair).projected.values
        brute = sum(
            abs(a[k, l] - projected[k, l]) for k in range(5) for l in range(5)
        )
        assert emi(a, projected) == pytest.approx(brute / 14, abs=1e-12)

    def test_denominator_is_always_max_count(self, rng):
        # fewer than 4n-6 entries change when f = 0, but the
        # denominator stays fixed
        basis_member = project_to_tie(random_antisymmetric(rng, 5), EXAMPLE_PAIR).projected
        perturbed = basis_member.values.copy()
        perturbed[0, 3] += 1.0
        perturbed[3, 0] -= 1.0
        assert emi(basis_member, perturbed) == pytest.approx(2.0 / 14, abs=1e-12)

    def test_zero_iff_already_tied(self, rng):
        a = random_antisymmetric(rng, 6)
        pair = AlternativePair(3, 5, 6)
        projected = project_to_tie(a, pair).projected
        assert emi(projected, project_to_tie(projected, pair).projected) < 1e-12
        assert emi(a, project_to_tie(a, pair).projected) > 1e-6

    def test_max_changed_entries(self):
        assert max_changed_entries(5) == 14
        assert max_changed_entries(2) == 2


class TestUniformDifferenceStructure:
    def test_off_pair_entries_are_f_over_2n(self, rng):
        for n in range(3, 8):
            a = random_antisymmetric(rng, n)
            for pair in all_pairs(n):
                f = tie_gap(a, pair)
                diff = abs_difference(a, project_to_tie(a, pair).projected)
                i, j = pair.i - 1, pair.j - 1
                assert diff[i, j] == pytest.approx(abs(f) / n, abs=1e-9)
                for k in range(n):
                    if k in (i, j):
                        continue
                    assert diff[i, k] == pytest.approx(abs(f) / (2 * n), abs=1e-9)
                    assert diff[k, j] == pytest.approx(abs(f) / (2 * n), abs=1e-9)

    def test_nonzero_count_is_4n_minus_6_generically(self, rng):
        a = random_antisymmetric(rng, 7)
        pair = AlternativePair(2, 5, 7)
        diff = abs_difference(a, project_to_tie(a, pair).projected)
        assert np.count_nonzero(diff > 1e-12) == max_changed_entries(7)

    @pytest.mark.parametrize("scale", [1e-12, 1e-15])
    def test_nonzero_count_sees_tiny_changes(self, scale):
        upper = np.triu(np.random.default_rng(0).uniform(-1, 1, (6, 6)), 1)
        report = pair_report((upper - upper.T) * scale, AlternativePair(2, 5, 6))
        assert report.nonzero_count == max_changed_entries(6) == np.count_nonzero(report.abs_diff)


class TestTipPair:
    def test_third_alternative_wins(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        tip = tip_pair(result, winner=3, delta=0.01)
        w = additive_weights(tip.tipped)
        assert np.allclose(w, [0.2, -0.302, -0.298, -3.4, 3.8], atol=1e-12)
        assert w[2] - w[1] == pytest.approx(2 * 0.01 / 5, abs=1e-15)

    def test_second_alternative_wins(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        tip = tip_pair(result, winner=2, delta=0.01)
        w = additive_weights(tip.tipped)
        assert w[1] - w[2] == pytest.approx(0.004, abs=1e-15)

    def test_non_pair_rows_are_bit_identical(self, rng):
        a = random_antisymmetric(rng, 6)
        result = project_to_tie(a, AlternativePair(2, 4, 6))
        tip = tip_pair(result, winner=4, delta=1e-3)
        for k in (0, 2, 4, 5):
            assert np.array_equal(tip.tipped.values[k], result.projected.values[k])

    def test_tipped_is_antisymmetric(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        t = tip_pair(result, winner=2).tipped.values
        assert np.array_equal(t, -t.T)

    def test_distance_bounds(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        for delta in (1e-1, 1e-3, 1e-6):
            tip = tip_pair(result, winner=3, delta=delta)
            assert tip.extra_distance == pytest.approx(delta * np.sqrt(2), abs=1e-15)
            assert tip.total_distance <= result.distance + delta * np.sqrt(2) + 1e-12
            assert tip.total_distance >= result.distance - 1e-12
            assert tip.total_distance == pytest.approx(
                frobenius_distance(EXAMPLE_A, tip.tipped), abs=1e-12
            )

    def test_invalid_winner(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        with pytest.raises(InvalidWinnerError):
            tip_pair(result, winner=4)

    def test_nonpositive_delta(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        with pytest.raises(NonPositiveDeltaError):
            tip_pair(result, winner=2, delta=0.0)


class TestAlmostOptimalFamily:
    """The two family members with opposite parameter have reversed
    rankings at distance 2*sqrt(2)/k, so reversal cost can be made
    arbitrarily small; the tip realizes the same limit."""

    def test_reversed_rankings_at_vanishing_distance(self):
        from pcmanip import ranking_of

        for k in (1, 10, 100):
            up, down = family_matrix(1 / k), family_matrix(-1 / k)
            assert ranking_of(additive_weights(up)).order == (1, 3, 2)
            assert ranking_of(additive_weights(down)).order == (2, 3, 1)
            assert frobenius_distance(up, down) == pytest.approx(
                2 * np.sqrt(2) / k, abs=1e-12
            )

    def test_tip_cost_approaches_projection_cost(self):
        a = family_matrix(0.25)
        result = project_to_tie(a, AlternativePair(1, 2, 3))
        for delta in (1e-2, 1e-4, 1e-8):
            tip = tip_pair(result, winner=2, delta=delta)
            assert tip.total_distance - result.distance <= delta * np.sqrt(2) + 1e-12


class TestScanAllPairs:
    def test_reference_matrix(self):
        table = scan_all_pairs(EXAMPLE_A)
        assert len(table.rows) == 10
        row = next(r for r in table.rows if (r.i, r.j) == (2, 3))
        assert row.emi == pytest.approx(EXAMPLE_EMI, abs=1e-9)
        assert row.f_value == pytest.approx(15.0)

    def test_sorted_ascending_by_emi(self):
        table = scan_all_pairs(EXAMPLE_A)
        emis = [r.emi for r in table.rows]
        assert emis == sorted(emis)

    def test_zero_matrix(self):
        table = scan_all_pairs(np.zeros((4, 4)))
        assert len(table.rows) == 6
        assert all(r.emi == 0 for r in table.rows)
        # ties broken lexicographically
        assert [(r.i, r.j) for r in table.rows] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_emi_order_matches_gap_order(self, rng):
        # EMI is monotone in |f|, so both orderings agree
        a = random_antisymmetric(rng, 7)
        table = scan_all_pairs(a)
        gaps = [abs(r.f_value) for r in table.rows]
        assert gaps == sorted(gaps)

    def test_deterministic(self, rng):
        a = random_antisymmetric(rng, 6)
        assert scan_all_pairs(a) == scan_all_pairs(a)

    def test_rejects_tiny_matrices(self):
        with pytest.raises(PcmError):
            scan_all_pairs(np.zeros((2, 2)))


class TestVerifyManipulation:
    def test_successful_manipulation(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        tip = tip_pair(result, winner=3, delta=0.01)
        verdict = verify_manipulation(EXAMPLE_A, tip.tipped, EXAMPLE_PAIR, winner=3)
        assert verdict.passed
        assert not verdict.already_winning

    def test_no_manipulation_needed_flag(self):
        verdict = verify_manipulation(EXAMPLE_A, EXAMPLE_A, EXAMPLE_PAIR, winner=2)
        assert verdict.passed
        assert verdict.already_winning

    def test_untipped_projection_fails_strictness(self):
        result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
        verdict = verify_manipulation(
            EXAMPLE_A, result.projected, EXAMPLE_PAIR, winner=3
        )
        assert not verdict.winner_leads
        assert not verdict.passed
        assert verdict.messages

    def test_detects_disturbed_bystander(self):
        tampered = EXAMPLE_A_PROJECTED.copy()
        tampered[3, 4] += 1.0
        tampered[4, 3] -= 1.0
        tampered[1, 2] -= 0.1
        tampered[2, 1] += 0.1
        verdict = verify_manipulation(EXAMPLE_A, tampered, EXAMPLE_PAIR, winner=3)
        assert not verdict.others_preserved

    def test_invalid_winner(self):
        with pytest.raises(InvalidWinnerError):
            verify_manipulation(EXAMPLE_A, EXAMPLE_A, EXAMPLE_PAIR, winner=5)


class TestPairReport:
    def test_reference_report(self):
        report = pair_report(EXAMPLE_A, EXAMPLE_PAIR)
        assert report.emi == pytest.approx(EXAMPLE_EMI, abs=1e-9)
        assert report.nonzero_count == 14
        assert np.allclose(report.abs_diff, EXAMPLE_ABS_DIFF, atol=1e-9)
        assert report.ranking_before.order == (5, 2, 1, 3, 4)
        assert report.ranking_after.groups == ((5,), (1,), (2, 3), (4,))
        assert report.distance == pytest.approx(
            frobenius_distance(EXAMPLE_A, EXAMPLE_A_PROJECTED), abs=1e-9
        )


def test_scan_orders_equal_gaps_by_pair():
    # consistent matrix with weights 0, 1, 2, 3: the gaps of (1,2),
    # (2,3) and (3,4) are equal exactly, and so are those of (1,3) and (2,4)
    w = np.arange(4.0)
    table = scan_all_pairs(w[:, None] - w[None, :])
    assert [(r.i, r.j) for r in table.rows] == [
        (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
    ]
    assert all(type(r.i) is int and type(r.emi) is float for r in table.rows)


@pytest.mark.parametrize("shape", [(3, 4), (3,)])
def test_scan_rejects_non_square_input(shape):
    with pytest.raises(PcmError):
        scan_all_pairs(np.zeros(shape))


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_delta_is_rejected(delta):
    result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
    with pytest.raises(NonPositiveDeltaError):
        tip_pair(result, winner=2, delta=delta)


def test_non_antisymmetric_array_is_rejected():
    a = np.arange(16.0).reshape(4, 4)
    pair = AlternativePair(1, 2, 4)
    for call in (lambda: scan_all_pairs(a), lambda: pair_report(a, pair),
                 lambda: project_to_tie(a, pair)):
        with pytest.raises(AntisymmetryViolationError):
            call()


def test_additive_pcm_is_trusted(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an AdditivePcm was validated again")

    monkeypatch.setattr(pcmanip.core, "_check_additive", forbidden)
    a = AdditivePcm(EXAMPLE_A)
    assert project_to_tie(a, EXAMPLE_PAIR).distance == pytest.approx(15 / np.sqrt(5))
    assert len(scan_all_pairs(a).rows) == 10
