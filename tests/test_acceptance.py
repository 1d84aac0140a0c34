"""Acceptance suite: one test per criterion, each printing a pass line
(run with -s or -v to see them).  Tolerances are fixed here and nowhere
else.
"""

import time

import numpy as np
import pytest

from pcmanip import (
    AlternativePair,
    additive_weights,
    emi,
    frobenius_distance,
    hyperplane_oracle_project,
    max_changed_entries,
    project_to_tie,
    relabel_pair,
    scan_all_pairs,
    tip_pair,
)

from refdata import (
    EXAMPLE_A,
    EXAMPLE_A_PROJECTED,
    EXAMPLE_BASIS,
    EXAMPLE_COEFFICIENTS,
    EXAMPLE_EMI,
    EXAMPLE_INNER_PRODUCTS,
    EXAMPLE_ORTHOGONAL,
    EXAMPLE_PAIR,
    EXAMPLE_SQUARED_NORMS,
    EXAMPLE_WEIGHTS_PROJECTED,
    all_pairs,
    family_matrix,
    random_antisymmetric,
)
from reference import gram_schmidt, orthogonal_basis_for, tie_basis
from test_projection import constrained_lstsq_project


def _report(line):
    print(f"ACCEPTANCE {line}: PASS")


def _suite_matrices(count=1000, seed=20240817):
    """The shared random-matrix suite: antisymmetric, entries in
    [-10, 10], n cycling through 3..8."""
    rng = np.random.default_rng(seed)
    sizes = [3 + (k % 6) for k in range(count)]
    return [random_antisymmetric(rng, n) for n in sizes]


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c01_basis_fixture():
    basis = tie_basis(EXAMPLE_PAIR)
    assert len(basis) == 9
    for got, expected in zip(basis, EXAMPLE_BASIS):
        assert np.array_equal(got, expected)
    elapsed = _best_time(lambda: tie_basis(AlternativePair(2, 3, 5)))
    assert elapsed < 1e-3
    _report(f"c01 basis fixture (build {elapsed * 1e6:.0f} us)")


def test_c02_gram_schmidt_fixture():
    orthogonal, _ = gram_schmidt(tie_basis(EXAMPLE_PAIR))
    for got, expected in zip(orthogonal, EXAMPLE_ORTHOGONAL):
        assert np.allclose(got, expected, atol=1e-9)
    elapsed = _best_time(lambda: gram_schmidt(tie_basis(EXAMPLE_PAIR)))
    assert elapsed < 1e-3
    _report(f"c02 orthogonalization fixture (run {elapsed * 1e6:.0f} us)")


def test_c03_coefficient_fixture():
    orthogonal, squared_norms = orthogonal_basis_for(5, 2, 3)
    inner = orthogonal.reshape(9, 25) @ EXAMPLE_A.ravel()
    # exact fractional values at 1e-9
    assert np.allclose(inner, EXAMPLE_INNER_PRODUCTS, atol=1e-9)
    assert np.allclose(squared_norms, EXAMPLE_SQUARED_NORMS, atol=1e-9)
    assert np.allclose(inner / squared_norms, EXAMPLE_COEFFICIENTS, atol=1e-9)
    # truncated decimal renderings at 1e-3
    assert np.allclose(
        inner, [0, 8, -16, 8, -10, -17.3333, 4.285714, -18.25, 12.22222], atol=1e-3
    )
    assert np.allclose(
        squared_norms, [2, 2, 2, 4, 3, 4.666666, 2.285714, 2.25, 2.222222],
        atol=1e-3,
    )
    assert np.allclose(
        inner / squared_norms,
        [0, 4, -8, 2, -3.33333, -3.71429, 1.875, -8.11111, 5.5],
        atol=1e-3,
    )
    _report("c03 coefficient table")


def test_c04_projection_fixture():
    result = project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)
    assert np.allclose(result.projected.values, EXAMPLE_A_PROJECTED, atol=1e-9)
    assert np.allclose(
        additive_weights(result.projected), EXAMPLE_WEIGHTS_PROJECTED, atol=1e-9
    )
    _report("c04 projection fixture")


def test_c05_emi_fixture():
    value = emi(EXAMPLE_A, EXAMPLE_A_PROJECTED)
    assert value == pytest.approx(EXAMPLE_EMI, abs=1e-9)
    diff = np.abs(EXAMPLE_A - EXAMPLE_A_PROJECTED)
    assert np.count_nonzero(diff > 1e-12) == 14
    assert max_changed_entries(5) == 14
    _report(f"c05 EMI fixture (EMI = {value:.6f})")


def test_c06_vanishing_reversal_family():
    for k in range(1, 11):
        up, down = family_matrix(1 / k), family_matrix(-1 / k)
        assert np.allclose(
            additive_weights(up), [1 / (3 * k), -1 / (3 * k), 0], atol=1e-12
        )
        assert np.allclose(
            additive_weights(down), [-1 / (3 * k), 1 / (3 * k), 0], atol=1e-12
        )
        assert frobenius_distance(up, down) == pytest.approx(
            2 * np.sqrt(2) / k, abs=1e-12
        )
    _report("c06 vanishing-reversal family")


def test_c07_weight_theorem_suite():
    checked = 0
    for a in _suite_matrices():
        n = a.shape[0]
        w = additive_weights(a)
        for pair in all_pairs(n):
            w2 = additive_weights(project_to_tie(a, pair).projected)
            i, j = pair.i - 1, pair.j - 1
            others = [k for k in range(n) if k not in (i, j)]
            assert np.max(np.abs(w2[others] - w[others])) <= 1e-9
            assert abs(w2[i] - w2[j]) <= 1e-9
            assert abs(w2[i] - (w[i] + w[j]) / 2) <= 1e-9
            checked += 1
    _report(f"c07 weight theorem suite ({checked} projections)")


def test_c08_oracle_equivalence():
    checked = 0
    for a in _suite_matrices():
        n = a.shape[0]
        for pair in all_pairs(n):
            via_basis = project_to_tie(a, pair).projected.values
            via_oracle = hyperplane_oracle_project(a, pair).values
            assert np.max(np.abs(via_basis - via_oracle)) <= 1e-9
            checked += 1
    rng = np.random.default_rng(7)
    for k in range(100):
        n = 3 + (k % 6)
        a = random_antisymmetric(rng, n)
        pair = all_pairs(n)[k % len(all_pairs(n))]
        via_lstsq = constrained_lstsq_project(a, pair)
        assert np.max(np.abs(
            via_lstsq - project_to_tie(a, pair).projected.values
        )) <= 1e-9
        assert np.max(np.abs(
            via_lstsq - hyperplane_oracle_project(a, pair).values
        )) <= 1e-9
    _report(f"c08 oracle equivalence ({checked} + 100 instances)")


def test_c09_minimality_sampling():
    rng = np.random.default_rng(11)
    for k in range(100):
        n = 3 + (k % 6)
        a = random_antisymmetric(rng, n)
        pairs = all_pairs(n)
        pair = pairs[k % len(pairs)]
        result = project_to_tie(a, pair)
        # sample in the relabeled frame when j = n; conjugation is an
        # isometry, so distances carry over
        target, work_pair, _ = relabel_pair(a, pair)
        orthogonal, _ = orthogonal_basis_for(n, work_pair.i, work_pair.j)
        samples = rng.uniform(-10, 10, size=(1000, len(orthogonal)))
        candidates = samples @ orthogonal.reshape(len(orthogonal), -1)
        dists = np.linalg.norm(candidates - target.ravel(), axis=1)
        assert np.all(dists >= result.distance - 1e-9)
    _report("c09 minimality sampling (100 x 1000 candidates)")


def test_c10_tip_behavior():
    delta = 1e-3
    checked = 0
    for a in _suite_matrices():
        n = a.shape[0]
        for pair in all_pairs(n):
            result = project_to_tie(a, pair)
            w_proj = additive_weights(result.projected)
            for winner in (pair.i, pair.j):
                tip = tip_pair(result, winner, delta)
                w = additive_weights(tip.tipped)
                loser = pair.j if winner == pair.i else pair.i
                gap = w[winner - 1] - w[loser - 1]
                assert abs(gap - 2 * delta / n) <= 1e-12
                for k in range(1, n + 1):
                    if k not in (pair.i, pair.j):
                        assert w[k - 1] == w_proj[k - 1]  # bit-identical
            checked += 1
    _report(f"c10 tip behavior ({checked} pairs, both winners)")


def test_c11_scan_performance():
    rng = np.random.default_rng(3)
    a = random_antisymmetric(rng, 15)
    t0 = time.perf_counter()
    table = scan_all_pairs(a)
    elapsed = time.perf_counter() - t0
    assert len(table.rows) == 105
    assert elapsed < 1.0
    _report(f"c11 scan 15x15 in {elapsed * 1e3:.0f} ms")
