"""The O(n^2) steps rewritten to allocate fewer n x n temporaries, pinned
bit for bit to the formulas they replace, and the inputs none of them
may touch."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcmanip
from pcmanip import (
    AdditivePcm,
    AlternativePair,
    Tolerances,
    emi,
    hyperplane_oracle_project,
    pair_report,
    project_to_tie,
    ranking_of,
    tie_gap,
    validate_additive,
    validate_multiplicative,
)
from pcmanip.errors import PcmError

from refdata import EXAMPLE_A, EXAMPLE_PAIR, all_pairs, random_antisymmetric
from reference import tie_normal_matrix


def _normal_route(a, pair):
    """The projection as A - (f/n) * N, with N built in full."""
    return a - (tie_gap(a, pair) / pair.n) * tie_normal_matrix(pair)


def _with_negative_zeros(a):
    """a with every third upper entry -0.0 (and +0.0 below it), so that
    pairs of either gap sign meet signed zeros off their rows."""
    a = a.copy()
    k, l = np.triu_indices(a.shape[0], 1)
    pick = (k + l) % 3 == 0
    a[k[pick], l[pick]], a[l[pick], k[pick]] = -0.0, 0.0
    return a


class TestOracleBits:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_pair_small_n(self, rng, n):
        a = random_antisymmetric(rng, n)
        for a in (a, _with_negative_zeros(a)):
            for pair in all_pairs(n):
                want = _normal_route(a, pair).tobytes()
                assert hyperplane_oracle_project(a, pair).values.tobytes() == want
                assert project_to_tie(a, pair).projected.values.tobytes() == want

    def test_some_pairs_at_n_300(self, rng):
        a = random_antisymmetric(rng, 300)
        for i, j in ((1, 2), (17, 300), (150, 151), (299, 300), (1, 300)):
            pair = AlternativePair(i, j, 300)
            assert (hyperplane_oracle_project(a, pair).values.tobytes()
                    == _normal_route(a, pair).tobytes())

    @pytest.mark.parametrize("top", [1.0, -1.0])
    def test_signed_zeros_follow_the_gap(self, top):
        # off the pair's rows and columns N is +0.0, so (f/n) * N is -0.0
        # when f < 0, and -0.0 - (-0.0) is +0.0
        a = np.array([[0, top, 0, 0], [-top, 0, 0, 0], [0, 0, 0, -0.0], [0, 0, 0.0, 0]])
        got = hyperplane_oracle_project(a, AlternativePair(1, 2, 4)).values
        assert got.tobytes() == _normal_route(a, AlternativePair(1, 2, 4)).tobytes()
        assert np.signbit(got[2, 3]) == (top > 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("ij", [(1, 2), (2, 4)], ids=["interior", "j=n"])
    def test_negative_zero_diagonal_keeps_its_bits(self, sign, ij):
        # N is +0.0 on the diagonal, so (f/n) * N is +0.0 or -0.0 by the sign of f, and
        # -0.0 less it is -0.0 or +0.0: an entry written as values + zero would flip both
        a = sign * np.array([[0, 1, 2, 0], [-1, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])
        np.fill_diagonal(a, -0.0)
        pair = AlternativePair(*ij, 4)
        f = tie_gap(a, pair)
        assert np.sign(f) == sign
        want = (a - (f / pair.n) * tie_normal_matrix(pair)).tobytes()
        assert project_to_tie(a, pair).projected.values.tobytes() == want


def _ranking_by_python_sort(weights, tol):
    """ranking_of's groups as computed before it sorted with np.lexsort,
    kept verbatim as the reference."""
    w = np.asarray(weights, dtype=float)
    order = sorted(range(len(w)), key=lambda k: (-w[k], k))
    groups: list[list[int]] = []
    for k in order:
        if groups and abs(w[groups[-1][-1] - 1] - w[k]) <= tol.ranking_tie:
            groups[-1].append(k + 1)
        else:
            groups.append([k + 1])
    return tuple(tuple(sorted(g)) for g in groups)


# repeated values, both zeros and chains of near-ties within 1e-9
_WEIGHT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 1.4e-9, 1.0 - 9e-10,
                     2.0, -3.0, 1e-300, -1e-300]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(st.lists(_WEIGHT, min_size=1, max_size=40),
       st.sampled_from([1e-9, 1e-12, 0.5, 1e3]))
@example([-0.0], 1e-9)
@settings(max_examples=300, deadline=None)
def test_ranking_matches_the_python_sort(weights, tie):
    tol = Tolerances(ranking_tie=tie)
    assert ranking_of(weights, tol).groups == _ranking_by_python_sort(weights, tol)
    assert ranking_of(np.array(weights), tol).groups == _ranking_by_python_sort(weights, tol)


class TestInputsUntouched:
    """Each rewritten step leaves its inputs byte-identical and returns
    arrays of its own."""

    def _check_validator(self, validate, matrix, fails):
        before = matrix.tobytes()
        if fails:
            with pytest.raises(PcmError):
                validate(matrix)
        else:
            assert not np.shares_memory(validate(matrix).values, matrix)
        assert matrix.tobytes() == before

    def test_multiplicative_validator(self, rng):
        m = np.exp(random_antisymmetric(rng, 7, 2.0))
        self._check_validator(validate_multiplicative, m, fails=False)
        broken = m.copy()
        broken[2, 5] *= 2.0
        self._check_validator(validate_multiplicative, broken, fails=True)
        broken = m.copy()
        broken[4, 4] = 1.5
        self._check_validator(validate_multiplicative, broken, fails=True)
        broken[4, 4] = -1.0
        self._check_validator(validate_multiplicative, broken, fails=True)
        overflowing = np.array([[1, 1e200], [1e200, 1]])
        self._check_validator(validate_multiplicative, overflowing, fails=True)

    def test_additive_validator(self, rng):
        a = random_antisymmetric(rng, 7)
        self._check_validator(validate_additive, a, fails=False)
        broken = a.copy()
        broken[1, 3] += 1.0
        self._check_validator(validate_additive, broken, fails=True)
        broken = a.copy()
        broken[0, 0] = np.nan
        self._check_validator(validate_additive, broken, fails=True)
        big = np.array([[0, 1e308, 1e308], [-1e308, 0, 1e308], [-1e308, -1e308, 0]])
        self._check_validator(validate_additive, big, fails=True)

    @pytest.mark.parametrize("wrap", [AdditivePcm, np.asarray], ids=["pcm", "array"])
    def test_oracle_and_emi(self, rng, wrap):
        a = _with_negative_zeros(random_antisymmetric(rng, 9))
        pair = AlternativePair(4, 9, 9)
        before = a.tobytes()
        projected = hyperplane_oracle_project(wrap(a), pair)
        assert not np.shares_memory(projected.values, a)
        other = projected.values.copy()
        value = emi(wrap(a), wrap(projected.values))
        assert a.tobytes() == before and projected.values.tobytes() == other.tobytes()
        assert value == np.abs(a - other).sum() / (4 * 9 - 6)


def test_one_tie_gap_per_pair_report(monkeypatch):
    real, calls = pcmanip.tiespace.tie_gap, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pcmanip" and getattr(module, "tie_gap", None) is real:
            monkeypatch.setattr(module, "tie_gap", counting)
    report = pair_report(EXAMPLE_A, EXAMPLE_PAIR)
    assert len(calls) == 1
    assert project_to_tie(EXAMPLE_A, EXAMPLE_PAIR).gap == real(EXAMPLE_A, EXAMPLE_PAIR) == 15.0
    assert len(calls) == 2
    assert report.emi == pytest.approx(24.0 / 14.0)
