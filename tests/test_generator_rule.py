"""The tie-space generators as one rule, E(own) + s * E(j, n), and the
coefficients that are built from it without any n x n generator matrix."""

import io
import json

import numpy as np
import pytest

from pcmanip import AlternativePair, PcmError, project_to_tie
from pcmanip.cli import main
from pcmanip.core import overflow_safe

from refdata import random_antisymmetric
from reference import generator_matrix, tie_labels

# valid: every row sum and every gap between two is finite
OVERFLOW_MATRIX = np.array([[0, 1, 0, 0],
                            [-1, 0, -1e308, 1e308],
                            [0, 1e308, 0, -1e308],
                            [0, -1e308, 1e308, 0]])
# exact rational Gram-Schmidt; E(2) with p = i carries 2 a_jn, whose product overflows
OVERFLOW_EXACT = [-1e308, 4e307, 1.6666666666666666e307, 1.4285714285714286e307, -1e308]


def _sparse(n, entries):
    out = np.zeros((n, n))
    for (k, l), value in entries.items():
        out[k - 1, l - 1] = value
    return out


def four_entry_formula(kind, params, pair):
    """The paper's case formulas, written out entry by entry."""
    i, j, n = pair.i, pair.j, pair.n
    if kind == "C":
        q, r = params
        return _sparse(n, {(q, r): 1, (r, q): -1})
    (p,) = params
    if kind == "D":
        return _sparse(n, {(p, i): 1, (n, j): 1, (i, p): -1, (j, n): -1})
    if kind == "E" and p == i:
        return _sparse(n, {(p, j): 1, (j, p): -1, (j, n): 2, (n, j): -2})
    if kind == "E":
        return _sparse(n, {(p, j): 1, (j, n): 1, (j, p): -1, (n, j): -1})
    if kind == "F":
        return _sparse(n, {(i, p): 1, (j, n): 1, (p, i): -1, (n, j): -1})
    return _sparse(n, {(j, p): 1, (n, j): 1, (p, j): -1, (j, n): -1})  # G


@pytest.mark.parametrize("n", range(3, 10))
def test_generator_matrix_matches_the_four_entry_formulas(n):
    for i in range(1, n):
        for j in range(i + 1, n):
            pair = AlternativePair(i, j, n)
            for kind, params in tie_labels(pair):
                want = four_entry_formula(kind, params, pair)
                assert np.array_equal(generator_matrix(kind, params, pair), want), (kind, params)


@pytest.mark.parametrize("pair", [(37, 141), (2, 200)], ids=["interior", "j=n"])
def test_coefficients_build_no_generator_matrix(rng, pair):
    n = 200
    a = random_antisymmetric(rng, n)
    coefficients = project_to_tie(a, AlternativePair(*pair, n)).coefficients
    assert coefficients.shape == (n * (n - 1) // 2 - 1,)
    assert np.isfinite(coefficients).all()


def test_d_to_g_coefficients_do_not_overflow_where_they_fit():
    coefficients = project_to_tie(OVERFLOW_MATRIX, AlternativePair(1, 2, 4)).coefficients
    assert coefficients[1] == 4e307  # warnings are errors, so an overflow fails here first
    np.testing.assert_allclose(coefficients, OVERFLOW_EXACT, rtol=1e-15, atol=0)


def test_project_json_prints_the_d_to_g_coefficients_finite(tmp_path, capsys):
    path = tmp_path / "overflow.csv"
    path.write_text("\n".join(",".join(map(repr, row)) for row in OVERFLOW_MATRIX.tolist()) + "\n")
    buf = io.StringIO()
    code = main(["project", str(path), "--scale", "additive", "--pair", "1", "2",
                 "--output", "json"], out=buf)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "Infinity" not in buf.getvalue()
    assert json.loads(buf.getvalue())["coefficients"][1] == 4e307


def test_overflow_safe_redoes_an_array_result_scaled():
    x = np.array([1e308, -1e308, 2.0])
    got = overflow_safe(lambda v: (v + v) / 4, x)  # v + v overflows, the result fits
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [5e307, -5e307, 1.0]
    fits = np.array([1.0, 3.0])
    assert overflow_safe(lambda v: (v + v) / 4, fits).tobytes() == ((fits + fits) / 4).tobytes()
    assert type(overflow_safe(np.linalg.norm, fits)) is float


@pytest.mark.parametrize("i, j, n", [(1, 2, 1), (1, 1, 1), (1, 2, 0)])
def test_pair_with_no_room_for_two_alternatives_is_rejected(i, j, n):
    with pytest.raises(PcmError):
        AlternativePair(i, j, n)
