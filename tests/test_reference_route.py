"""The paper's basis route, kept as the reference, pinned against the
closed form that serves every request."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmanip
from pcmanip import (
    AlternativePair,
    additive_weights,
    emi,
    frobenius_distance,
    pair_report,
    project_to_tie,
    relabel_pair,
    scan_all_pairs,
    tie_gap,
    tip_pair,
    verify_manipulation,
)
from pcmanip.errors import DimensionMismatchError

from refdata import (
    EXAMPLE_A,
    EXAMPLE_A_PROJECTED,
    EXAMPLE_COEFFICIENTS,
    EXAMPLE_PAIR,
    all_pairs,
    random_antisymmetric,
)
import reference
from reference import basis_projection, orthogonal_basis_for, projection_coefficients
from test_acceptance import _suite_matrices


def test_basis_route_matches_closed_form_on_suite():
    for a in _suite_matrices():
        for pair in all_pairs(a.shape[0]):
            via_basis = basis_projection(a, pair)
            via_closed_form = project_to_tie(a, pair).projected.values
            assert np.max(np.abs(via_basis - via_closed_form)) <= 1e-9


def test_basis_route_reproduces_worked_example():
    assert np.allclose(basis_projection(EXAMPLE_A, EXAMPLE_PAIR), EXAMPLE_A_PROJECTED,
                       atol=1e-9)


def test_basis_route_n2_and_shape_check():
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert np.array_equal(basis_projection(a, AlternativePair(1, 2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        basis_projection(np.zeros((4, 4)), AlternativePair(1, 2, 5))


@pytest.mark.parametrize("n", range(3, 13))
def test_scan_rows_match_basis_route(n):
    a = random_antisymmetric(np.random.default_rng(100 + n), n)
    rows = {(r.i, r.j): r for r in scan_all_pairs(a).rows}
    assert len(rows) == n * (n - 1) // 2
    for pair in all_pairs(n):
        projected = basis_projection(a, pair)
        row = rows[(pair.i, pair.j)]
        assert row.emi == pytest.approx(emi(a, projected), abs=1e-9)
        assert row.distance == pytest.approx(frobenius_distance(a, projected), abs=1e-9)
        assert row.f_value == pytest.approx(tie_gap(a, pair), abs=1e-9)


def test_coefficients_match_reference_in_relabeled_frame(rng):
    for n in range(3, 8):
        a = random_antisymmetric(rng, n)
        for pair in all_pairs(n):
            work, work_pair, _ = relabel_pair(a, pair)
            h = orthogonal_basis_for(n, work_pair.i, work_pair.j)
            got = project_to_tie(a, pair).coefficients
            assert np.allclose(got, projection_coefficients(work, h), atol=1e-12)
            assert np.allclose(got @ h[0].reshape(len(got), -1),
                               basis_projection(work, work_pair).ravel(), atol=1e-9)
    assert np.allclose(project_to_tie(EXAMPLE_A, EXAMPLE_PAIR).coefficients,
                       EXAMPLE_COEFFICIENTS, atol=1e-9)


@st.composite
def matrix_and_pair(draw):
    n = draw(st.integers(3, 10))
    i = draw(st.integers(1, n))
    j = draw(st.integers(1, n).filter(lambda j: j != i))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return random_antisymmetric(np.random.default_rng(seed), n, scale), AlternativePair(i, j, n)


@given(matrix_and_pair())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_basis_route_property(case):
    a, pair = case
    result = project_to_tie(a, pair)
    reference = basis_projection(a, pair)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(result.projected.values - reference)) <= tol
    assert result.distance == pytest.approx(frobenius_distance(a, reference), abs=tol)
    w = additive_weights(result.projected)
    assert abs(w[pair.i - 1] - w[pair.j - 1]) <= tol


def test_request_path_builds_no_basis(rng):
    n = 9
    a = random_antisymmetric(rng, n)
    for pair in (AlternativePair(2, 5, n), AlternativePair(3, n, n)):
        result = project_to_tie(a, pair)
        pair_report(a, pair)
        emi(a, result.projected)
        tip = tip_pair(result, pair.i)
        assert verify_manipulation(a, tip.tipped, pair, pair.i).passed
    assert len(scan_all_pairs(a).rows) == n * (n - 1) // 2
    coefficients = result.coefficients  # no basis: the D-G block's Gram-Schmidt in closed form
    assert coefficients.shape == ((n * n - n) // 2 - 1,)
    assert np.isfinite(coefficients).all()


def test_no_module_of_the_package_holds_or_imports_the_reference():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    moved = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    moved |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    assert {"tie_basis", "DegenerateBasisError", "_MIN_SQ_NORM"} <= moved
    modules = [pcmanip, *(importlib.import_module(f"pcmanip.{info.name}")
                          for info in pkgutil.iter_modules(pcmanip.__path__))]
    assert {"pcmanip.projection", "pcmanip.tiespace"} <= {m.__name__ for m in modules}
    for module in modules:
        assert sorted(moved & set(vars(module))) == [], module.__name__
    for path in Path(pcmanip.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not any("reference" in name.split(".") for name in names), path
