"""Inputs of the wrong type get a PcmError, not numpy's TypeError,
ValueError or IndexError: a pair index or size that is not an integer,
a matrix numpy cannot read as float64 numbers, a weight vector that is
not one, a tolerance or delta that is not a real number, and a tol that
is not a Tolerances.  A MultiplicativePcm given where additive values
are expected is told to convert with to_additive first, and an
AdditivePcm given where multiplicative values are expected with
to_multiplicative; a PCM given as a weight vector is told no conversion.  Every value that must be
positive and finite (a tolerance, a tip delta) is read by one predicate,
so one table holds for all of them; every integer argument (a pair's
indices and size, a tip's or a verdict's winner) is read by one rule,
every tol is a Tolerances, and every size, a matrix's or an n, must be
at least 2, so one table holds for each of those too.  A walk over the
package's public signatures keeps the tol and size tables complete.

The validators are the one door into a validated PCM: each returns its
own type as it is, and every function that needs a valid matrix reads
its input through one of them."""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmanip
import pcmanip.core
import pcmanip.projection
from pcmanip import (
    DEFAULT_TOLERANCES,
    AdditivePcm,
    AlternativePair,
    ManipulationReport,
    ManipulationVerdict,
    MultiplicativePcm,
    PairScanTable,
    ProjectionResult,
    TipResult,
    Tolerances,
    abs_difference,
    additive_weights,
    emi,
    frobenius_distance,
    gmm_weights,
    hyperplane_oracle_project,
    is_tie_equating,
    max_changed_entries,
    normalize_weights,
    pair_report,
    project_to_tie,
    ranking_of,
    scan_all_pairs,
    tie_gap,
    tie_space_dimension,
    tip_pair,
    to_additive,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
    verify_manipulation,
)
from pcmanip.errors import NonPositiveDeltaError, PcmError

from refdata import EXAMPLE_A
from reference import frobenius_norm

PAIR = AlternativePair(1, 2, 5)


@pytest.mark.parametrize("i, j, n, bad", [
    (1.5, 3, 3, "i = 1.5"),
    (1, 2, 3.0, "n = 3.0"),
    (1, np.float64(2.0), 3, "j = "),
    ("1", 2, 3, "i = '1'"),
    (None, 2, 3, "i = None"),
])
def test_a_pair_rejects_indices_that_are_not_integers(i, j, n, bad):
    with pytest.raises(PcmError, match="must be an integer") as info:
        AlternativePair(i, j, n)
    assert bad in str(info.value)


def test_a_non_integral_pair_never_reaches_numpy_indexing():
    with pytest.raises(PcmError, match="i = 1.5"):
        project_to_tie(EXAMPLE_A, AlternativePair(1.5, 3, 3))


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, int])
def test_a_pair_accepts_numpy_integers(integer):
    pair = AlternativePair(integer(4), integer(2), integer(5))
    assert (pair.i, pair.j, pair.n) == (2, 4, 5)
    assert pair == AlternativePair(2, 4, 5)
    assert tie_gap(EXAMPLE_A, pair) == tie_gap(EXAMPLE_A, AlternativePair(2, 4, 5))


ADDITIVE_ENTRY_POINTS = {
    "scan_all_pairs": scan_all_pairs,
    "project_to_tie": lambda m: project_to_tie(m, PAIR),
    "additive_weights": additive_weights,
    "tie_gap": lambda m: tie_gap(m, PAIR),
    "to_multiplicative": to_multiplicative,
    "validate_additive": validate_additive,
    "frobenius_norm": frobenius_norm,
    "emi": lambda m: emi(m, EXAMPLE_A),
    "frobenius_distance": lambda m: frobenius_distance(EXAMPLE_A, m),
    "abs_difference": lambda m: abs_difference(m, EXAMPLE_A),
}


@pytest.mark.parametrize("call", ADDITIVE_ENTRY_POINTS)
def test_a_multiplicative_pcm_is_sent_to_to_additive(call):
    m = to_multiplicative(AdditivePcm(EXAMPLE_A))
    with pytest.raises(PcmError, match="MultiplicativePcm: .*to_additive first"):
        ADDITIVE_ENTRY_POINTS[call](m)
    ADDITIVE_ENTRY_POINTS[call](to_additive(m).values)  # the conversion it names is accepted


NOT_NUMBERS = {
    "strings": [["a", "b"], ["c", "d"]],
    "ragged": [[0.0, 1.0], [-1.0]],
    "beyond float": [[0, 10 ** 400], [-(10 ** 400), 0]],
    "objects": [[object(), 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize("matrix", NOT_NUMBERS)
@pytest.mark.parametrize("call", [validate_additive, validate_multiplicative, additive_weights,
                                  frobenius_norm, scan_all_pairs])
def test_a_matrix_that_is_not_numbers_is_a_pcm_error(call, matrix):
    with pytest.raises(PcmError, match="expected an array of numbers, got list"):
        call(NOT_NUMBERS[matrix])


pytestmark = pytest.mark.filterwarnings("error")

EXAMPLE_M = np.exp(EXAMPLE_A)
UNCHECKED = np.arange(16.0).reshape(4, 4)  # neither validator would pass it


@pytest.mark.parametrize("validator, pcm, body", [
    (validate_additive, AdditivePcm(UNCHECKED), "_check_additive"),
    (validate_multiplicative, MultiplicativePcm(UNCHECKED), "_check_multiplicative"),
])
def test_a_validator_returns_its_own_type_without_checking_it(validator, pcm, body, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{body} ran for a {type(pcm).__name__}")

    monkeypatch.setattr(pcmanip.core, body, forbidden)
    assert validator(pcm) is pcm
    assert validator(pcm, Tolerances(1e-3, 1e-3, 1e-3)) is pcm


# each function that needs a valid matrix, the validator it reads its input through,
# the scale it reads, and what a wrong PCM type is told to convert with
NEEDS_VALID = {
    "to_additive": (to_additive, "validate_multiplicative", EXAMPLE_M, "to_multiplicative"),
    "gmm_weights": (gmm_weights, "validate_multiplicative", EXAMPLE_M, "to_multiplicative"),
    "to_multiplicative": (to_multiplicative, "validate_additive", EXAMPLE_A, "to_additive"),
    "hyperplane_oracle_project": (lambda a: hyperplane_oracle_project(a, PAIR),
                                  "validate_additive", EXAMPLE_A, "to_additive"),
}
PCM_TYPES = {"validate_additive": AdditivePcm, "validate_multiplicative": MultiplicativePcm}


def _values(result):
    return getattr(result, "values", result)


@pytest.mark.parametrize("name", NEEDS_VALID)
def test_every_function_that_needs_a_valid_matrix_reads_it_through_its_validator(
        name, monkeypatch):
    call, validator, valid, _ = NEEDS_VALID[name]
    pcm = PCM_TYPES[validator](valid.copy())
    seen = []
    real = getattr(pcmanip.core, validator)

    def spy(matrix, *args, **kwargs):
        seen.append(matrix)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(pcmanip.core, validator, spy)
    monkeypatch.setattr(pcmanip.projection, "validate_additive", spy)
    call(pcm)
    assert len(seen) == 1 and seen[0] is pcm


@pytest.mark.parametrize("name", NEEDS_VALID)
def test_a_valid_array_gives_the_bytes_of_validating_it_first(name):
    call, validator, valid, _ = NEEDS_VALID[name]
    first = getattr(pcmanip.core, validator)(valid.copy())
    assert _values(call(valid.copy())).tobytes() == _values(call(first)).tobytes()


def _broken(name):
    """The function's valid input with one entry (2,4) that its validator rejects."""
    broken = NEEDS_VALID[name][2].copy()
    broken[1, 3] = broken[1, 3] * 2 + 1
    return broken


@pytest.mark.parametrize("name", NEEDS_VALID)
def test_an_invalid_array_raises_the_validators_error_at_its_location(name):
    call, validator, _, _ = NEEDS_VALID[name]
    with pytest.raises(PcmError) as expected:
        getattr(pcmanip.core, validator)(_broken(name))
    with pytest.raises(type(expected.value)) as got:
        call(_broken(name))
    assert (got.value.i, got.value.j) == (expected.value.i, expected.value.j) == (2, 4)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", NEEDS_VALID)
def test_the_other_pcm_type_is_told_which_conversion_to_use(name):
    call, validator, _, conversion = NEEDS_VALID[name]
    other = MultiplicativePcm if validator == "validate_additive" else AdditivePcm
    with pytest.raises(PcmError, match=f"got {other.__name__}: .*{conversion} first"):
        call(other(EXAMPLE_A.copy()))


NOT_A_VECTOR = {
    "strings": (["x", "y"], "expected an array of numbers, got list"),
    "matrix": ([[1.0, 2.0], [3.0, 4.0]], r"expected a vector of weights, got shape \(2, 2\)"),
    "scalar": (2.0, r"expected a vector of weights, got shape \(\)"),
}


@pytest.mark.parametrize("weights", NOT_A_VECTOR)
@pytest.mark.parametrize("call", [ranking_of, normalize_weights])
def test_a_weight_vector_that_is_not_one_is_a_pcm_error(call, weights):
    w, message = NOT_A_VECTOR[weights]
    with pytest.raises(PcmError, match=message):
        call(w)


NOT_REAL = ["x", None, 1j, [1e-3], np.array([1e-3]), np.array([1e-3, 1e-3])]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
@pytest.mark.parametrize("field", ["reciprocity", "antisymmetry", "ranking_tie"])
def test_a_tolerance_that_is_not_a_real_number_fails_the_range_check(field, value):
    with pytest.raises(PcmError, match=f"tolerance {field} must be positive and finite"):
        Tolerances(**{field: value})


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_a_delta_that_is_not_a_real_number_fails_the_range_check(value):
    with pytest.raises(NonPositiveDeltaError, match="delta must be positive and finite"):
        tip_pair(project_to_tie(EXAMPLE_A, PAIR), 1, delta=value)


READ_THROUGH_VALIDATE_ADDITIVE = {
    "project_to_tie": lambda a: project_to_tie(a, PAIR),
    "pair_report": lambda a: pair_report(a, PAIR),
    "scan_all_pairs": scan_all_pairs,
}


@pytest.mark.parametrize("name", READ_THROUGH_VALIDATE_ADDITIVE)
def test_an_additive_pcm_goes_through_validate_additive_once(name, monkeypatch):
    pcm = AdditivePcm(EXAMPLE_A.copy())
    seen = []
    real = pcmanip.core.validate_additive

    def spy(matrix, *args, **kwargs):
        seen.append(matrix)
        return real(matrix, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "pcmanip" and hasattr(module, "validate_additive"):
            monkeypatch.setattr(module, "validate_additive", spy)
    READ_THROUGH_VALIDATE_ADDITIVE[name](pcm)
    assert len(seen) == 1 and seen[0] is pcm


@pytest.mark.parametrize("pcm", [AdditivePcm(np.zeros((3, 3))), MultiplicativePcm(np.ones((3, 3)))],
                         ids=lambda pcm: type(pcm).__name__)
@pytest.mark.parametrize("call", [ranking_of, normalize_weights])
def test_a_pcm_given_as_weights_is_named_and_told_no_conversion(call, pcm):
    with pytest.raises(PcmError, match=f"got {type(pcm).__name__}") as info:
        call(pcm)
    assert "to_additive" not in str(info.value) and "to_multiplicative" not in str(info.value)


NOT_POSITIVE_FINITE = [0, -1, float("nan"), float("inf"), -float("inf"), *NOT_REAL]
POSITIVE_FINITE = [1e-12, 1, np.float64(0.5)]

# every value that must be positive and finite, as a call that reads it
POSITIVE_FINITE_RULES = {
    "reciprocity": lambda value: Tolerances(reciprocity=value),
    "antisymmetry": lambda value: Tolerances(antisymmetry=value),
    "ranking_tie": lambda value: Tolerances(ranking_tie=value),
    "tip delta": lambda value: tip_pair(project_to_tie(EXAMPLE_A, PAIR), 1, delta=value),
}


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE, ids=repr)
@pytest.mark.parametrize("rule", POSITIVE_FINITE_RULES)
def test_every_positive_finite_rule_rejects_the_same_values(rule, value):
    with pytest.raises(PcmError, match="must be positive and finite"):
        POSITIVE_FINITE_RULES[rule](value)


@pytest.mark.parametrize("value", POSITIVE_FINITE, ids=repr)
@pytest.mark.parametrize("rule", POSITIVE_FINITE_RULES)
def test_every_positive_finite_rule_accepts_the_same_values(rule, value):
    POSITIVE_FINITE_RULES[rule](value)


NOT_INTEGERS = [1.0, np.float64(2.0), 2.5, "1", None]

# every argument that must be an integer: the name its error gives, and a call that reads it
# (2 is valid for each)
INTEGER_RULES = {
    "AlternativePair i": ("i", lambda value: AlternativePair(value, 5, 5)),
    "AlternativePair j": ("j", lambda value: AlternativePair(1, value, 5)),
    "AlternativePair n": ("n", lambda value: AlternativePair(1, 2, value)),
    "tie_space_dimension n": ("n", tie_space_dimension),
    "max_changed_entries n": ("n", max_changed_entries),
    "tip_pair winner": ("winner", lambda value: tip_pair(project_to_tie(EXAMPLE_A, PAIR), value)),
    "verify_manipulation winner": ("winner", lambda value: verify_manipulation(
        EXAMPLE_A, EXAMPLE_A, PAIR, value)),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("rule", INTEGER_RULES)
def test_every_integer_rule_rejects_the_same_values(rule, value):
    name, call = INTEGER_RULES[rule]
    with pytest.raises(PcmError, match=f"^{name} = .* must be an integer$"):
        call(value)


@pytest.mark.parametrize("rule", INTEGER_RULES)
def test_every_integer_rule_accepts_a_numpy_integer(rule):
    INTEGER_RULES[rule][1](np.int64(2))


@pytest.mark.parametrize("value", [np.int64(2), np.uint8(2), True], ids=repr)
def test_an_integer_argument_is_kept_as_an_int(value):
    pair = AlternativePair(value, 3, np.int32(3))
    assert all(type(k) is int for k in (pair.i, pair.j, pair.n))
    assert hash(pair) == hash(AlternativePair(int(value), 3, 3))
    tip = tip_pair(project_to_tie(EXAMPLE_A, PAIR), value)
    assert type(tip.winner) is int and tip.winner == int(value)


NOT_TOLERANCES = [1e-9, None, "1e-9", {"ranking_tie": 1e-9}, (1e-8, 1e-9, 1e-9)]

# every call whose tol must be a Tolerances, on a raw (unvalidated) input
TOLERANCE_RULES = {
    "validate_additive": lambda tol: validate_additive(EXAMPLE_A, tol),
    "validate_multiplicative": lambda tol: validate_multiplicative(EXAMPLE_M, tol),
    "ranking_of": lambda tol: ranking_of([1.0, 2.0, 1.0], tol),
    "pair_report": lambda tol: pair_report(EXAMPLE_A, PAIR, tol),
    "verify_manipulation": lambda tol: verify_manipulation(EXAMPLE_A, EXAMPLE_A, PAIR, 1, tol=tol),
    "is_tie_equating": lambda tol: is_tie_equating(EXAMPLE_A, PAIR, tol),
}


@pytest.mark.parametrize("value", NOT_TOLERANCES, ids=repr)
@pytest.mark.parametrize("rule", TOLERANCE_RULES)
def test_every_tol_that_is_not_a_tolerances_is_a_pcm_error(rule, value):
    with pytest.raises(PcmError, match=r"^tol = .* must be a Tolerances$"):
        TOLERANCE_RULES[rule](value)


@pytest.mark.parametrize("value", [DEFAULT_TOLERANCES, Tolerances(1e-3, 1e-3, 1e-3)], ids=repr)
@pytest.mark.parametrize("rule", TOLERANCE_RULES)
def test_every_tol_that_is_a_tolerances_is_accepted(rule, value):
    TOLERANCE_RULES[rule](value)


TIE_CASES = [pytest.param([apart * tol.ranking_tie, 0.0, 0.0, 0.0], tol, tied,
                           id=f"{apart}-{tied}-{tol!r}")
             for apart, tied in [(0.5, True), (2.0, False)]
             for tol in [DEFAULT_TOLERANCES, Tolerances(ranking_tie=1e-3)]]
# as rounded, the weights lie more than ranking_tie apart and the row-sum gap is ranking_tie * n
TIE_CASES.append(pytest.param([0.10000000000000002, 0.0, 0.0], Tolerances(ranking_tie=0.1), False,
                              id="one-ulp-past-the-tie"))


@pytest.mark.parametrize("w, tol, tied", TIE_CASES)
def test_is_tie_equating_agrees_with_verify_manipulation(w, tol, tied):
    w = np.array(w)
    a = np.subtract.outer(w, w)  # a_ij = w_i - w_j: weights w up to a shift
    pair = AlternativePair(1, 2, len(w))
    assert is_tie_equating(a, pair, tol) is tied
    assert verify_manipulation(a, a, pair, winner=1, tol=tol).winner_leads is not tied
    ranking = ranking_of(additive_weights(a), tol)
    assert (ranking.position(1) == ranking.position(2)) is tied


@given(st.integers(2, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_is_tie_equating_is_the_verdicts_lead_within_ulps_of_the_tie(n, data):
    """A weight gap planted within a few ulps of ranking_tie, at the tie's own scale: the tie
    test and the verdict read the same two row means, so exactly one holds for the leader."""
    tie = data.draw(st.floats(1e-12, 10.0), label="ranking_tie")
    lead, other = data.draw(st.permutations(range(n)), label="order")[:2]
    w = tie * np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    w[lead] = w[other] + tie * (1 + data.draw(st.integers(-4, 4), label="ulps") * 2.0 ** -52)
    a = np.subtract.outer(w, w)
    tol, pair = Tolerances(ranking_tie=tie), AlternativePair(lead + 1, other + 1, n)
    verdict = verify_manipulation(a, a, pair, winner=lead + 1, tol=tol)
    assert is_tie_equating(a, pair, tol) is not verdict.winner_leads


def test_the_verdict_tests_the_pair_alone_where_ranking_of_chains():
    """Tipped weights (1.5e-9, 0, 0.75e-9) up to a shift: the winner leads the loser by more
    than ranking_tie, so the verdict passes and is_tie_equating calls the pair apart, while
    ranking_of chains all three, each within ranking_tie of the next, into one group."""
    original, tipped = (np.subtract.outer(w, w) for w in (np.array([0.0, 0.0, 0.75e-9]),
                                                          np.array([1.5e-9, 0.0, 0.75e-9])))
    pair = AlternativePair(1, 2, 3)
    verdict = verify_manipulation(original, tipped, pair, winner=1)
    assert verdict.passed and verdict.winner_leads and verdict.others_preserved
    assert is_tie_equating(tipped, pair) is False
    assert ranking_of(additive_weights(tipped)).groups == ((1, 2, 3),)


# every size that must be at least 2, as a call that reads it: the size of a matrix or an n
SIZE_RULES = {
    "validate_additive": lambda n: validate_additive(np.zeros((n, n))),
    "validate_multiplicative": lambda n: validate_multiplicative(np.ones((n, n))),
    "to_additive": lambda n: to_additive(np.ones((n, n))),
    "to_multiplicative": lambda n: to_multiplicative(np.zeros((n, n))),
    "gmm_weights": lambda n: gmm_weights(np.ones((n, n))),
    "additive_weights": lambda n: additive_weights(np.zeros((n, n))),
    "emi": lambda n: emi(np.zeros((n, n)), np.zeros((n, n))),
    "scan_all_pairs": lambda n: scan_all_pairs(np.zeros((n, n))),
    "AlternativePair": lambda n: AlternativePair(1, 2, n),
    "tie_space_dimension": tie_space_dimension,
    "max_changed_entries": max_changed_entries,
}


@pytest.mark.parametrize("size", [1, 0])
@pytest.mark.parametrize("rule", SIZE_RULES)
def test_every_size_rule_rejects_a_size_below_two(rule, size):
    with pytest.raises(PcmError):
        SIZE_RULES[rule](size)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("rule", SIZE_RULES)
def test_every_size_rule_accepts_a_size_of_two_or_more(rule, size):
    SIZE_RULES[rule](size)


# records that a call returns: their fields are its results, which no argument rule reads
RESULTS = (ProjectionResult, TipResult, ManipulationReport, ManipulationVerdict, PairScanTable)


def test_every_public_tol_and_size_is_in_its_table():
    takes = {"tol": set(), "n": set()}
    for name in pcmanip.__all__:
        obj = getattr(pcmanip, name)
        if not callable(obj) or obj in RESULTS or obj is PcmError:  # an exception has no signature
            continue
        parameters = inspect.signature(obj).parameters
        for param, names in takes.items():
            if param in parameters:
                names.add(name)
    assert takes["tol"] == set(TOLERANCE_RULES)
    assert takes["n"] <= set(SIZE_RULES)  # which also reads the sizes of matrices
