"""One memory-layout rule: every reduction over a matrix reads it in C order, so the C,
F, transposed-view and strided copies of one matrix give the same bytes from every
function that reads it.  A Hypothesis property draws the matrix from ``layout_cases``
(as drawn, in one of six layouts, and in each exact layout of its values), and one
case at n = 300 runs the workspace path.  The conversions are held too: numpy's log and
exp of a view reversed in both axes can differ from its C copy's in the last bit."""

import numpy as np
from hypothesis import given, settings

from pcmanip import (
    AdditivePcm,
    AlternativePair,
    MultiplicativePcm,
    abs_difference,
    additive_weights,
    emi,
    frobenius_distance,
    gmm_weights,
    pair_report,
    project_to_tie,
    scan_all_pairs,
    tie_gap,
    tip_pair,
    to_additive,
    to_multiplicative,
    verify_manipulation,
)
from pcmanip.errors import PcmError

from refdata import random_antisymmetric
from strategies import EXACT_LAYOUTS, layout_cases


def _bits(value):
    """What must match bit for bit: an array's shape and bytes, a float's bytes, and the
    same of every field of a record or item of a tuple."""
    if isinstance(value, (AdditivePcm, MultiplicativePcm)):
        value = value.values
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, tuple):
        return type(value).__name__, tuple(_bits(v) for v in value)
    return value


def _outputs(a, b, s, m, pair, layout):
    """Every output read off a (additive), b (not antisymmetric), s (a scaled into [-1, 1])
    and m = exp(s), each in one layout; a tip's total_distance from a record that holds its
    arrays in layout."""
    winner = pair.j
    out = {
        "additive_weights": additive_weights(a),
        "to_additive": to_additive(MultiplicativePcm(m)),
        "gmm_weights": gmm_weights(MultiplicativePcm(m)),
        "to_multiplicative": to_multiplicative(AdditivePcm(s)),
        "emi": emi(a, b),
        "frobenius_distance": frobenius_distance(a, b),
        "abs_difference": abs_difference(a, b),
        "tie_gap": tie_gap(a, pair),
        "verify_manipulation": verify_manipulation(a, b, pair, winner),
    }
    try:
        projection = project_to_tie(a, pair)
    except PcmError as err:  # a row-sum gap beyond float64: each layout must say so alike
        return {**out, "project_to_tie": (type(err).__name__, str(err))}
    record = projection._replace(original=AdditivePcm(layout(projection.original.values)),
                                 projected=AdditivePcm(layout(projection.projected.values)))
    try:
        tip = tip_pair(record, winner).total_distance
    except PcmError as err:
        tip = (type(err).__name__, str(err))
    return {**out, "pair_report": pair_report(a, pair), "project_to_tie": projection,
            "coefficients": projection.coefficients, "scan_all_pairs": np.array(scan_all_pairs(a).rows),
            "scan_all_pairs of a PCM": np.array(scan_all_pairs(AdditivePcm(a)).rows),
            "tip total_distance": tip}


def assert_every_layout_agrees(x, b, pair):
    """x (in any layout) and b, each read as drawn and in every exact layout of its values,
    give the bytes of their C-ordered copies."""
    a = np.ascontiguousarray(x)
    peak = np.abs(a).max()
    s = a / peak if peak else a
    m = np.exp(s)
    c_copy = EXACT_LAYOUTS["C"]
    want = {name: _bits(v) for name, v in _outputs(a, b, s, m, pair, c_copy).items()}
    copies = {"as drawn": (x, b, s, m, c_copy)}
    copies.update((name, (layout(a), layout(b), layout(s), layout(m), layout))
                  for name, layout in EXACT_LAYOUTS.items())
    for name, (*args, layout) in copies.items():
        for output, got in _outputs(*args, pair, layout).items():
            assert _bits(got) == want[output], (name, output)


@given(layout_cases())
@settings(max_examples=100, deadline=None)
def test_every_layout_gives_the_bytes_of_the_c_copy(case):
    x, pair, _ = case
    n = pair.n
    peak = np.abs(x).max()
    rng = np.random.default_rng(n)
    assert_every_layout_agrees(x, rng.uniform(-1.0, 1.0, (n, n)) * (peak or 1.0), pair)


def test_every_layout_gives_the_bytes_of_the_c_copy_on_the_workspace(rng):
    """n = 300: the validators and emi write into the workspace, whatever the layout."""
    n = 300
    a = random_antisymmetric(rng, n)
    assert_every_layout_agrees(a, rng.uniform(-2.0, 2.0, (n, n)), AlternativePair(7, n, n))
