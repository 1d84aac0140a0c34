"""The pair path's distance, verdict and EMI, pinned bit for bit to the
library routes and to numpy's own: frobenius_distance and np.linalg.norm,
additive_weights and np.mean, and the plain sum, each reading C order.
Inputs reach n = 40, magnitudes up to 1e308 (where overflow_safe redoes a
sum scaled), F-ordered arrays and j = n."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmanip import (
    AdditivePcm,
    AlternativePair,
    ManipulationVerdict,
    Tolerances,
    additive_weights,
    emi,
    frobenius_distance,
    project_to_tie,
    tip_pair,
    verify_manipulation,
)
from pcmanip.core import overflow_safe
from pcmanip.errors import PcmError


def _antisymmetric(rng, n, scale, fortran):
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) * scale
    a = upper - upper.T
    return np.asfortranarray(a) if fortran else a


@st.composite
def pair_cases(draw):
    """(a, b, pair, winner): two n x n antisymmetric matrices, each scaled by its
    own power of ten and C- or F-ordered, and a pair whose j is n half the time."""
    n = draw(st.integers(2, 40))
    j = n if draw(st.booleans()) else draw(st.integers(2, n))
    i = draw(st.integers(1, j - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = (_antisymmetric(rng, n, 10.0 ** draw(st.integers(-300, 308)), draw(st.booleans()))
            for _ in range(2))
    return a, b, AlternativePair(i, j, n), draw(st.sampled_from([i, j]))


def _as_fortran(pcm):
    return AdditivePcm(np.asfortranarray(pcm.values))


@given(pair_cases(), st.sampled_from([1e-3, 1e-2, 1.0, 1e300]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_tip_distance_is_frobenius_distance(case, delta, fortran):
    a, _, pair, winner = case
    try:
        projection = project_to_tie(a, pair)
        if fortran:  # project_to_tie keeps a C-ordered copy; a caller's record may hold F order
            projection = projection._replace(original=_as_fortran(projection.original),
                                             projected=_as_fortran(projection.projected))
        tip = tip_pair(projection, winner, delta)
    except PcmError:  # row sums, or the tip, beyond float64
        return
    norm = overflow_safe(lambda x, y: np.linalg.norm(np.subtract(x, y, order="C")),
                         projection.original.values, tip.tipped.values)
    for got in (tip.total_distance, frobenius_distance(projection.original, tip.tipped)):
        assert np.float64(got).tobytes() == np.float64(norm).tobytes()


def _reference_verdict(original, tipped, pair, winner, tol):
    """verify_manipulation's rules on np.mean's row means of the C-ordered copies, which
    additive_weights gives."""
    w_orig, w_tip = (np.mean(np.ascontiguousarray(getattr(m, "values", m)), axis=1)
                     for m in (original, tipped))
    for m, w in ((original, w_orig), (tipped, w_tip)):
        assert additive_weights(m).tobytes() == w.tobytes()
    loser = pair.i + pair.j - winner
    gap = float(w_tip[winner - 1] - w_tip[loser - 1])
    moved = np.abs(w_tip - w_orig)
    moved[[pair.i - 1, pair.j - 1]] = 0.0
    drift = float(np.maximum.reduce(moved))
    lead = float(w_orig[winner - 1] - w_orig[loser - 1])
    messages = []
    if not gap > tol:
        messages.append(f"alternative {winner} does not strictly lead {loser} "
                        f"(weight gap {gap:.3e})")
    if not drift <= tol:
        messages.append(f"non-pair weight changed by {drift:.3e}")
    if lead > tol:
        messages.append("original ranking already had the winner ahead")
    verdict = ManipulationVerdict(gap > tol and drift <= tol, gap > tol, drift <= tol,
                                  lead > tol, tuple(messages))
    return verdict, (gap, drift, lead)


@given(pair_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_verdict_follows_additive_weights(case, tip_it):
    original, tipped, pair, winner = case
    if tip_it:
        try:
            tipped = tip_pair(project_to_tie(original, pair), winner).tipped
        except PcmError:
            pass
    with np.errstate(over="ignore", invalid="ignore"):  # row sums may overflow on both routes
        _, margins = _reference_verdict(original, tipped, pair, winner, 1e-9)
        # a tolerance equal to a margin, or one ulp below it, flips its test only if the
        # margin's bits agree
        tols = {1e-9, *(t for m in margins for t in (abs(m), np.nextafter(abs(m), 0.0))
                        if 0.0 < t < np.inf)}
        for tol in sorted(tols):
            want, _ = _reference_verdict(original, tipped, pair, winner, tol)
            got = verify_manipulation(original, tipped, pair, winner, Tolerances(ranking_tie=tol))
            assert got == want


def _plain_emi(a, b):
    """sum |a - b| / (4n - 6) in C order, redone on scaled arrays where it overflows, as emi
    promises."""
    m = 4 * a.shape[0] - 6
    return overflow_safe(
        lambda x, y: np.add.reduce(np.abs(np.subtract(x, y, order="C")), None) / m, a, b)


@given(pair_cases())
@settings(max_examples=150, deadline=None)
def test_emi_is_the_plain_sum(case):
    a, b, pair, _ = case
    assert np.float64(emi(a, b)).tobytes() == np.float64(_plain_emi(a, b)).tobytes()
    try:
        projected = project_to_tie(a, pair).projected
    except PcmError:
        return
    want = _plain_emi(a, projected.values)
    assert np.float64(emi(a, projected)).tobytes() == np.float64(want).tobytes()
