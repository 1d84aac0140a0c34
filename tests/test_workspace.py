"""The per-thread workspace that large n x n temporaries are written into.

The validators, gmm_weights and emi (and to_multiplicative on a raw array,
through validate_additive) are pinned bit for bit against the allocating
formula each replaced, on both sides of the cut-off: n = 127 (16129
entries) still allocates, n = 128 (16384) and n = 300 use the workspace.
Inputs come C-ordered, F-ordered, mixed and strided, and each must give
the bytes of its C-ordered copy: every reduction reads C order.  Accepted
inputs must give the same bytes, rejected ones the same error type,
1-based location and value, and the overflow path of emi the same
rescaled result (frobenius_distance, which allocates, alongside).  No
returned array or error value may share memory with the workspace, and a
result must keep its bytes after a second call at the same size.  Each
thread gets its own buffer, a result over the cap is allocated and not
kept, and in a fresh process repeated calls at n = 300 take no fresh
pages after warm-up."""

import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import pcmanip
from pcmanip import (
    AdditivePcm,
    DEFAULT_TOLERANCES,
    emi,
    frobenius_distance,
    gmm_weights,
    to_multiplicative,
    validate_additive,
    validate_multiplicative,
)
from pcmanip import core
from pcmanip.errors import (
    AntisymmetryViolationError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    OverflowDomainError,
    ReciprocityViolationError,
    RowSumOverflowError,
)

from oracle import additive_outcome as ref_validate_additive, first_violation
from oracle import multiplicative_outcome as ref_validate_multiplicative
from refdata import random_antisymmetric

SIZES = [127, 128, 300]
TOL = DEFAULT_TOLERANCES
ORDERS = {"C": np.ascontiguousarray, "F": np.asfortranarray}
# layouts of an (a, b) pair, each of which must give the bytes of the C-ordered pair
PAIR_LAYOUTS = {
    "C": lambda a, b: (a, b),
    "F": lambda a, b: (np.asfortranarray(a), np.asfortranarray(b)),
    "F and C": lambda a, b: (np.asfortranarray(a), b),
    "strided": lambda a, b: (np.asfortranarray(a)[::-1], b[:, ::-1]),
}


# --- the allocating formulas the workspace replaced -------------------------

def ref_to_multiplicative(values):
    err = first_violation(np.abs(values) >= core._MAX_EXP, OverflowDomainError, values)
    return err if err is not None else np.exp(values)


def ref_gmm_weights(values):
    return np.exp(np.mean(np.log(np.ascontiguousarray(values)), axis=1))


def _ref_overflow_safe(reduce, x, y):
    with np.errstate(over="ignore"):
        result = reduce(x, y)
        if math.isinf(result):
            e = np.frexp(max(np.abs(x).max(), np.abs(y).max()))[1]
            result = np.ldexp(reduce(np.ldexp(x, -e), np.ldexp(y, -e)), e)
    return float(result)


def ref_emi(x, y):
    n = x.shape[0]
    return _ref_overflow_safe(
        lambda p, q: np.abs(np.subtract(p, q, order="C")).sum() / (4 * n - 6), x, y)


def ref_frobenius_distance(x, y):
    return _ref_overflow_safe(lambda p, q: np.linalg.norm(np.subtract(p, q, order="C")), x, y)


# --- inputs -----------------------------------------------------------------

def _multiplicative(rng, n):
    return np.exp(random_antisymmetric(rng, n, scale=2.0))


def multiplicative_cases(rng, n):
    """(name, matrix): one valid matrix, then one fault of each kind placed
    past the middle row, so the scans run over most of the matrix."""
    m = _multiplicative(rng, n)
    p, q = n // 2, n - 3
    cases = [("valid", m)]
    for name, value in [("nan", np.nan), ("inf", np.inf), ("negative", -m[p, q]),
                        ("zero", 0.0), ("reciprocity", 2.0 * m[p, q])]:
        broken = m.copy()
        broken[p, q] = value
        cases.append((name, broken))
    diagonal = m.copy()
    diagonal[p, p] = 1.5
    cases.append(("diagonal", diagonal))
    return cases


def additive_cases(rng, n):
    a = random_antisymmetric(rng, n)
    p, q = n // 2, n - 3
    cases = [("valid", a)]
    for name, value in [("nan", np.nan), ("-inf", -np.inf), ("antisymmetry", a[p, q] + 1.0)]:
        broken = a.copy()
        broken[p, q] = value
        cases.append((name, broken))
    overflow = a.copy()
    overflow[p, [q - 1, q]] = 1e308
    overflow[[q - 1, q], p] = -1e308
    cases.append(("row sum", overflow))
    return cases


def _outcome(call, *args):
    try:
        return call(*args)
    except (NonFiniteEntryError, NonPositiveEntryError, ReciprocityViolationError,
            AntisymmetryViolationError, RowSumOverflowError, OverflowDomainError) as err:
        return err


def _key(result):
    """What must match bit for bit: the array's bytes, or the error's type,
    location, value and message."""
    if isinstance(result, Exception):
        value = result.value if hasattr(result, "value") else result.residual
        return type(result), result.i, result.j, np.float64(value).tobytes(), str(result)
    values = getattr(result, "values", result)
    return values.shape, values.dtype, values.tobytes()


def _workspace_buffer():
    return getattr(core._workspace_local, "buffer", None)


def assert_no_alias(result):
    buffer = _workspace_buffer()
    if buffer is None:
        return
    if isinstance(result, Exception):
        value = result.value if hasattr(result, "value") else result.residual
        assert not np.shares_memory(value, buffer)
    else:
        assert not np.shares_memory(getattr(result, "values", result), buffer)


# --- bit for bit ------------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", SIZES)
def test_validate_multiplicative_matches_allocating_formula(n, order, rng):
    for name, matrix in multiplicative_cases(rng, n):
        matrix = ORDERS[order](matrix)
        got = _outcome(validate_multiplicative, matrix)
        assert _key(got) == _key(ref_validate_multiplicative(matrix)), name
        assert_no_alias(got)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", SIZES)
def test_validate_additive_matches_allocating_formula(n, order, rng):
    for name, matrix in additive_cases(rng, n):
        matrix = ORDERS[order](matrix)
        got = _outcome(validate_additive, matrix)
        assert _key(got) == _key(ref_validate_additive(matrix)), name
        assert_no_alias(got)


@pytest.mark.parametrize("n", SIZES)
def test_to_multiplicative_matches_allocating_formula(n, rng):
    """A raw array goes through validate_additive first, so it uses the
    workspace and must give the bytes an AdditivePcm gives."""
    a = random_antisymmetric(rng, n)
    big = a.copy()
    big[n // 2, n - 3], big[n - 3, n // 2] = 800.0, -800.0
    for values in (a, big):
        want = ref_to_multiplicative(values)
        for argument in (AdditivePcm(values), values):
            got = _outcome(to_multiplicative, argument)
            assert _key(got) == _key(want)
            assert_no_alias(got)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", SIZES)
def test_gmm_weights_matches_allocating_formula(n, order, rng):
    """The validator's copy is C-ordered; a hand-built PCM of F-ordered, strided or
    float32 values gives the bytes of its C-ordered copy."""
    m = validate_multiplicative(ORDERS[order](_multiplicative(rng, n)))
    for values in (m.values, np.asfortranarray(m.values), m.values[::-1],
                   m.values.astype(np.float32)):
        got = gmm_weights(pcmanip.MultiplicativePcm(values))
        assert _key(got) == _key(ref_gmm_weights(values))
        assert_no_alias(got)


GMM_LAYOUTS = {"C": lambda v: v, "F": np.asfortranarray, "reversed": lambda v: v[::-1, ::-1]}


@pytest.mark.parametrize("layout", GMM_LAYOUTS)
@pytest.mark.parametrize("n", [*range(2, 21), 1025])
def test_gmm_weights_is_exp_of_the_additive_weights(n, layout, rng):
    """gmm_weights reads its log through to_additive and its row means through
    additive_weights; it must keep the bytes of taking both itself, below the
    floor and over the cap, for a MultiplicativePcm and for a raw array (whose
    log is taken of the validator's copy), in every layout as for its C-ordered copy."""
    def own_log_and_means(v):
        return np.exp(np.add.reduce(np.log(v), axis=1) / v.shape[1])

    v = GMM_LAYOUTS[layout](validate_multiplicative(_multiplicative(rng, n)).values)
    want = _key(own_log_and_means(np.ascontiguousarray(v)))
    assert _key(gmm_weights(pcmanip.MultiplicativePcm(v))) == want
    assert _key(gmm_weights(v)) == want


@pytest.mark.parametrize("layout", PAIR_LAYOUTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("big", [False, True])
def test_difference_metrics_match_allocating_formula(n, big, layout, rng):
    """With one pair of entries at +-1e308 the plain sum and norm of a - b
    overflow while the results fit, so overflow_safe's rescale path runs
    on the workspace too.  b is not antisymmetric, so |a - b| is not
    symmetric and its C and F sums differ: every layout must give the C one."""
    a, b = random_antisymmetric(rng, n), rng.uniform(-2.0, 2.0, size=(n, n))
    if big:
        p, q = n // 2, n - 3
        a[p, q], a[q, p] = 1e308, -1e308
    a, b = PAIR_LAYOUTS[layout](a, b)
    with np.errstate(over="ignore"):
        assert math.isinf(np.abs(a - b).sum()) == big
        assert math.isinf(np.linalg.norm(a - b)) == big
    for metric, ref in [(emi, ref_emi), (frobenius_distance, ref_frobenius_distance)]:
        got = metric(a, b)
        assert math.isfinite(got)
        assert np.float64(got).tobytes() == np.float64(ref(a, b)).tobytes()


# --- no aliasing ------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
def test_results_keep_their_bytes_after_a_second_call(n, rng):
    first_m, second_m = _multiplicative(rng, n), _multiplicative(rng, n)
    first_a, second_a = random_antisymmetric(rng, n), random_antisymmetric(rng, n)
    calls = [
        (validate_multiplicative, first_m, second_m),
        (validate_additive, first_a, second_a),
        (to_multiplicative, first_a, second_a),
        (lambda m: gmm_weights(validate_multiplicative(m)), first_m, second_m),
    ]
    for _, broken in multiplicative_cases(rng, n)[1:]:
        calls.append((validate_multiplicative, broken, second_m))
    for _, broken in additive_cases(rng, n)[1:]:
        calls.append((validate_additive, broken, second_a))
    for call, first, second in calls:
        result = _outcome(call, first)
        before = _key(result)
        _outcome(call, second)
        emi(first_a, second_a)
        assert _key(result) == before
        assert_no_alias(result)


def test_the_workspace_grows_and_is_not_returned(rng):
    validate_additive(random_antisymmetric(rng, 300))
    buffer = _workspace_buffer()
    assert buffer is not None and buffer.size >= 300 * 300
    result = validate_additive(random_antisymmetric(rng, 128))
    assert _workspace_buffer() is buffer  # never shrunk
    assert not np.shares_memory(result.values, buffer)


def test_a_result_over_the_cap_is_allocated_and_not_kept(rng):
    """Above _WORKSPACE_MAX entries the temporaries are fresh arrays, so one
    huge call cannot pin its memory for the life of the thread."""
    n = math.isqrt(core._WORKSPACE_MAX) + 1
    a, b = random_antisymmetric(rng, n), random_antisymmetric(rng, n)
    m = np.exp(a)
    seen = {}

    def run():  # in a fresh thread, whose workspace starts empty
        mult = validate_multiplicative(m)
        seen["keys"] = (_key(mult), _key(validate_additive(a)), _key(gmm_weights(mult)),
                        np.float64(emi(a, b)).tobytes())
        seen["buffer"] = _workspace_buffer()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert seen["buffer"] is None
    assert seen["keys"] == (_key(ref_validate_multiplicative(m)), _key(ref_validate_additive(a)),
                            _key(ref_gmm_weights(m)), np.float64(ref_emi(a, b)).tobytes())


# --- threads and page faults ------------------------------------------------

def test_threads_get_their_own_workspace(rng):
    sizes = [128, 170, 230, 300]  # one thread each
    inputs = {}
    for n in sizes:
        m = _multiplicative(rng, n)
        a = random_antisymmetric(rng, n)
        inputs[n] = (m, a, random_antisymmetric(rng, n))

    def run(n):
        m, a, b = inputs[n]
        mult = validate_multiplicative(m)
        return (_key(mult), _key(validate_additive(a)), _key(gmm_weights(mult)),
                np.float64(emi(a, b)).tobytes())

    serial = {n: run(n) for n in sizes}
    barrier = threading.Barrier(len(sizes), timeout=60)
    buffers, failures = {}, []

    def worker(n):
        try:
            for _ in range(50):
                if run(n) != serial[n]:
                    failures.append(n)
            buffers[n] = _workspace_buffer()
            barrier.wait()  # all threads alive, so no buffer can be reused
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(repr(exc))
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    own = [buffers[n] for n in sizes] + [_workspace_buffer()]
    for k, buffer in enumerate(own[:-1]):
        assert buffer.size == sizes[k] ** 2
        for other in own[k + 1:]:
            assert other is None or not np.shares_memory(buffer, other)


FAULT_SCRIPT = textwrap.dedent("""
    import resource
    import numpy as np
    import pcmanip as pc

    rng = np.random.default_rng(11)
    upper = np.triu(rng.uniform(-2.0, 2.0, size=(300, 300)), 1)
    a = upper - upper.T
    b = a.copy()
    b[0, 1], b[1, 0] = a[0, 1] + 1.0, a[1, 0] - 1.0
    m = np.exp(a)
    mult = pc.validate_multiplicative(m)
    calls = [lambda: pc.validate_multiplicative(m), lambda: pc.validate_additive(a),
             lambda: pc.gmm_weights(mult), lambda: pc.emi(a, b)]
    for call in calls:
        for _ in range(3):
            call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for call in calls:
        for _ in range(20):
            call()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming")
def test_repeated_large_calls_take_no_fresh_pages():
    """20 calls each of the validators, gmm_weights and emi at n = 300 in a
    fresh process; before the workspace, one validator alone took 6700."""
    src = str(Path(pcmanip.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 20


def test_the_floor_is_decided_by_the_workspace_alone(rng):
    """In a fresh thread, the validators, gmm_weights and emi keep no buffer
    at n = 127 (16129 entries, under _WORKSPACE_MIN); at n = 128 they keep
    one buffer of exactly 128^2 entries, with the same results as before."""
    inputs = {n: (_multiplicative(rng, n), random_antisymmetric(rng, n),
                  random_antisymmetric(rng, n)) for n in (127, 128)}
    seen = {}

    def run(n):
        m, a, b = inputs[n]
        mult = validate_multiplicative(m)
        seen[n] = (_key(mult), _key(validate_additive(a)), _key(gmm_weights(mult)),
                   np.float64(emi(a, b)).tobytes())
        seen[n, "buffer"] = _workspace_buffer()

    thread = threading.Thread(target=lambda: (run(127), run(128)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert seen[127, "buffer"] is None
    assert seen[128, "buffer"] is not None and seen[128, "buffer"].size == 128 ** 2
    for n in (127, 128):
        m, a, b = inputs[n]
        assert seen[n] == (_key(ref_validate_multiplicative(m)), _key(ref_validate_additive(a)),
                           _key(ref_gmm_weights(m)), np.float64(ref_emi(a, b)).tobytes())
