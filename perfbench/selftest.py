"""Self-test of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Each check must accept the program's output and reject a corrupted
copy of it: a projection nudged by 1e-6, two scan rows swapped, a wrong
EMI, an error reported at another location, and CLI output with one
number changed.  The tracer must replace every module attribute bound
to a traced function and put them all back.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pcmanip  # noqa: E402
import pcmanip.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(name, accepted, check, *args):
    """Record whether check(*args) accepts (True) or rejects (False) as expected."""
    try:
        check(*args)
        ok = accepted
    except checks.CheckError:
        ok = not accepted
    RESULTS.append((name, ok))


def library_cases():
    rng = np.random.default_rng(7)
    m = workloads.saaty_matrix(rng, 7)
    a = np.log(m)
    n, i, j = 7, 2, 7
    pair = pcmanip.AlternativePair(i, j, n)
    proj = pcmanip.project_to_tie(a, pair)
    p = proj.projected.values

    expect("projection accepted", True, checks.check_projection, a, i, j, p, proj.distance)
    nudged = p.copy()
    nudged[0, 2] += 1e-6
    expect("projection nudged by 1e-6", False, checks.check_projection, a, i, j, nudged)
    cycle = p.copy()  # keeps antisymmetry, every row sum and the pair tie
    for (q, r) in ((0, 2), (2, 3), (3, 0)):
        cycle[q, r] += 1e-6
        cycle[r, q] -= 1e-6
    expect("projection nudged along a 3-cycle", False, checks.check_projection, a, i, j, cycle)
    expect("wrong distance", False, checks.check_projection, a, i, j, p,
           proj.distance * (1 + 1e-6))

    value = pcmanip.emi(a, proj.projected)
    expect("EMI accepted", True, checks.check_emi, a, i, j, value)
    expect("wrong EMI", False, checks.check_emi, a, i, j, value * (1 + 1e-6))

    winner = workloads.losing_member(a, i, j)
    tip = pcmanip.tip_pair(proj, winner, 0.01)
    verdict = pcmanip.verify_manipulation(a, tip.tipped, pair, winner)
    expect("tip accepted", True, checks.check_tip, a, i, j, winner, 0.01,
           tip.tipped.values, verdict.passed)
    expect("tip with another delta", False, checks.check_tip, a, i, j, winner, 0.011,
           tip.tipped.values, verdict.passed)
    expect("tip with a failed verdict", False, checks.check_tip, a, i, j, winner, 0.01,
           tip.tipped.values, False)

    rows = [(r.i, r.j, r.emi, r.distance, r.f_value) for r in pcmanip.scan_all_pairs(a).rows]
    expect("scan accepted", True, checks.check_scan, a, rows)
    swapped = list(rows)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    expect("scan with two rows swapped", False, checks.check_scan, a, swapped)
    wrong = list(rows)
    wrong[3] = wrong[3][:2] + (wrong[3][2] * (1 + 1e-6),) + wrong[3][3:]
    expect("scan with a wrong EMI", False, checks.check_scan, a, wrong)
    expect("scan missing a pair", False, checks.check_scan, a, rows[:-1])

    w = pcmanip.additive_weights(a)
    groups = pcmanip.ranking_of(w).groups
    expect("ranking accepted", True, checks.check_ranking, groups, w)
    expect("ranking with two groups swapped", False, checks.check_ranking,
           (groups[1], groups[0]) + groups[2:], w)

    broken = workloads.saaty_matrix(rng, 30)
    broken[14, 20] *= 2.0
    broken[20, 25] *= 3.0
    expected = checks.first_reciprocity_violation(broken)
    try:
        pcmanip.validate_multiplicative(broken)
        err = None
    except pcmanip.errors.ReciprocityViolationError as exc:
        err = exc
    RESULTS.append(("broken matrix raises", err is not None))
    if err is not None:
        expect("error location accepted", True, checks.check_error_location, err, expected)
        moved = pcmanip.errors.ReciprocityViolationError(err.i, err.j + 1, err.residual)
        expect("error at another location", False, checks.check_error_location, moved, expected)


# key path of one checked number in each command's JSON output
JSON_NUMBER = {
    "validate": ("n",), "weights": ("weights", 0), "convert": ("matrix", 0, 1),
    "project": ("distance",), "tip": ("total_distance",), "emi": ("emi",),
    "scan": ("rows", 0, "emi"),
}
_DECIMAL = re.compile(r"-?\d+\.\d+")
_INTEGER = re.compile(r"\d+")


def change_last_number(text):
    """Move the last decimal number (or integer, if none) by 0.01 (or 1)."""
    found = list(_DECIMAL.finditer(text))
    if found:
        last = found[-1]
        digits = max(2, len(last.group().split(".")[1]))
        new = f"{float(last.group()) + 0.01:.{digits}f}"
    else:
        last = list(_INTEGER.finditer(text))[-1]
        new = str(int(last.group()) + 1)
    return text[:last.start()] + new + text[last.end():]


def change_json_number(text, path):
    data = json.loads(text)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] + (1 if isinstance(node[path[-1]], int) else 1e-6)
    return json.dumps(data)


def cli_cases(workdir):
    batch = workloads.CliBatch(11, ROOT, workdir, in_process=True)
    for op in batch.ops[:-1]:
        code, out, err = op.run()
        try:
            op.check((code, out, err))
            RESULTS.append((f"cli {op.label} accepted", True))
        except (checks.CheckError, workloads.OpFailed) as exc:
            RESULTS.append((f"cli {op.label} accepted ({exc})", False))
            continue
        command, output = op.label.split()
        if output == "json":
            corrupted = change_json_number(out, JSON_NUMBER[command])
        else:
            corrupted = change_last_number(out)
        expect(f"cli {op.label} with one number changed", False, op.check,
               (code, corrupted, err))
    code, out, _ = batch.ops[-1].run()
    RESULTS.append(("cli scan of a NaN matrix counted as failed",
                    _fails(batch.ops[-1].check, (code, out, "")) == (code != 3)))


def _fails(check, result):
    try:
        check(result)
    except workloads.OpFailed:
        return True
    return False


def tracer_cases():
    original = pcmanip.projection.project_to_tie
    homes = (pcmanip, pcmanip.projection, pcmanip.manipulation, pcmanip.cli)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = pcmanip.project_to_tie
        RESULTS.append(("tracer wraps every binding of project_to_tie",
                        wrapped is not original
                        and all(getattr(m, "project_to_tie") is wrapped for m in homes)))
        tracer.op = 0
        a = np.log(workloads.saaty_matrix(np.random.default_rng(3), 6))
        pcmanip.scan_all_pairs(a)
        figures = tracing.layer_metrics(tracer.spans, 1)
        RESULTS.append(("tracer counts the projections of one scan",
                        figures["projection.project_to_tie.calls"] == 15))
    finally:
        tracer.uninstall()
    RESULTS.append(("tracer restores every binding",
                    all(getattr(m, "project_to_tie") is original for m in homes)))


def main():
    workdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    try:
        library_cases()
        cli_cases(workdir)
        tracer_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [name for name, ok in RESULTS if not ok]
    for name, ok in RESULTS:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
