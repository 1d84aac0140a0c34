"""The benchmark's four workloads: seeded inputs, warm-up, one cycle of
operations, and the check of each operation's output.

A workload is built from ``--seed`` alone.  ``ops`` is one cycle; a run
repeats whole cycles, so every run attempts the same operations in the
same proportions.  The program is always reached through module
attributes at call time (``pcmanip.project_to_tie``, not a name imported
here), so the traced run sees every call.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

import pcmanip
import pcmanip.cli

import checks

# Saaty's 1/9 ... 9 scale; SAATY[16 - k] is the reciprocal of SAATY[k]
SAATY = np.array([1.0 / k for k in range(9, 1, -1)] + [float(k) for k in range(1, 10)])
_LOG_SAATY = np.log(SAATY)
_LOG_MIDPOINTS = (_LOG_SAATY[1:] + _LOG_SAATY[:-1]) / 2
# standard deviations of the log weights and of the log-normal noise
LOG_WEIGHT_SPREAD = 1.0
LOG_NOISE = 0.5
DELTAS = (1e-3, 2e-3, 5e-3, 1e-2)
NAMES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
         "golf", "hotel", "india", "juliet", "kilo", "lima")


class OpFailed(Exception):
    """The operation did not complete as documented (exit code, raise)."""


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], None]
    label: str


def saaty_matrix(rng, n):
    """Reciprocal matrix rounded to the Saaty scale from a random
    consistent ratio matrix w_i / w_j with log-normal noise."""
    logw = rng.normal(0.0, LOG_WEIGHT_SPREAD, n)
    ideal = logw[:, None] - logw[None, :] + rng.normal(0.0, LOG_NOISE, (n, n))
    idx = np.searchsorted(_LOG_MIDPOINTS, ideal)
    upper = np.triu_indices(n, 1)
    m = np.ones((n, n))
    m[upper] = SAATY[idx[upper]]
    m.T[upper] = SAATY[16 - idx[upper]]
    return m


def random_pair(rng, n, last=False):
    """1-based (i, j), i < j; with last=True, j = n (the relabeled case)."""
    if last:
        return int(rng.integers(1, n)), n
    i, j = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
    return i, j


def losing_member(a, i, j):
    """The member of the pair with the lower weight now (i on a tie)."""
    w = a.mean(axis=1)
    return j if w[i - 1] >= w[j - 1] else i


# ---------------------------------------------------------------------------

class PairStream:
    """Single-pair questions on a pool of matrices at the paper's sizes."""

    # 6 + 21 + 45 + 66 + 91 = 229 canonical tie bases, which all fit the
    # program's 256-entry basis cache, so warm-up fills it once.  An odd
    # number of sizes puts the median latency inside one size's cluster.
    SIZES = (5, 8, 11, 13, 15)
    MATRICES_PER_SIZE = 2
    PAIRS_PER_MATRIX = 4

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.items = []
        for _ in range(self.MATRICES_PER_SIZE):
            for n in self.SIZES:
                m = saaty_matrix(rng, n)
                a = np.log(m)
                for k in range(self.PAIRS_PER_MATRIX):
                    i, j = random_pair(rng, n, last=(k == 0))
                    self.items.append((m, a, i, j, losing_member(a, i, j),
                                       DELTAS[int(rng.integers(len(DELTAS)))]))
        self.ops = [Op(self._runner(*item), self._checker(*item),
                       f"n={item[0].shape[0]} pair=({item[2]},{item[3]})")
                    for item in self.items]

    def warm_up(self):
        for n in self.SIZES:
            m, a = next((m, a) for m, a, *_ in self.items if m.shape[0] == n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    pcmanip.project_to_tie(a, pcmanip.AlternativePair(i, j, n))

    @staticmethod
    def _runner(m, a, i, j, winner, delta):
        def run():
            pc = pcmanip
            additive = pc.to_additive(pc.validate_multiplicative(m))
            projection = pc.project_to_tie(additive, pc.AlternativePair(i, j, m.shape[0]))
            value = pc.emi(additive, projection.projected)
            tip = pc.tip_pair(projection, winner, delta)
            verdict = pc.verify_manipulation(additive, tip.tipped, projection.pair, winner)
            return projection, value, tip, verdict
        return run

    @staticmethod
    def _checker(m, a, i, j, winner, delta):
        projected = checks.tie_projection(a, i, j)
        tipped = checks.tipped_matrix(a, i, j, winner, delta)

        def check(result):
            projection, value, tip, verdict = result
            checks.check_projection(a, i, j, projection.projected.values, projection.distance,
                                    projected)
            checks.check_emi(a, i, j, value)
            checks.check_tip(a, i, j, winner, delta, tip.tipped.values, verdict.passed, tipped)
            checks.expect_equal("already winning", verdict.already_winning, False)
        return check


class ScanSweep:
    """All-pairs scans on sizes cycling 8 ... 16."""

    # one cycle needs sum C(n-1, 2) = 525 canonical tie bases, more than
    # the 256-entry basis cache holds, so every scan rebuilds its bases
    SIZES = tuple(range(8, 17))

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.warm = saaty_matrix(rng, 5)
        self.matrices = [saaty_matrix(rng, n) for n in self.SIZES]
        self.ops = [Op(self._runner(m), self._checker(m), f"scan n={m.shape[0]}")
                    for m in self.matrices]

    def warm_up(self):
        self._runner(self.warm)()

    @staticmethod
    def _runner(m):
        def run():
            additive = pcmanip.to_additive(pcmanip.validate_multiplicative(m))
            return pcmanip.scan_all_pairs(additive)
        return run

    @staticmethod
    def _checker(m):
        a = np.log(m)

        def check(table):
            checks.check_scan(a, [(r.i, r.j, r.emi, r.distance, r.f_value) for r in table.rows])
        return check


class LargeN:
    """O(n^2) work only: validation, conversion, weights, ranking and the
    closed-form oracle on matrices with n in the hundreds."""

    SIZES = (100, 140, 180, 220, 260, 300)
    BROKEN_SIZE = 200
    PAIRS_PER_MATRIX = 3

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.warm = saaty_matrix(rng, 20)
        self.ops = []
        for n in self.SIZES:
            m = saaty_matrix(rng, n)
            pairs = [random_pair(rng, n, last=(k == 0)) for k in range(self.PAIRS_PER_MATRIX)]
            self.ops.append(Op(self._runner(m, pairs), self._checker(m, pairs), f"n={n}"))
        # one reciprocal entry broken in the middle row, so that the
        # validators' work before the failure is the same for every seed
        broken = saaty_matrix(rng, self.BROKEN_SIZE)
        p = self.BROKEN_SIZE // 2
        q = int(rng.integers(p + 1, self.BROKEN_SIZE + 1))
        broken[p - 1, q - 1] *= 2.0
        self.ops.append(Op(self._broken_runner(broken), self._broken_checker(broken),
                           f"broken n={self.BROKEN_SIZE}"))

    def warm_up(self):
        self._runner(self.warm, [(1, 20)])()

    @staticmethod
    def _runner(m, pairs):
        def run():
            pc = pcmanip
            mult = pc.validate_multiplicative(m)
            additive = pc.to_additive(mult)
            pc.validate_additive(additive.values)
            gmm = pc.gmm_weights(mult)
            normalized = pc.normalize_weights(gmm)
            weights = pc.additive_weights(additive)
            ranking = pc.ranking_of(weights)
            projected = []
            for i, j in pairs:
                tied = pc.hyperplane_oracle_project(additive, pc.AlternativePair(i, j, m.shape[0]))
                projected.append((tied, pc.emi(additive, tied)))
            return gmm, normalized, weights, ranking, projected
        return run

    @staticmethod
    def _checker(m, pairs):
        a = np.log(m)
        gmm_want = np.exp(a.mean(axis=1))

        def check(result):
            gmm, normalized, weights, ranking, projected = result
            checks.expect_close("geometric-mean weights", gmm, gmm_want, checks.tolerance(m))
            checks.expect_close("normalized weights", normalized, gmm_want / gmm_want.sum(),
                                checks.tolerance(a))
            checks.expect_close("row-mean weights", weights, a.mean(axis=1), checks.tolerance(a))
            checks.check_ranking(ranking.groups, a.mean(axis=1))
            for (i, j), (tied, value) in zip(pairs, projected, strict=True):
                checks.check_projection(a, i, j, tied.values)
                checks.check_emi(a, i, j, value)
        return check

    @staticmethod
    def _broken_runner(m):
        def run():
            try:
                pcmanip.validate_multiplicative(m)
            except pcmanip.errors.ReciprocityViolationError as err:
                return err
            return None
        return run

    @staticmethod
    def _broken_checker(m):
        expected = checks.first_reciprocity_violation(m)

        def check(err):
            if err is None:
                raise checks.CheckError(f"no error raised; expected one at {expected}")
            checks.check_error_location(err, expected)
        return check


class CliBatch:
    """Every subcommand in every output format, each as its own
    ``python -m pcmanip.cli`` process (or in-process when traced)."""

    COMMANDS = ("validate", "weights", "convert", "project", "tip", "emi", "scan")
    FORMATS = ("text", "json", "csv")
    # (file format, scale, n, with names)
    FILES = (("csv", "multiplicative", 6, False), ("json", "multiplicative", 9, True),
             ("csv", "additive", 12, False), ("json", "additive", 5, True))
    # fixed, seed-independent input: NaN passes both validators today, so
    # this scan exits 0 where the documented result is exit 3
    NAN_MATRIX = [[1, 2, 4, 8, 3], [0.5, 1, 2, "nan", 1.5], [0.25, 0.5, 1, 2, 0.75],
                  [0.125, "nan", 0.5, 1, 0.375], [1 / 3, 2 / 3, 4 / 3, 8 / 3, 1]]

    def __init__(self, seed, root, workdir, in_process):
        rng = np.random.default_rng([seed, 4])
        self.root, self.in_process = root, in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_child_rss_kb = 0
        os.makedirs(workdir, exist_ok=True)
        files = [self._write_file(workdir, k, *spec, rng) for k, spec in enumerate(self.FILES)]
        nan_path = os.path.join(workdir, "nan.csv")
        with open(nan_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(",".join(str(x) for x in row) for row in self.NAN_MATRIX) + "\n")
        self.ops = []
        pair_count = 0
        for c, command in enumerate(self.COMMANDS):
            for f, output in enumerate(self.FORMATS):
                path, spec = files[(c + f) % len(files)]
                spec = dict(spec)
                argv = [command, path, "--output", output]
                if spec["file"] == "csv":
                    argv += ["--scale", spec["scale"]]
                if command == "weights" and spec["scale"] == "multiplicative":
                    spec["normalize"] = True
                    argv.append("--normalize")
                if command == "convert":
                    other = {"multiplicative": "additive", "additive": "multiplicative"}
                    spec["to"] = other[spec["scale"]]
                    argv += ["--to", spec["to"]]
                if command in ("project", "tip", "emi"):
                    n = len(spec["matrix"])
                    spec["pair"] = random_pair(rng, n, last=(pair_count % 2 == 0))
                    pair_count += 1
                    argv += ["--pair", *map(str, spec["pair"])]
                if command == "tip":
                    spec["winner"] = losing_member(checks.additive_of(spec), *spec["pair"])
                    spec["delta"] = DELTAS[int(rng.integers(len(DELTAS)))]
                    argv += ["--winner", str(spec["winner"]), "--delta", repr(spec["delta"])]
                self.ops.append(Op(self._runner(argv), self._checker(spec, command, output),
                                   f"{command} {output}"))
        self.ops.append(Op(self._runner(["scan", nan_path]), self._expect_exit(3), "scan nan"))
        self.warm_argv = ["validate", files[0][0]]

    @staticmethod
    def _write_file(workdir, k, kind, scale, n, with_names, rng):
        m = saaty_matrix(rng, n)
        if scale == "additive":
            upper = np.triu(np.log(m), 1)
            m = upper - upper.T
        spec = {"file": kind, "scale": scale, "matrix": m.tolist(),
                "names": list(NAMES[:n]) if with_names else None}
        path = os.path.join(workdir, f"input{k}.{kind}")
        with open(path, "w", encoding="utf-8") as fh:
            if kind == "json":
                doc = {"scale": scale, "matrix": spec["matrix"]}
                if with_names:
                    doc["names"] = spec["names"]
                json.dump(doc, fh)
            else:
                fh.write("\n".join(",".join(repr(x) for x in row) for row in spec["matrix"]))
                fh.write("\n")
        return path, spec

    def warm_up(self):
        self._runner(self.warm_argv)()

    def _runner(self, argv):
        if self.in_process:
            def run_in_process():
                clear = getattr(getattr(pcmanip.projection, "orthogonal_basis_for", None),
                                "cache_clear", None)
                if clear:  # every command process starts with a cold basis cache
                    clear()
                out = io.StringIO()
                return pcmanip.cli.main(list(argv), out), out.getvalue(), ""
            return run_in_process

        command = [sys.executable, "-m", "pcmanip.cli", *argv]

        def run():
            proc = subprocess.Popen(command, cwd=self.root, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            with proc:
                # outputs stay far below the pipe buffer on stderr, so
                # reading stdout to the end first cannot block the child
                out, err = proc.stdout.read(), proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            return proc.returncode, out, err
        return run

    @staticmethod
    def _checker(spec, command, output):
        def check(result):
            code, out, err = result
            if code != 0:
                raise OpFailed(f"{command} exited {code}: {err.strip()[-200:]}")
            checks.check_cli(spec, command, output, out)
        return check

    @staticmethod
    def _expect_exit(expected):
        def check(result):
            code, out, _ = result
            if code != expected:
                raise OpFailed(f"scan of a NaN matrix exited {code}, documented exit is "
                               f"{expected}; stdout starts {out[:40]!r}")
        return check


def build(name, seed, root, workdir, traced):
    if name == "pair-stream":
        return PairStream(seed)
    if name == "scan-sweep":
        return ScanSweep(seed)
    if name == "large-n":
        return LargeN(seed)
    if name == "cli-batch":
        return CliBatch(seed, root, workdir, in_process=traced)
    raise ValueError(f"unknown workload {name!r}")
