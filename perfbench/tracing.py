"""Per-layer tracing from outside the package.

``Tracer.install`` wraps pcmanip's public functions.  A function is often
bound into several modules (``project_to_tie`` is an attribute of
``pcmanip``, ``pcmanip.projection``, ``pcmanip.manipulation`` and
``pcmanip.cli``), so every module attribute that refers to it is
replaced.  A function a later version no longer has is skipped and
reports zero calls.

Each call records a span (id, parent id, name, operation id, start,
end) in memory; ``layer_metrics`` turns the spans of the timed
operations into per-operation figures.  A span's self time is its
duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module that defines each traced function
TRACED = (
    ("pcmanip.cli", ("parse_matrix_file", "cmd_validate", "cmd_weights", "cmd_convert",
                     "cmd_project", "cmd_tip", "cmd_emi", "cmd_scan")),
    ("pcmanip.core", ("validate_multiplicative", "validate_additive", "to_additive",
                      "to_multiplicative", "additive_weights", "gmm_weights",
                      "normalize_weights", "ranking_of")),
    ("pcmanip.tiespace", ("tie_basis",)),
    ("pcmanip.projection", ("gram_schmidt", "project_to_tie", "projection_coefficients",
                            "hyperplane_oracle_project")),
    ("pcmanip.manipulation", ("scan_all_pairs", "pair_report", "emi", "tip_pair",
                              "verify_manipulation")),
)
CLI_COMMANDS = TRACED[0][1][1:]

# as written to the spans file: name is an index into its "names" list,
# times are nanoseconds from the first span's start
SPAN_FIELDS = ("id", "parent", "name", "op", "start_ns", "end_ns")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [0]
        self._last_id = 0
        self._restore = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pcmanip" or name.startswith("pcmanip."))]
        for home, names in TRACED:
            for name in names:
                fn = getattr(sys.modules.get(home), name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            span_id = self._last_id
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, self.op, start, end))
        return traced


def layer_metrics(spans, n_ops):
    """Per-operation figures over the spans of timed operations (op >= 0)."""
    timed = [s for s in spans if s[3] >= 0]
    child = defaultdict(float)
    for _, parent, _, _, start, end in timed:
        child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span_id, _, name, _, start, end in timed:
        total[name] += end - start
        own[name] += end - start - child[span_id]
        calls[name] += 1

    def ms(seconds):
        return 1000.0 * seconds / n_ops

    def ms_of(*names):
        return ms(sum(total[n] for n in names))

    projections = calls["project_to_tie"]
    return {
        "cli.parse_ms": ms_of("parse_matrix_file"),
        "cli.render_ms": ms(sum(own[n] for n in CLI_COMMANDS)),
        "core.validate_ms": ms_of("validate_multiplicative", "validate_additive"),
        "core.convert_ms": ms_of("to_additive", "to_multiplicative"),
        "core.weights_ms": ms_of("additive_weights", "gmm_weights", "normalize_weights"),
        "core.ranking_ms": ms_of("ranking_of"),
        "tiespace.tie_basis.calls": calls["tie_basis"] / n_ops,
        "tiespace.tie_basis_ms": ms_of("tie_basis"),
        "projection.gram_schmidt.calls": calls["gram_schmidt"] / n_ops,
        "projection.gram_schmidt_ms": ms_of("gram_schmidt"),
        "projection.bases_per_projection":
            calls["gram_schmidt"] / projections if projections else 0.0,
        "projection.project_to_tie.calls": projections / n_ops,
        "projection.project_to_tie.self_ms": ms(own["project_to_tie"]),
        "projection.coefficients_ms": ms_of("projection_coefficients"),
        "projection.oracle_ms": ms_of("hyperplane_oracle_project"),
        "manipulation.scan_all_pairs.self_ms": ms(own["scan_all_pairs"]),
        "manipulation.pair_report.self_ms": ms(own["pair_report"]),
        "manipulation.emi_ms": ms_of("emi"),
        "manipulation.tip_ms": ms_of("tip_pair"),
        "manipulation.verify_ms": ms_of("verify_manipulation"),
    }
