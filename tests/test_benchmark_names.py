"""Every pcmanip name the benchmark reads resolves on the package.

The benchmark in perfbench/ reaches the package by attribute at call time
(``pcmanip.project_to_tie``, or ``pc.emi`` after ``pc = pcmanip``), so a name
that leaves the package fails the benchmark's operations only once they run.
This reads the benchmark's sources as text; it neither runs nor changes them."""

import re
from functools import reduce
from pathlib import Path

import pcmanip
import pcmanip.cli  # noqa: F401  as the benchmark imports it, which loads every module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHAIN = re.compile(r"\b(?:pcmanip|pc)((?:\.[A-Za-z_]\w*)+)")


def resolves(chain: str) -> bool:
    try:
        reduce(getattr, chain.split("."), pcmanip)
    except AttributeError:
        return False
    return True


def test_every_name_the_benchmark_reads_resolves():
    chains = sorted({m.group(1)[1:] for path in PERFBENCH.glob("*.py")
                     for m in CHAIN.finditer(path.read_text(encoding="utf-8"))})
    assert "hyperplane_oracle_project" in chains  # the large-n op's projection
    assert [chain for chain in chains if not resolves(chain)] == []
