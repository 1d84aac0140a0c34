"""The README's Library example runs as written and gives what its comments say."""

import re
from pathlib import Path

import numpy as np
import pytest

from pcmanip import additive_weights, emi, ranking_of

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's Library heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_example_gives_its_comments(capsys):
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert capsys.readouterr().out.count("\n") >= 4  # each print ran
    result, tip = names["result"], names["tip"]
    np.testing.assert_allclose(additive_weights(result.projected), [0.2, -0.3, -0.3, -3.4, 3.8],
                               rtol=0, atol=1e-12)
    assert emi(names["A"], result.projected) == pytest.approx(12 / 7, rel=1e-15)
    ranking = ranking_of(additive_weights(tip.tipped))
    assert ranking.position(3) < ranking.position(2)  # 3 now above 2
