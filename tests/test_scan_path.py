"""The all-pairs scan against the construction it replaced, bit for bit.

The reference lists the pairs with np.triu_indices, orders them with the
three-key np.lexsort((j, i, emis)) and builds each row through
PairScanRow's own constructor.  The scan must give the same rows, field
by field, with the same types, on matrices whose EMIs are all distinct
and on ones full of EMI ties."""

import numpy as np
import pytest

from pcmanip import AdditivePcm, scan_all_pairs
from pcmanip.manipulation import PairScanRow
from pcmanip.projection import tie_costs

from refdata import random_antisymmetric

FIELD_TYPES = (int, int, float, float, float)


def reference_rows(values):
    n = values.shape[0]
    row_sums = values.sum(axis=1)
    i, j = np.triu_indices(n, 1)
    f = row_sums[i] - row_sums[j]
    distances, emis = tie_costs(f, n)
    order = np.lexsort((j, i, emis))
    columns = (i[order] + 1, j[order] + 1, emis[order], distances[order], f[order])
    return [PairScanRow(*row) for row in zip(*(c.tolist() for c in columns))]


def small_integer_antisymmetric(rng, n):
    """Entries in -3..3: many pairs share a row-sum gap, so EMIs tie."""
    upper = np.triu(rng.integers(-3, 4, size=(n, n)).astype(float), 1)
    return upper - upper.T


MATRICES = {
    "uniform": lambda rng, n: random_antisymmetric(rng, n),
    "small-integer": small_integer_antisymmetric,
    "zero": lambda rng, n: np.zeros((n, n)),
}


@pytest.mark.parametrize("kind", MATRICES)
@pytest.mark.parametrize("n", range(2, 41))
def test_rows_match_the_old_construction(rng, kind, n):
    values = MATRICES[kind](rng, n)
    want = reference_rows(values)
    for a in (values, AdditivePcm(values)):
        table = scan_all_pairs(a)
        assert table.n == n
        assert len(table.rows) == len(want) == n * (n - 1) // 2
        for got, ref in zip(table.rows, want):
            assert type(got) is PairScanRow
            assert len(got) == 5
            assert got._asdict() == ref._asdict()
            for field, kind_of, expected in zip(got, FIELD_TYPES, ref):
                assert type(field) is kind_of
                assert field == expected and repr(field) == repr(expected)

