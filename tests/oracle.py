"""What each validator must reach, written once in plain vectorized numpy, apart from
``src/``'s search: the ordered scans (non-finite, then non-positive on the multiplicative
scale, then the pairing residual on the upper triangle, the diagonal included), each naming
its first entry in row-major order, 1-based; then, for an additive matrix, row sums or their
gaps beyond float64.  An outcome is the error to raise, or the float copy to accept."""

import numpy as np

from pcmanip import DEFAULT_TOLERANCES
from pcmanip.errors import (
    AntisymmetryViolationError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    ReciprocityViolationError,
    RowSumOverflowError,
)


def first_violation(mask, error, source):
    """error at the first True entry of mask in row-major order, or None."""
    if mask.any():
        i, j = np.argwhere(mask)[0]
        return error(int(i) + 1, int(j) + 1, source[i, j])
    return None


def _outcome(values, scans):
    return next((err for scan in scans if (err := first_violation(*scan)) is not None), values)


@np.errstate(over="ignore", invalid="ignore")
def multiplicative_outcome(matrix, tol=DEFAULT_TOLERANCES):
    values = np.array(matrix, dtype=float)
    residual = np.abs(values * values.T - 1.0)
    return _outcome(values, [
        (~np.isfinite(values), NonFiniteEntryError, values),
        (values <= 0, NonPositiveEntryError, values),
        (np.triu(residual > tol.reciprocity), ReciprocityViolationError, residual),
    ])


@np.errstate(over="ignore", invalid="ignore")
def additive_outcome(matrix, tol=DEFAULT_TOLERANCES):
    values = np.array(matrix, dtype=float)
    residual = np.abs(values + values.T)
    outcome = _outcome(values, [
        (~np.isfinite(values), NonFiniteEntryError, values),
        (np.triu(residual > tol.reciprocity), AntisymmetryViolationError, residual),
    ])
    sums = values.sum(axis=1)
    if outcome is not values or sums.max() - sums.min() < np.inf:
        return outcome
    i = np.argmax(np.abs(sums))
    j = np.argmax(np.abs(values[i]))
    return RowSumOverflowError(int(i) + 1, int(j) + 1, values[i, j])
