"""Core PCM types: validation, scale conversion, weights, rankings,
and Frobenius geometry.

Two representations are used throughout:

* multiplicative: strictly positive entries with m_ij * m_ji = 1
  (ratio judgments, Saaty style);
* additive: real entries with a_ij + a_ji = 0 (log-scale judgments).

The two are linked by the entry-wise natural log / exp, and the engine
works additively.  Matrix entries are stored 0-based in numpy arrays;
every index that crosses an API boundary (pairs, errors, reports) is
1-based.  Every reduction over a matrix reads it in C order, so an array
in any memory layout gives the bits of its C-ordered copy.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntisymmetryViolationError,
    DimensionMismatchError,
    NonFiniteEntryError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NotSquareError,
    OverflowDomainError,
    PcmError,
    ReciprocityViolationError,
    RowSumOverflowError,
)

# largest additive entry exp() can map into a finite float64
_MAX_EXP = np.log(np.finfo(np.float64).max)

_WORKSPACE_MIN = 16384  # entries: 128 KiB, glibc's default mmap threshold
_WORKSPACE_MAX = 1 << 20  # entries: 8 MiB, the most a thread keeps (n <= 1024)
_workspace_local = threading.local()


def _workspace(x: np.ndarray) -> np.ndarray | None:
    """out= for an n x n ufunc temporary shaped as x, of float64 operands (_as_floats gives
    float64, and a PCM holds its validator's copy); the floor and cap rules live here alone.
    None, so the ufunc allocates, below _WORKSPACE_MIN entries or over _WORKSPACE_MAX; else
    a C-ordered view, as reductions read, of the thread's buffer (grown, kept until it ends)."""
    if not _WORKSPACE_MIN <= x.size <= _WORKSPACE_MAX:
        return None
    buffer = getattr(_workspace_local, "buffer", None)
    if buffer is None or buffer.size < x.size:
        buffer = _workspace_local.buffer = np.empty(x.size)
    return buffer[:x.size].reshape(x.shape)


def _positive_finite(value) -> bool:
    """0 < value < inf: false for NaN, an array that is not 0-d, or a value that is not real."""
    try:  # getattr, not np.ndim, which costs 2 us for a float; a list fails the comparison
        return getattr(value, "ndim", 0) == 0 and 0 < value < np.inf
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validators and ranking ties."""

    reciprocity: float = 1e-8
    ranking_tie: float = 1e-9

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _positive_finite(value):
                raise PcmError(f"tolerance {name} must be positive and finite, got {value}")


DEFAULT_TOLERANCES = Tolerances()


def _tolerances(tol) -> Tolerances:
    """tol, which must be a Tolerances: a bare float has no field to read."""
    if not isinstance(tol, Tolerances):
        raise PcmError(f"tol = {tol!r} must be a Tolerances")
    return tol


def _integer(value, name: str) -> int:
    """operator.index(value), so a numpy integer or a bool comes back an int; 1.0 is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise PcmError(f"{name} = {value!r} must be an integer") from None


def _size(n) -> int:
    """n, an integer >= 2: the size of every problem, as _square reads it off a matrix."""
    if (n := _integer(n, "n")) < 2:
        raise PcmError(f"n must be >= 2, got {n}")
    return n


def _as_floats(x, vector: bool = False) -> np.ndarray:
    try:  # numpy would drop an imaginary part with only a warning; a list of numbers is read once
        found = x if isinstance(x, np.ndarray) else np.asarray(x)
        found = np.asarray(found.tolist()) if found.dtype.kind == "O" else found  # by what it holds
        if found.dtype.kind == "c":
            raise TypeError("complex values are not real numbers")
        values = np.asarray(found if found.dtype.kind in "biuf" else x, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        hint = x._hint if isinstance(x, _Pcm) and not vector else e  # a matrix: name its conversion
        raise PcmError(f"expected an array of numbers, got {type(x).__name__}: {hint}") from None
    if vector and values.ndim != 1:  # a PcmError is a ValueError: raised outside the try
        raise PcmError(f"expected a vector of weights, got shape {values.shape}")
    return values


def _square(values: np.ndarray) -> np.ndarray:
    """values, which must be 2-D and n x n with n >= 2: the size rule of every matrix."""
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 2:
        raise NotSquareError(values.shape)
    return values


def _as_square(matrix) -> np.ndarray:
    """The validators' private copy, C-ordered like every array a reduction reads."""
    return _square(np.array(_as_floats(matrix), order="C"))


@dataclass(frozen=True, init=False)
class _Pcm:
    """A pairwise comparison matrix that passed its scale's validator, with read-only values;
    constructing one runs that validator at the default Tolerances."""

    values: np.ndarray

    @classmethod
    def _trusted(cls, values: np.ndarray):
        """The door past the validator, for the array it or a conversion has just made."""
        values.setflags(write=False)
        object.__setattr__(pcm := object.__new__(cls), "values", values)
        return pcm

    def __reduce__(self):  # so copy, deepcopy and pickle give a read-only PCM too
        return self._trusted, (self.values,)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class MultiplicativePcm(_Pcm):
    """A validated multiplicative pairwise comparison matrix."""
    _hint = "additive input needs to_additive first"
    __new__ = lambda cls, values: validate_multiplicative(values)


class AdditivePcm(_Pcm):
    """A validated additive (antisymmetric) pairwise comparison matrix."""
    _hint = "multiplicative input needs to_multiplicative first"
    __new__ = lambda cls, values: validate_additive(values)


def additive_values(a) -> np.ndarray:
    """The entries of an AdditivePcm, or an array-like read as additive
    values; a MultiplicativePcm must be converted with to_additive first."""
    return a.values if isinstance(a, AdditivePcm) else _as_floats(a)


def pair_values(a, pair) -> np.ndarray:
    """additive_values(a), which must be pair.n x pair.n."""
    values = additive_values(a)
    if values.shape != (pair.n, pair.n):
        raise DimensionMismatchError(values.shape, (pair.n, pair.n))
    return values


def matched_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    """additive_values of two matrices, which must have the same shape."""
    va, vb = additive_values(a), additive_values(b)
    if va.shape != vb.shape:
        raise DimensionMismatchError(va.shape, vb.shape)
    return va, vb


@dataclass(frozen=True)
class Ranking:
    """Alternatives grouped by descending weight; 1-based indices.

    Each group collects indices whose weights are equal within the
    ranking-tie tolerance; groups are strictly decreasing in weight.
    """

    groups: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(k for group in self.groups for k in group)

    def position(self, k: int) -> int:
        """1-based rank of alternative k (tied alternatives share a rank)."""
        for rank, group in enumerate(self.groups, start=1):
            if k in group:
                return rank
        raise PcmError(f"alternative {k} not in ranking")

    def __str__(self) -> str:
        parts = []
        for group in self.groups:
            if len(group) == 1:
                parts.append(str(group[0]))
            else:
                parts.append("{" + ",".join(map(str, group)) + "}")
        return "(" + ", ".join(parts) + ")"


def _raise_first(mask: np.ndarray, error, values: np.ndarray) -> None:
    """Raise error(*index, value) at mask's first True entry in C order, index 1-based.  A
    pairing residual is exactly symmetric (IEEE * and + commute): its first True is upper."""
    if mask.any():
        index = np.unravel_index(np.argmax(mask), mask.shape)
        raise error(*(int(k) + 1 for k in index), values[index])


def validate_multiplicative(matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> MultiplicativePcm:
    """A MultiplicativePcm as it is; anything else checked for finiteness, positivity and
    reciprocity, never mutated.  A matrix is accepted from the range of m_ij * m_ji: positive
    entries whose products, the diagonal's m_ii^2 included, all lie within tol.reciprocity of 1
    pass.  Only a rejected one is searched once, property by property, on that residual
    |m_ij * m_ji - 1|, to name the first violation."""
    return matrix if isinstance(matrix, MultiplicativePcm) else _check_multiplicative(matrix, tol)


@np.errstate(over="ignore", invalid="ignore")  # inf * 0 or an overflow fails acceptance
def _check_multiplicative(matrix, tol: Tolerances) -> MultiplicativePcm:
    tol, values = _tolerances(tol), _as_square(matrix)
    products = np.multiply(values, values.T, out=_workspace(values))
    # min and max propagate NaN, so a NaN or inf entry fails here too
    if not (np.minimum.reduce(values, axis=None) > 0
            and np.maximum.reduce(products, axis=None) - 1.0 <= tol.reciprocity
            and 1.0 - np.minimum.reduce(products, axis=None) <= tol.reciprocity):
        residual = np.abs(np.subtract(products, 1.0, out=products), out=products)
        _raise_first(~np.isfinite(values), NonFiniteEntryError, values)
        _raise_first(values <= 0, NonPositiveEntryError, values)
        _raise_first(residual > tol.reciprocity, ReciprocityViolationError, residual)
    return MultiplicativePcm._trusted(values)


def validate_additive(matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> AdditivePcm:
    """An AdditivePcm as it is; else checked for finiteness and |a_ij + a_ji| <= tol.reciprocity
    (the image of reciprocity; it covers the zero diagonal) in one fused pass, a rejected matrix
    searched once to name the first violation; then that the row sums and their gaps are finite."""
    return matrix if isinstance(matrix, AdditivePcm) else _check_additive(matrix, tol)


@np.errstate(over="ignore", invalid="ignore")  # non-finite results fail below
def _check_additive(matrix, tol: Tolerances) -> AdditivePcm:
    tol, values = _tolerances(tol), _as_square(matrix)
    residual = np.add(values, values.T, out=_workspace(values))
    np.abs(residual, out=residual)
    if not np.maximum.reduce(residual, axis=None) <= tol.reciprocity:  # NaN and inf fail too
        _raise_first(~np.isfinite(values), NonFiniteEntryError, values)
        _raise_first(residual > tol.reciprocity, AntisymmetryViolationError, residual)
    sums = _row_sums(values)
    if not np.maximum.reduce(sums) - np.minimum.reduce(sums) < np.inf:  # also true for NaN
        i = np.argmax(np.abs(sums))
        j = np.argmax(np.abs(values[i]))
        raise RowSumOverflowError(int(i) + 1, int(j) + 1, values[i, j])
    return AdditivePcm._trusted(values)


def to_additive(m) -> AdditivePcm:
    """Entry-wise natural logarithm of validate_multiplicative(m)."""
    return AdditivePcm._trusted(np.log(validate_multiplicative(m).values))


def to_multiplicative(a) -> MultiplicativePcm:
    """Entry-wise exponential of validate_additive(a)."""
    values = validate_additive(a).values
    _raise_first(np.abs(values) >= _MAX_EXP, OverflowDomainError, values)
    return MultiplicativePcm._trusted(np.exp(values))


def gmm_weights(m) -> np.ndarray:
    """Geometric mean of each row of validate_multiplicative(m): exp of the additive weights."""
    return np.exp(additive_weights(to_additive(m)))


def additive_weights(a) -> np.ndarray:
    """Row means, ``_row_sums`` over n.  An AdditivePcm is trusted; other input must be square
    with n >= 2, and is not validated."""
    values = a.values if isinstance(a, AdditivePcm) else _square(_as_floats(a))
    return _row_sums(values) / values.shape[1]


def _row_sums(values: np.ndarray) -> np.ndarray:
    """The one row-sum reduction: np.sum(np.ascontiguousarray(values), axis=1) bit for bit."""
    return np.add.reduce(np.ascontiguousarray(values), axis=1)


@np.errstate(over="ignore")  # a sum that overflows is redone below
def normalize_weights(w) -> np.ndarray:
    """Scale a positive, finite weight vector to sum to one."""
    w = _as_floats(w, vector=True)
    _raise_first(~((0 < w) & (w < np.inf)), NonPositiveWeightError, w)  # NaN fails both
    if (total := w.sum()) == np.inf:  # as overflow_safe does: redo it scaled by a power of 2
        w = np.ldexp(w, -np.frexp(w.max())[1])
        total = w.sum()
    return w / total


@np.errstate(invalid="ignore")  # inf - inf is NaN, which starts a group
def ranking_of(weights, tol: Tolerances = DEFAULT_TOLERANCES) -> Ranking:
    """Rank alternatives by descending weight, grouping near-equal ones.

    Grouping chains: consecutive weights within the tie tolerance join
    the same group.  Within a group, indices ascend.
    """
    w, tie = _as_floats(weights, vector=True), _tolerances(tol).ranking_tie
    order = np.argsort(-w, kind="stable")  # the key (-w[k], k)
    ws = w[order]
    ks = (order + 1).tolist()
    cuts = (np.flatnonzero(~(np.abs(ws[:-1] - ws[1:]) <= tie)) + 1).tolist()
    groups = (ks[a:b] for a, b in zip([0, *cuts], [*cuts, len(ks)]) if a < b)
    return Ranking(tuple(tuple(sorted(g)) if len(g) > 1 else tuple(g) for g in groups))


@np.errstate(over="ignore", invalid="ignore")  # a decorator costs half what a with block does
def overflow_safe(reduce, *arrays):
    """reduce(*arrays) for a reduce that scales with its arguments, as a float or an array;
    only a result with an entry that overflows (inf, or NaN from inf - inf) is redone on the
    arrays scaled exactly by a power of two, so every result that fits in float64 keeps its bits."""
    result = reduce(*arrays)
    if not (np.isfinite(result).all() if getattr(result, "ndim", 0) else math.isfinite(result)):
        e = np.frexp(max(np.abs(x).max() for x in arrays))[1]
        result = np.ldexp(reduce(*(np.ldexp(x, -e) for x in arrays)), e)
    return result if getattr(result, "ndim", 0) else float(result)


def frobenius_distance(a, b) -> float:
    return overflow_safe(_distance, *matched_values(a, b))


def _distance(x: np.ndarray, y: np.ndarray):
    """np.linalg.norm of x - y written in C order, bit for bit, without its Python-level wrapper:
    the square root of d . d, with d that difference raveled."""
    d = np.subtract(x, y, order="C").ravel()
    return np.sqrt(d.dot(d))
