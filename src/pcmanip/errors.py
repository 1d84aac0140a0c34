"""Exception hierarchy shared across the package.

All indices reported in error messages are 1-based, matching the
convention used in the CLI and in printed reports.
"""


class PcmError(ValueError):
    """Base class for all validation and usage errors."""


class NotSquareError(PcmError):
    def __init__(self, shape):
        super().__init__(f"matrix must be square with n >= 2, got shape {shape}")
        self.shape = shape


class EntryError(PcmError):
    """One entry, at 1-based (i, j), has a value outside its domain."""

    requirement = "is out of range"

    def __init__(self, i, j, value):
        super().__init__(f"entry ({i},{j}) = {value} {self.requirement}")
        self.i, self.j, self.value = i, j, value


class NonFiniteEntryError(EntryError):
    requirement = "must be finite"


class NonPositiveEntryError(EntryError):
    requirement = "must be strictly positive"


class RowSumOverflowError(EntryError):
    requirement = "drives the row sums, or the gap between two of them, beyond float64"


class ResidualError(PcmError):
    """Entries (i, j) and (j, i), 1-based, break a pairing rule."""

    rule = "a pairing rule"

    def __init__(self, i, j, residual):
        super().__init__(
            f"entries ({i},{j}) and ({j},{i}) violate {self.rule} = {residual:.3e}"
        )
        self.i, self.j, self.residual = i, j, residual


class ReciprocityViolationError(ResidualError):
    rule = "reciprocity: |m_ij*m_ji - 1|"


class AntisymmetryViolationError(ResidualError):
    rule = "antisymmetry: |a_ij + a_ji|"


class DimensionMismatchError(PcmError):
    def __init__(self, shape_a, shape_b):
        super().__init__(f"dimension mismatch: {shape_a} vs {shape_b}")
        self.shape_a, self.shape_b = shape_a, shape_b


class NonPositiveWeightError(PcmError):
    def __init__(self, k, value):
        super().__init__(f"weight {k} = {value} must be positive and finite")
        self.k, self.value = k, value


class OverflowDomainError(EntryError):
    requirement = "exceeds the exponent range of float64"


class InvalidWinnerError(PcmError):
    def __init__(self, winner, i, j):
        super().__init__(f"winner {winner} must be one of the pair ({i},{j})")
        self.winner = winner


class NonPositiveDeltaError(PcmError):
    def __init__(self, delta):
        super().__init__(f"delta must be positive and finite, got {delta}")
        self.delta = delta
