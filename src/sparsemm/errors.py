"""Exception types shared across the package."""


class SparseMMError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SparseMMError, ValueError):
    """Operands have incompatible or malformed shapes."""


class InvalidInputError(SparseMMError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateBoxError(InvalidInputError):
    """A bounding box has zero area or lies outside the image."""


class InfeasibleBudgetError(SparseMMError, ValueError):
    """The total budget cannot satisfy the per-head floor."""
