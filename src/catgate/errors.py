"""Exception types shared across the package."""


class CatGateError(Exception):
    """Base class for all package-specific errors."""


class GridSupportError(CatGateError):
    """A grid does not cover the support required by an operation."""


class GridMismatchError(CatGateError):
    """Two wavefunctions live on different grids."""


class NyquistError(CatGateError):
    """A grid is too coarse to resolve the declared phase oscillation."""


class ZeroProbabilityError(CatGateError):
    """A homodyne outcome with vanishing probability density was requested."""


class LinearizationDomainError(CatGateError):
    """Measurement outcome outside the domain of the linearized cat parameters."""


class FitRangeError(CatGateError):
    """A fit target value is not reached anywhere on the scanned curve."""


class ConvergenceError(CatGateError):
    """An iterative search failed to bracket or converge."""
