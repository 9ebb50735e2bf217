"""Exception types shared across the package.

The split matters for the command line tool: domain errors (bad parameter
combinations, grids that cannot represent the requested computation) map to
a different exit code than iterative procedures that failed to converge.
"""


class AccountingError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AccountingError, ValueError):
    """A parameter or target lies outside the mathematically valid domain."""


class GridTooSmallError(DomainError):
    """The grid truncation radius cuts into the support of the density."""


class SpectralResidueError(AccountingError):
    """The imaginary residue after an inverse transform is implausibly large.

    A residue above the tolerance almost always means the input vector was
    corrupted (NaNs, wrong scaling, or a non-density), so this is raised
    rather than silently discarding the imaginary part.
    """


class NonConvergenceError(AccountingError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class RootFindingError(NonConvergenceError):
    """The bracketed Newton solver for a loss inverse did not converge."""


class TargetDeltaTooLarge(DomainError):
    """The requested delta target is above delta(0); no epsilon >= 0 is needed."""


class TargetDeltaBelowFloor(DomainError):
    """The requested delta target is below what the truncated grid can resolve."""
