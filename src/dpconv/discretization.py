"""Uniform grids and discretised privacy loss densities.

The accountant works on a symmetric uniform grid of n points (n even)

    x_i = -L + i * dx,   dx = 2 L / n,   i = 0 .. n-1,

which covers [-L, L) half-open. A continuous privacy loss density is sampled
pointwise on this grid; the samples, scaled by dx, approximate the measure
each cell carries. Rotated by n/2, the samples have the origin at index 0:
the natural left-to-right layout becomes the wrap-around layout the
discrete Fourier transform expects for a function on a circle. A
ConvolvedPld holds such samples: one mechanism's (from discretize) or a
convolution's. It reads delta(eps) off them as a weighted tail sum and
inverts that sum exactly on the grid. It also records the masses its
warnings are worded from, and the one rule that words them lives here,
next to its tolerances.

Sampling runs in blocks of at most 2^14 points (see blocks), so the
temporaries a density evaluation makes stay cache-sized at any grid size,
and a caller can stream the samples straight into its own buffer.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooSmallError
from .mechanisms import Direction, MechanismSpec, Scheme

# Points per sampling and spectral block: a block of complex128 values is
# 256 KiB, small enough to stay in a core's private cache.
_BLOCK = 2 ** 14
# Largest half-width: the densities and the inversion of delta evaluate
# exp(s) at grid points, and it overflows beyond s = 709.
_MAX_HALF_WIDTH = 700.0
# A mechanism's sampled mass above 1 + _MASS_TOL names it in a warning, and
# so does a composed mass off 1 by more than _MASS_TOL.
# Resolved densities sampled up to 1 + 5e-5 over the test suite (1 +- 1e-15
# on the benchmark's queries); 2^12-point grids at L = 12 give 1.0023 and
# 1.076, and a spike no grid resolves 1e18 and more.
_MASS_TOL = 1e-3
# The edge band is the outer size // _EDGE_CELLS cells at each end of a grid.
# A composition whose samples there carry more than _EDGE_TOL wraps around.
_EDGE_CELLS = 20
_EDGE_TOL = 1e-6


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid on [-half_width, half_width) with an even size.

    half_width is at most 700 (_MAX_HALF_WIDTH), so that exp(+-s) stays a
    finite double at every grid point. A complex array of size values, 16
    bytes each, must lie within what numpy can address.
    """

    half_width: float
    size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise DomainError(f"half_width must be positive and finite, got {self.half_width}")
        if isinstance(self.size, bool) or not isinstance(self.size, numbers.Integral):
            raise DomainError(f"size must be an integer, got {self.size!r}")
        if self.size < 2 or self.size % 2:
            raise DomainError(f"size must be an even integer >= 2, got {self.size}")
        if 16 * int(self.size) > np.iinfo(np.intp).max:  # a numpy integer would wrap
            raise DomainError(f"size {self.size} is too large for numpy to address as complex")
        if not (0.0 < self.dx < math.inf):
            raise DomainError(
                f"grid spacing 2 L / n must be positive and finite, got {self.dx} "
                f"for L = {self.half_width}, n = {self.size}"
            )
        if self.half_width > _MAX_HALF_WIDTH:
            raise DomainError(
                f"half_width must be at most {_MAX_HALF_WIDTH:g}, beyond which exp(s) "
                f"overflows; got {self.half_width}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.size

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Grid points -L, -L + dx, ..., L - dx, or those of indices start..stop-1.

        Each point is -L + i * dx whatever the range, so a slice of the grid
        equals the same slice of the full array bit for bit.
        """
        return -self.half_width + self.dx * np.arange(start, self.size if stop is None else stop)

    def index(self, x: float, side: str = "left") -> int:
        """np.searchsorted(self.points(), x, side) for a number x that is not
        NaN, without building the points: a bisection keyed by the formula
        points() evaluates, -L + i * dx."""
        search = bisect.bisect_right if side == "right" else bisect.bisect_left
        return search(range(self.size), x, key=lambda i: -self.half_width + self.dx * i)

    def refine(self) -> "Grid":
        """Same interval, twice as many points."""
        return Grid(half_width=self.half_width, size=self.size * 2)


@dataclass(frozen=True)
class ConvolvedPld:
    """Density samples of a privacy loss density or of a convolution of them,
    with the figures its warnings are worded from.

    samples live on grid in the natural layout (index 0 at -half_width) and
    are nonnegative. factors lists each (spec, count, direction, sampled
    mass) in the order the spectra multiply; discretize records its one
    mechanism with count 1. mass is the composed mass: bin 0 of the product
    spectrum, or one mechanism's dx * sum(samples). edge_mass is the mass of
    the samples in the grid's edge band (see edge_mass).
    """

    grid: Grid
    samples: np.ndarray
    factors: tuple[tuple[MechanismSpec, int, Direction, float], ...]
    mass: float
    edge_mass: float

    @property
    def warnings(self) -> tuple[str, ...]:
        """Each factor whose sampled mass exceeds 1 + _MASS_TOL, in factor
        order; or else the composed mass if it lies off 1 by more than
        _MASS_TOL; or else the edge-band mass if it exceeds _EDGE_TOL.

        The circular convolution keeps mass: bin 0 of the product spectrum is
        exactly prod mass_i ** count_i, so a composed mass off 1 means only
        that the factors were sampled off 1, under-resolved or cut at +-L,
        though each may lie within the tolerance (at n = 2^16, L = 20 the
        default query's 1 + 7.9e-6 composes to 1.082, and delta is 8% high).
        What reaches beyond +-L wraps around and shows in the edge band
        instead, which is read once the masses hold.
        """
        over = tuple(
            f"sampled mass {mass:.6g} of mechanism ({_name(spec, d)}) exceeds 1: "
            "the grid under-resolves it"
            for spec, _count, d, mass in self.factors
            if mass > 1.0 + _MASS_TOL
        )
        if over:
            return over
        names = " + ".join(f"{c} x mechanism ({_name(spec, d)})" for spec, c, d, _ in self.factors)
        if abs(self.mass - 1.0) > _MASS_TOL:
            if self.mass > 1.0:
                verdict = "exceeds 1: the grid under-resolves"
            else:
                verdict = "falls short of 1: the grid under-resolves or truncates"
            return (f"composed mass {self.mass:.6g} of {names} {verdict} the composition",)
        if self.edge_mass > _EDGE_TOL:
            return (
                f"edge-band mass {self.edge_mass:.3g} of {names} exceeds {_EDGE_TOL:g}: the "
                "composition reaches the edge of the grid and may wrap around; increase the "
                "truncation radius",
            )
        return ()

    def delta(self, epsilon: float) -> float:
        """This density's discretised delta at eps = epsilon, not clamped:

            dx * sum_{l >= l_eps} (1 - exp(eps - x_l)) * samples[l],

        where l_eps is the first grid index strictly right of eps. Past the
        last grid point the sum is empty and 0.
        """
        grid = self.grid
        start = grid.index(epsilon, side="right")
        return grid.dx * float(-np.expm1(epsilon - grid.points(start)) @ self.samples[start:])

    def epsilon(self, target: float) -> float:
        """Smallest eps >= 0 with delta(eps) <= target, solved exactly on the grid.

        With the suffix sums U[l] = dx * sum_{j >= l} samples[j] and
        W[l] = dx * sum_{j >= l} exp(-x_j) samples[j], delta(eps) equals
        U[l] - exp(eps) W[l] for every eps in the cell [x_{l-1}, x_l). delta is
        therefore continuous and decreasing, and over the grid points
        x_m >= 0, delta(x_m) = U[m+1] - exp(x_m) W[m+1]. The first point at or
        below the target closes the cell [x_{m-1}, x_m] holding the crossing,
        where eps = log((U[m] - target) / W[m]) in closed form.
        """
        grid = self.grid
        start = grid.index(0.0)
        points = grid.points(start)
        tail = self.samples[start:]
        upper = grid.dx * np.cumsum(tail[::-1])[::-1]
        weighted = grid.dx * np.cumsum((np.exp(-points) * tail)[::-1])[::-1]
        at_points = np.append(upper[1:] - np.exp(points[:-1]) * weighted[1:], 0.0)
        m = int(np.argmax(at_points <= target))
        lo = float(points[m - 1]) if m else 0.0
        if upper[m] <= target:
            # Only in the first cell: delta(0) meets the target.
            return lo
        eps = math.log((upper[m] - target) / weighted[m]) if weighted[m] > 0.0 else math.inf
        return min(max(eps, lo), float(points[m]))


def blocks(size: int):
    """Slices covering range(size) in order, each at most _BLOCK long.

    No slice straddles size // 2, so a slice stays one contiguous slice in
    the layout rotated by size/2 (see swapped).
    """
    half = size // 2
    for lo, hi in ((0, half), (half, size)):
        for start in range(lo, hi, _BLOCK):
            yield slice(start, min(start + _BLOCK, hi))


def swapped(block: slice, size: int) -> slice:
    """Where a slice from blocks(size) lands in the layout rotated by size/2
    (origin at index 0)."""
    shift = size // 2 if block.start < size // 2 else -(size // 2)
    return slice(block.start + shift, block.stop + shift)


def samples(spec: MechanismSpec, grid: Grid, direction: Direction = Direction.X_OVER_Y):
    """(block, values) for each slice of blocks(grid.size): the samples of
    spec's privacy loss density in direction at the grid indices of block.

    Nothing is evaluated until the first item is taken, so a caller can make
    the generator in one thread and sample in another. Each block is
    evaluated alone, except with replacement: that loss inverse tabulates
    the loss out to the largest |s| of the call, so the density is evaluated
    once over the whole grid and sliced, and every block is the same slice
    of discretize's samples bit for bit. The support is not checked here
    (see check_support).
    """
    if spec.scheme is Scheme.WITH_REPLACEMENT:
        whole = spec.density(grid.points(), direction)
        for block in blocks(grid.size):
            yield block, whole[block]
        return
    for block in blocks(grid.size):
        yield block, spec.density(grid.points(block.start, block.stop), direction)


def check_support(spec: MechanismSpec, grid: Grid) -> None:
    """Raises GridTooSmallError if the density has a finite support edge at
    or outside the grid boundary, since then the grid cannot see where the
    density actually lives; on the symmetric grid the X-over-Y edge decides
    for the mirrored Y-over-X one too. A density supported on all of R keeps
    no sample of its mass beyond the boundary. No bound accounts for that
    loss; a composed mass short of 1 by more than _MASS_TOL reports it (see
    ConvolvedPld.warnings).
    """
    edge = spec.support[0]
    if math.isfinite(edge) and edge <= -grid.half_width:
        raise GridTooSmallError(
            f"support edge {edge:.6g} lies at or below the grid boundary {-grid.half_width:.6g}; "
            "increase the truncation radius"
        )


def _name(spec: MechanismSpec, direction: Direction) -> str:
    """spec's set fields as key=value pairs, then direction if spec.directional."""
    fields = {**vars(spec), "direction": direction if spec.directional else None}
    return ", ".join(f"{k}={getattr(v, 'value', v)}" for k, v in fields.items() if v is not None)


def edge_mass(samples: np.ndarray, grid: Grid) -> float:
    """dx times the samples in the outer size // _EDGE_CELLS cells at each
    end of grid: where a composition that reaches beyond +-L wraps around
    to, and what it carries there before it does."""
    band = grid.size // _EDGE_CELLS
    return grid.dx * float(samples[:band].sum() + samples[grid.size - band :].sum())


def discretize(
    spec: MechanismSpec, grid: Grid, direction: Direction = Direction.X_OVER_Y
) -> ConvolvedPld:
    """Samples a mechanism's privacy loss density in direction on a grid,
    block by block (see samples). It records spec as its one factor and
    dx * sum(samples) as both that factor's mass and the composed one, so
    its warnings are those of the one-fold convolution.

    Raises GridTooSmallError when the grid cuts into a finite support edge.
    """
    check_support(spec, grid)
    values = np.empty(grid.size)
    for block, part in samples(spec, grid, direction):
        values[block] = part
    mass = float(grid.dx * values.sum())
    return ConvolvedPld(grid, values, ((spec, 1, direction, mass),), mass, edge_mass(values, grid))

