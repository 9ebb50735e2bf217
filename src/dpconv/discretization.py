"""Uniform grids and discretised privacy loss densities.

The accountant works on a symmetric uniform grid of n points (n even)

    x_i = -L + i * dx,   dx = 2 L / n,   i = 0 .. n-1,

which covers [-L, L) half-open. A continuous privacy loss density is sampled
pointwise on this grid; the samples, scaled by dx, approximate the measure
each cell carries. The half_swap reordering moves the origin to index 0,
turning the natural left-to-right layout into the wrap-around layout the
discrete Fourier transform expects for a function on a circle. A
ConvolvedPld holds such samples: one mechanism's (k = 1, from discretize)
or a k-fold convolution's, and evaluates the tight delta on them.

Sampling runs in blocks of at most 2^14 points (see blocks), so the
temporaries a density evaluation makes stay cache-sized at any grid size,
and a caller can stream the samples straight into its own buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooSmallError
from .mechanisms import MechanismSpec, PldDensity, Scheme, pld_density

# Points per sampling and spectral block: a block of complex128 values is
# 256 KiB, small enough to stay in a core's private cache.
_BLOCK = 2 ** 14
# Largest half-width: the densities and the inversion of delta evaluate
# exp(s) at grid points, and it overflows beyond s = 709.
_MAX_HALF_WIDTH = 700.0

_EMPTY_SUM_WARNING = "epsilon exceeds truncation radius"
_OVER_UNITY_WARNING = "computed delta exceeded 1; the grid under-resolves this composition"


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid on [-half_width, half_width) with an even size.

    half_width is at most 700 (_MAX_HALF_WIDTH), so that exp(+-s) stays a
    finite double at every grid point.
    """

    half_width: float
    size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise DomainError(f"half_width must be positive and finite, got {self.half_width}")
        if self.size < 2 or self.size % 2:
            raise DomainError(f"size must be an even integer >= 2, got {self.size}")
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
        NaN, without building the points.

        The guess from (x + L) / dx is corrected against the points
        themselves, so rounding in the guess cannot move the answer.
        """
        below = (lambda p: p <= x) if side == "right" else (lambda p: p < x)
        guess = (x + self.half_width) / self.dx
        i = 0 if not guess > 0 else self.size if guess >= self.size else int(guess)
        while i > 0 and not below(-self.half_width + self.dx * (i - 1)):
            i -= 1
        while i < self.size and below(-self.half_width + self.dx * i):
            i += 1
        return i

    def refine(self) -> "Grid":
        """Same interval, twice as many points."""
        return Grid(half_width=self.half_width, size=self.size * 2)


@dataclass(frozen=True)
class ConvolvedPld:
    """Density samples of a k-fold convolved privacy loss density.

    samples live on grid in the natural layout (index 0 at -half_width) and
    are nonnegative; k = 1 is a density sampled by discretize. mass is the
    discrete integral dx * sum(samples): it falls short of one by the
    probability outside [-L, L), and approximates the product of the
    constituent masses.
    """

    grid: Grid
    samples: np.ndarray
    k: int

    @property
    def mass(self) -> float:
        return float(self.grid.dx * self.samples.sum())

    def delta(self, epsilon: float) -> tuple[float, int, str | None]:
        """(delta, ell_eps, warning) at epsilon, for this one density.

        delta = dx * sum_{l >= ell_eps} (1 - exp(eps - x_l)) * samples[l],
        where ell_eps is the first grid index strictly right of epsilon.
        warning says why the value was set rather than summed, or is None.
        """
        grid = self.grid
        ell_eps = grid.index(epsilon, side="right")
        if ell_eps >= grid.size:
            return 0.0, ell_eps, _EMPTY_SUM_WARNING
        weights = -np.expm1(epsilon - grid.points(ell_eps))
        value = grid.dx * float(weights @ self.samples[ell_eps:])
        if value > 1.0:
            # A tight delta never exceeds 1; quadrature error compounding as
            # mass**k can. Report 1 and say so rather than returning garbage.
            return 1.0, ell_eps, _OVER_UNITY_WARNING
        return max(value, 0.0), ell_eps, None


def blocks(size: int):
    """Slices covering range(size) in order, each at most _BLOCK long.

    No slice straddles size // 2, so a slice moved by half_swap stays one
    contiguous slice (see swapped).
    """
    half = size // 2
    for lo, hi in ((0, half), (half, size)):
        for start in range(lo, hi, _BLOCK):
            yield slice(start, min(start + _BLOCK, hi))


def swapped(block: slice, size: int) -> slice:
    """Where half_swap moves a slice from blocks(size)."""
    shift = size // 2 if block.start < size // 2 else -(size // 2)
    return slice(block.start + shift, block.stop + shift)


class Sampler:
    """Samples of a privacy loss density on a grid, one block at a time.

    block(b) returns the samples at the grid indices of b, a slice from
    blocks(grid.size), without evaluating the rest of the grid. The
    with-replacement density is the exception: its loss inverse tabulates
    the loss out to the largest |s| of the call, so it is evaluated once
    over the whole grid, kept, and sliced; every block is then the same
    slice of discretize's samples bit for bit.

    Raises GridTooSmallError if the density has a finite support edge at or
    outside the grid boundary, since then the grid cannot see where the
    density actually lives. Densities supported on all of R merely lose
    tail mass, which the periodisation bound accounts for.
    """

    def __init__(self, spec: MechanismSpec, grid: Grid) -> None:
        density = pld_density(spec)
        _check_support(density, grid)
        self.density = density
        self.grid = grid
        self._whole: np.ndarray | None = None

    def block(self, block: slice) -> np.ndarray:
        if self.density.spec.scheme is Scheme.WITH_REPLACEMENT:
            if self._whole is None:
                self._whole = np.asarray(self.density(self.grid.points()), dtype=float)
            return self._whole[block]
        return np.asarray(self.density(self.grid.points(block.start, block.stop)), dtype=float)

    def compare(self, other: "Sampler") -> int:
        """-1, 0 or 1 as this density's samples.tobytes() sorts before, equal
        to or after other's on the same grid.

        Blocks are evaluated from the left edge and the first differing one
        decides, so neither full sample array is built.
        """
        for block in blocks(self.grid.size):
            mine, theirs = self.block(block).tobytes(), other.block(block).tobytes()
            if mine != theirs:
                return -1 if mine < theirs else 1
        return 0


def _check_support(density: PldDensity, grid: Grid) -> None:
    lo, hi = density.support_lo, density.support_hi
    if math.isfinite(lo) and lo <= -grid.half_width:
        raise GridTooSmallError(
            f"support edge {lo:.6g} lies at or below the grid boundary {-grid.half_width:.6g}; "
            "increase the truncation radius"
        )
    if math.isfinite(hi) and hi >= grid.half_width:
        raise GridTooSmallError(
            f"support edge {hi:.6g} lies at or above the grid boundary {grid.half_width:.6g}; "
            "increase the truncation radius"
        )


def discretize(spec: MechanismSpec, grid: Grid) -> ConvolvedPld:
    """Samples a mechanism's privacy loss density on a grid, block by block
    (see Sampler), as a density with k = 1.

    Raises GridTooSmallError when the grid cuts into a finite support edge.
    """
    sampler = Sampler(spec, grid)
    samples = np.empty(grid.size)
    for block in blocks(grid.size):
        samples[block] = sampler.block(block)
    return ConvolvedPld(grid=grid, samples=samples, k=1)


def half_swap(values: np.ndarray) -> np.ndarray:
    """Rotates a vector by half its length: out[i] = values[(i + n/2) mod n].

    Maps the grid layout (origin at index n/2) to the DFT layout (origin at
    index 0) and back; applying it twice is the identity.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    if n % 2:
        raise DomainError(f"half_swap needs an even length, got {n}")
    return np.roll(values, -(n // 2), axis=-1)
