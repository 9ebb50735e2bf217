"""Uniform grids and discretised privacy loss densities.

The accountant works on a symmetric uniform grid of n points (n even)

    x_i = -L + i * dx,   dx = 2 L / n,   i = 0 .. n-1,

which covers [-L, L) half-open. A continuous privacy loss density is sampled
pointwise on this grid; the samples, scaled by dx, approximate the measure
each cell carries. The half_swap reordering moves the origin to index 0,
turning the natural left-to-right layout into the wrap-around layout the
discrete Fourier transform expects for a function on a circle.

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


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid on [-half_width, half_width) with an even size."""

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

    def refine(self, factor: int = 2) -> "Grid":
        """Same interval, factor times as many points."""
        if factor < 1:
            raise DomainError(f"refinement factor must be >= 1, got {factor}")
        return Grid(half_width=self.half_width, size=self.size * factor)


@dataclass(frozen=True)
class DiscretePld:
    """Pointwise samples of a privacy loss density on a grid.

    mass is the discrete integral dx * sum(samples); it falls short of one
    by the probability the continuous density puts outside [-L, L).
    """

    grid: Grid
    samples: np.ndarray
    spec: MechanismSpec

    @property
    def mass(self) -> float:
        return float(self.grid.dx * self.samples.sum())


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

    def __init__(self, spec_or_density: MechanismSpec | PldDensity, grid: Grid) -> None:
        density = spec_or_density if isinstance(spec_or_density, PldDensity) else pld_density(
            spec_or_density
        )
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


def discretize(spec_or_density: MechanismSpec | PldDensity, grid: Grid) -> DiscretePld:
    """Samples a privacy loss density on a grid, block by block (see Sampler).

    Raises GridTooSmallError when the grid cuts into a finite support edge.
    """
    sampler = Sampler(spec_or_density, grid)
    samples = np.empty(grid.size)
    for block in blocks(grid.size):
        samples[block] = sampler.block(block)
    return DiscretePld(grid=grid, samples=samples, spec=sampler.density.spec)


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
