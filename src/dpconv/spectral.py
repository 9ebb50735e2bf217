"""Convolution powers of discretised densities via the discrete Fourier transform.

Composing k identical mechanisms convolves the privacy loss density with
itself k times. On the periodic grid this is a circular convolution, which
the DFT diagonalises: transform once, raise the spectrum to the k-th power
elementwise, transform back. The cost is two transforms regardless of k,
against k-1 direct convolutions.

Scaling conventions. Let y = half_swap(samples) * dx be the cell masses in
DFT layout. Then

    C_k = half_swap(inverse_dft(dft(y) ** k)) / dx

are density samples of the k-fold circular convolution on the original grid,
and dx * sum(C_k) = mass ** k is preserved exactly up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DiscretePld, Grid, half_swap
from .errors import DomainError, GridMismatchError, SpectralResidueError

_IMAG_RESIDUE_TOL = 1e-6


def dft(values: np.ndarray) -> np.ndarray:
    """Forward discrete Fourier transform, unnormalised sum convention."""
    return np.fft.fft(values)


def inverse_dft(values: np.ndarray) -> np.ndarray:
    """Inverse discrete Fourier transform, 1/n convention."""
    return np.fft.ifft(values)


def _spectrum_power(spectrum: np.ndarray, k: int) -> np.ndarray:
    """Elementwise k-th power by repeated squaring.

    Stable for very large k because every spectrum entry of a subprobability
    mass vector has modulus at most one, so intermediate squares never grow.
    The first squaring allocates the working square, every later product is
    taken in place, and the caller's spectrum is left untouched.
    """
    result: np.ndarray | None = None
    base = spectrum
    while k:
        if k & 1:
            if result is None:
                result = base.copy()
            else:
                np.multiply(result, base, out=result)
        k >>= 1
        if k:
            base = base * base if base is spectrum else np.multiply(base, base, out=base)
    assert result is not None
    return result


@dataclass(frozen=True)
class ConvolvedPld:
    """Density samples of a k-fold convolved privacy loss density.

    samples live on grid in the natural layout (index 0 at -half_width) and
    are clamped to be nonnegative; mass approximates the product of the
    constituent masses.
    """

    grid: Grid
    samples: np.ndarray
    k: int

    @property
    def mass(self) -> float:
        return float(self.grid.dx * self.samples.sum())


def _finish(spectrum: np.ndarray, grid: Grid, k: int) -> ConvolvedPld:
    raw = inverse_dft(spectrum)
    scale = max(float(np.abs(raw).max()), 1e-300)
    residue = float(np.abs(raw.imag).max()) / scale
    if residue > _IMAG_RESIDUE_TOL:
        raise SpectralResidueError(
            f"imaginary residue {residue:.3g} after the inverse transform exceeds "
            f"{_IMAG_RESIDUE_TOL:.0e}; the input was likely not a real density"
        )
    samples = half_swap(raw.real) / grid.dx
    np.maximum(samples, 0.0, out=samples)
    return ConvolvedPld(grid=grid, samples=samples, k=k)


def convolution_power(pld: DiscretePld, k: int) -> ConvolvedPld:
    """k-fold circular self-convolution of a discretised density."""
    if k < 1:
        raise DomainError(f"composition count k must be >= 1, got {k}")
    spectrum = dft(half_swap(pld.samples) * pld.grid.dx)
    return _finish(_spectrum_power(spectrum, k), pld.grid, k)


def convolution_product(
    plds: list[DiscretePld], counts: list[int] | None = None
) -> ConvolvedPld:
    """Convolution of several discretised densities, each repeated count times.

    All operands must share one grid object value; mixing grids silently
    reinterprets abscissae, so that is an error.
    """
    if not plds:
        raise DomainError("need at least one density to convolve")
    counts = [1] * len(plds) if counts is None else list(counts)
    if len(counts) != len(plds):
        raise DomainError(f"got {len(plds)} densities but {len(counts)} counts")
    if any(c < 1 for c in counts):
        raise DomainError(f"all counts must be >= 1, got {counts}")
    grid = plds[0].grid
    for pld in plds[1:]:
        if pld.grid != grid:
            raise GridMismatchError(
                f"cannot convolve densities on different grids: {pld.grid} vs {grid}"
            )
    # Multiply in an order canonicalised by the operand bytes, so that
    # permuting the input list reproduces the result bit for bit (elementwise
    # rounding is not symmetric under operand swaps on fused-multiply-add
    # hardware, the mathematical product of course is).
    ordered = sorted(zip(plds, counts), key=lambda item: item[0].samples.tobytes())
    spectrum = np.ones(grid.size, dtype=complex)
    for pld, count in ordered:
        spectrum *= _spectrum_power(dft(half_swap(pld.samples) * grid.dx), count)
    return _finish(spectrum, grid, sum(counts))
