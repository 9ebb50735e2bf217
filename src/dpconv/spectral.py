"""Convolution powers of discretised densities via the discrete Fourier transform.

Composing k identical mechanisms convolves the privacy loss density with
itself k times. On the periodic grid this is a circular convolution, which
the DFT diagonalises: transform once, raise the spectrum to the k-th power
elementwise, transform back. The cost is two transforms regardless of k,
against k-1 direct convolutions.

Scaling conventions. Let y = half_swap(samples) * dx be the cell masses in
DFT layout, FFT the unnormalised forward transform and IFFT its inverse
with the 1/n factor. Then

    C_k = half_swap(IFFT(FFT(y) ** k)) / dx

are density samples of the k-fold circular convolution on the original grid,
and dx * sum(C_k) = mass ** k is preserved exactly up to rounding.

Memory and threads. Each factor, one (density, count) pair, owns one
complex buffer: its cell masses are written into the real part block by
block, transformed in place and raised to the count in place. A product of
factors is accumulated into a buffer of one of its own factors and inverse
transformed in place, so a convolution holds one complex buffer per
distinct factor plus its float result. Independent factors, and the
inverse transforms of independent products, run on one thread per usable
CPU. The transforms
are scipy.fft's complex-to-complex ones, which match numpy.fft on the same
values bit for bit and keep their plans between calls.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discretization import DiscretePld, Grid, Sampler, blocks, swapped
from .errors import DomainError, GridMismatchError, SpectralResidueError
from .mechanisms import MechanismSpec

_IMAG_RESIDUE_TOL = 1e-6


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map(fn, items: list) -> list:
    """[fn(item) for item in items], on up to one thread per usable CPU.

    One item, or one CPU, runs inline and starts no thread. Items run in
    waves of one per thread, so that an item started late (a third factor
    on two threads) never holds its buffer while two earlier transforms
    still hold their scratch. An exception from a call is raised here
    unchanged once its wave has ended: the first item of the wave that
    raised, as the inline loop would raise it; later waves do not start.
    """
    workers = min(len(items), _usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    results = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(items), workers):
            wave = [pool.submit(fn, item) for item in items[start : start + workers]]
            results += [future.result() for future in wave]
    return results


def _factor_spectrum(
    buffer: np.ndarray, sample: Callable[[slice], np.ndarray], dx: float, count: int
) -> np.ndarray:
    """FFT(half_swap(samples) * dx) ** count, in place in a zeroed complex buffer.

    sample(block) gives the samples on one slice from blocks(buffer.size).
    """
    from scipy import fft

    n = buffer.size
    real = buffer.real
    for block in blocks(n):
        np.multiply(sample(block), dx, out=real[swapped(block, n)])
    # A complex input keeps scipy on the transform numpy.fft uses for real
    # arrays; a float input would take a real transform with other rounding.
    buffer = fft.fft(buffer, overwrite_x=True)
    if count > 1:
        for block in blocks(n):
            buffer[block] = _spectrum_power(buffer[block], count)
    return buffer


def _product(factors: list[np.ndarray], owned: list[bool]) -> np.ndarray:
    """The product of factor spectra, accumulated left to right.

    It lands in the buffer of the first or second factor when owned[i]
    allows that (np.multiply(a, b, out=b) still forms a * b), otherwise in
    a new buffer; a lone factor that is not owned is copied.
    """
    first = factors[0]
    if len(factors) == 1:
        return first if owned[0] else first.copy()
    product = first if owned[0] else factors[1] if owned[1] else np.empty_like(first)
    np.multiply(first, factors[1], out=product)
    for factor in factors[2:]:
        np.multiply(product, factor, out=product)
    return product


def _inverse(product: np.ndarray, samples: np.ndarray, grid: Grid, k: int) -> ConvolvedPld:
    """Density samples of an owned product spectrum, inverse transformed in
    place, written into samples."""
    from scipy import fft

    raw = fft.ifft(product, overwrite_x=True)

    n, dx = grid.size, grid.dx
    peaks, residues = [], []
    for block in blocks(n):
        part = raw[block]
        peaks.append(np.abs(part).max())
        residues.append(np.abs(part.imag).max())
        out = samples[swapped(block, n)]
        np.divide(part.real, dx, out=out)
        np.maximum(out, 0.0, out=out)
    scale = max(float(np.max(peaks)), 1e-300)
    residue = float(np.max(residues)) / scale
    if residue > _IMAG_RESIDUE_TOL:
        raise SpectralResidueError(
            f"imaginary residue {residue:.3g} after the inverse transform exceeds "
            f"{_IMAG_RESIDUE_TOL:.0e}; the input was likely not a real density"
        )
    return ConvolvedPld(grid=grid, samples=samples, k=k)


def convolve_factors(
    factor_lists: list[list[tuple[MechanismSpec, int]]], grid: Grid
) -> list[ConvolvedPld]:
    """The convolution of each list of (spec, count) factors on grid.

    Every distinct factor across the lists is sampled, transformed and
    powered once; a factor several lists share (a self-dual mechanism in
    both likelihood-ratio directions) is shared, read-only. Factors build
    concurrently; then each list's product is formed, and the inverse
    transforms run concurrently. Within a list the spectra multiply in the
    order of their samples' bytes, as in convolution_product, so the order
    of the list does not change the result.

    Raises GridTooSmallError when the grid cuts into a support edge.
    """
    # Samplers made here, in list order, are the ones the ordering needs;
    # a factor that is alone in its list gets its sampler, and with it any
    # GridTooSmallError, in the thread that builds its spectrum.
    samplers = {
        spec: Sampler(spec, grid)
        for factors in factor_lists if len(factors) > 1
        for spec, _count in factors
    }
    order = functools.cmp_to_key(lambda a, b: samplers[a[0]].compare(samplers[b[0]]))
    ordered = [sorted(factors, key=order) for factors in factor_lists]
    uses = Counter(factor for factors in ordered for factor in factors)

    # The full-size arrays are allocated here, in the calling thread. What a
    # worker thread frees stays in its own malloc arena, and buffers of this
    # size kept there made the peak resident size of repeated mixed queries
    # at n = 2^20 vary by up to 50 MB from one process to the next.
    buffers = {factor: np.zeros(grid.size, dtype=complex) for factor in uses}

    def build(factor: tuple[MechanismSpec, int]) -> np.ndarray:
        spec, count = factor
        sampler = samplers.get(spec) or Sampler(spec, grid)
        return _factor_spectrum(buffers.pop(factor), sampler.block, grid.dx, count)

    spectra = dict(zip(uses, _map(build, list(uses))))
    samplers.clear()
    # Every product is formed before any inverse transform starts, so a
    # shared factor is freed before the transforms' scratch is allocated.
    jobs = [
        (
            _product([spectra[f] for f in factors], [uses[f] == 1 for f in factors]),
            np.empty(grid.size),
            grid,
            sum(count for _spec, count in factors),
        )
        for factors in ordered
    ]
    spectra.clear()
    return _map(lambda job: _inverse(*job), jobs)


def convolution_power(pld: DiscretePld, k: int) -> ConvolvedPld:
    """k-fold circular self-convolution of a discretised density."""
    if k < 1:
        raise DomainError(f"composition count k must be >= 1, got {k}")
    n = pld.grid.size
    spectrum = _factor_spectrum(
        np.zeros(n, dtype=complex), lambda block: pld.samples[block], pld.grid.dx, k
    )
    return _inverse(spectrum, np.empty(n), pld.grid, k)


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
    spectra = [
        _factor_spectrum(
            np.zeros(grid.size, dtype=complex), lambda block: pld.samples[block], grid.dx, count
        )
        for pld, count in ordered
    ]
    product = _product(spectra, [True] * len(spectra))
    return _inverse(product, np.empty(grid.size), grid, sum(counts))
