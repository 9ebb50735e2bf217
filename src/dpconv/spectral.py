"""Convolution powers of discretised densities via the discrete Fourier transform.

Composing k identical mechanisms convolves the privacy loss density with
itself k times. On the periodic grid this is a circular convolution, which
the DFT diagonalises: transform once, raise the spectrum to the k-th power
elementwise, transform back. The cost is two transforms regardless of k,
against k-1 direct convolutions.

Scaling conventions. Let y = samples * dx be the cell masses in DFT layout:
rotated by n/2, origin at index 0. Let FFT be the unnormalised forward
transform and IFFT its inverse with the 1/n factor. Then IFFT(FFT(y) ** k),
rotated back by n/2 and divided by dx, gives C_k: density samples of the
k-fold circular convolution on the original grid, and
dx * sum(C_k) = mass ** k is preserved exactly up to rounding. That
composed mass is bin 0 of the product spectrum.

Memory and threads. Each factor, one oriented (density, count) pair, owns one
complex buffer: its cell masses are written into the real part block by
block, transformed in place and raised to the count in place. A product of
factors is accumulated into a buffer of one of its own factors and inverse
transformed in place, so a convolution holds one complex buffer per
distinct factor plus its float result. Independent factors, and the
inverse transforms of independent products, run on one kept thread per
usable CPU, which sees the same allocations on every call. The transforms
are scipy.fft's complex-to-complex ones, which match numpy.fft on the same
values bit for bit and keep their plans between calls.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .discretization import (
    ConvolvedPld,
    Grid,
    blocks,
    check_support,
    composed_off_unity,
    over_unity,
    samples,
    swapped,
)
from .errors import SpectralResidueError
from .mechanisms import Direction, MechanismSpec

_IMAG_RESIDUE_TOL = 1e-6
_ARENA_LIMIT_BYTES = 32 * 2 ** 20  # glibc gives any larger block a mapping of its own
_PLANNED: set[int] = set()
# Slot i runs item i of every wave, for the process's life. Threads made per call took any
# free malloc arena and left scratch in it; cli-report's peak RSS varied by 16 to 37 MB.
_SLOTS: list[ThreadPoolExecutor] = []
_SLOTS_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_SLOTS.clear)  # a child has no threads


@np.errstate(over="ignore", invalid="ignore")
def _spectrum_power(spectrum: np.ndarray, k: int) -> np.ndarray:
    """Elementwise k-th power by repeated squaring.

    Stable for very large k because every spectrum entry of a subprobability
    mass vector has modulus at most one, so intermediate squares never grow.
    On a grid that under-resolves the density an entry can exceed one and its
    power overflow, with no warning; _inverse then reports the non-finite result.
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _slots(count: int) -> list[ThreadPoolExecutor]:
    with _SLOTS_LOCK:
        while len(_SLOTS) < count:
            _SLOTS.append(ThreadPoolExecutor(1, f"dpconv-spectral-{len(_SLOTS)}"))
        return _SLOTS[:count]


def _map(fn, items: list) -> list:
    """[fn(item) for item in items], on up to one thread per usable CPU.

    One item, or one CPU, runs inline and starts no thread. Items run in
    waves of one per slot, so that an item started late (a third factor
    on two threads) never holds its buffer while two earlier transforms
    still hold their scratch. An exception from a call is raised here
    unchanged once its wave has ended: the first item of the wave that
    raised, as the inline loop would raise it; later waves do not start.
    Each item runs in its own copy of the caller's context, so a thread
    sees the caller's numpy error state (np.errstate is a context variable).
    """
    workers = min(len(items), _usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    slots, results = _slots(workers), []
    for start in range(0, len(items), workers):
        wave = [
            slot.submit(contextvars.copy_context().run, fn, item)
            for slot, item in zip(slots, items[start : start + workers])
        ]
        wait(wave)
        results += [future.result() for future in wave]
    return results


def _factor_spectrum(buffer: np.ndarray, samples, dx: float, count: int) -> tuple[np.ndarray, float]:
    """FFT(samples * dx) ** count, the samples rotated by n/2 (origin at
    index 0), in place in a zeroed complex buffer, and the factor's sampled
    mass dx * sum(samples).

    samples yields (block, values) for the slices of blocks(buffer.size).
    The mass is bin 0 of the forward transform, read before the power.
    """
    from scipy import fft

    n = buffer.size
    real = buffer.real
    for block, values in samples:
        np.multiply(values, dx, out=real[swapped(block, n)])
    # A complex input keeps scipy on the transform numpy.fft uses for real
    # arrays; a float input would take a real transform with other rounding.
    buffer = fft.fft(buffer, overwrite_x=True)
    mass = float(buffer[0].real)
    if count > 1:
        for block in blocks(n):
            buffer[block] = _spectrum_power(buffer[block], count)
    return buffer, mass


@np.errstate(over="ignore", invalid="ignore")  # see _spectrum_power
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


def _inverse(
    product: np.ndarray, samples: np.ndarray, grid: Grid, warnings: tuple[str, ...] = ()
) -> ConvolvedPld:
    """Density samples of an owned product spectrum, inverse transformed in
    place, written into samples. warnings are its mass warnings (see
    convolve_factors); a non-finite result repeats them in its error."""
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
    if not math.isfinite(scale):
        raise SpectralResidueError(
            "the convolved density is not finite: a density sample was not finite, or the "
            "grid under-resolves a density whose mass then exceeds 1 and its power overflows"
            + "".join(f"; {warning}" for warning in warnings)
        )
    if not residue <= _IMAG_RESIDUE_TOL:
        raise SpectralResidueError(
            f"imaginary residue {residue:.3g} after the inverse transform exceeds "
            f"{_IMAG_RESIDUE_TOL:.0e}; the input was likely not a real density"
        )
    return ConvolvedPld(grid=grid, samples=samples, warnings=warnings)


def convolve_factors(
    factors: list[tuple[MechanismSpec, int]], directions: tuple[Direction, ...], grid: Grid
) -> list[ConvolvedPld]:
    """The convolution of the (spec, count) factors on grid in each of the
    likelihood-ratio directions.

    Each factor is oriented, as (spec, count, direction), and sampled,
    transformed and powered once; a self-dual one is oriented X_OVER_Y in
    every direction and shared, read-only. Factors build concurrently; then
    each direction's product is formed, and the inverse transforms run
    concurrently. The spectra multiply in the order of the (spec, count)
    reprs, a total order, so the order of factors does not change the
    result (elementwise rounding is not symmetric under operand swaps on
    fused-multiply-add hardware; the mathematical product of course is).

    The support of each spec is checked first, in the calling thread, so a
    GridTooSmallError (the grid cuts into a support edge) is raised there
    before any buffer is allocated; every density is evaluated in its
    factor's build. Each result's warnings name its factors whose sampled
    mass exceeds 1 (see over_unity). If none does, they name the product
    whose composed mass, bin 0 of its spectrum, lies off 1 (see
    composed_off_unity, which says why that mass is exactly the product of
    the factors' masses).
    """
    for spec, _count in factors:
        check_support(spec, grid)
    by_repr = sorted(factors, key=repr)
    ordered = [
        [(spec, count, d if spec.directional else Direction.X_OVER_Y) for spec, count in by_repr]
        for d in directions
    ]
    uses = Counter(factor for product in ordered for factor in product)

    # The full-size arrays are allocated here, in the calling thread. What a
    # worker thread frees stays in its own malloc arena, and buffers of this
    # size kept there made the peak resident size of repeated mixed queries
    # at n = 2^20 vary by up to 50 MB from one process to the next.
    buffers = {factor: np.zeros(grid.size, dtype=complex) for factor in uses}
    n = grid.size
    if min(len(uses), _usable_cpus()) > 1 and n not in _PLANNED and 16 * n <= _ARENA_LIMIT_BYTES:
        # scipy.fft builds a 16 n-byte plan per size on the first transform; two
        # threads racing to build it left it in an arena or a mapping of its
        # own, and peak RSS 16 MB apart. Slot 0 builds it first, on zeros.
        from scipy import fft
        first = next(iter(buffers.values()))
        _slots(1)[0].submit(fft.fft, first, overwrite_x=True).result()
        first.fill(0)
        _PLANNED.add(n)

    def build(factor: tuple[MechanismSpec, int, Direction]) -> tuple[np.ndarray, float]:
        spec, count, direction = factor
        return _factor_spectrum(buffers.pop(factor), samples(spec, grid, direction), grid.dx, count)

    built = dict(zip(uses, _map(build, list(uses))))
    notes = {factor: over_unity(factor[0], factor[2], mass) for factor, (_, mass) in built.items()}
    # Every product is formed before any inverse transform starts, so a
    # shared factor is freed before the transforms' scratch is allocated.
    jobs = []
    for factors in ordered:
        product = _product([built[f][0] for f in factors], [uses[f] == 1 for f in factors])
        named = tuple(notes[f] for f in factors if notes[f])
        if not named:
            note = composed_off_unity(factors, float(product[0].real))
            named = (note,) if note else ()
        jobs.append((product, np.empty(grid.size), grid, named))
    built.clear()
    return _map(lambda job: _inverse(*job), jobs)
