"""Slow independent reference paths used to validate the fast pipeline.

Nothing here may share the transform code under test: the DFT oracle is the
literal quadratic-time sum, convolutions are direct summations, inversion is
bisection instead of the accountant's closed-form in-cell inverse, and the
non-subsampled Gaussian case uses an independent high-precision evaluation
of its classical closed form. Size guards keep the quadratic paths in
test-sized territory; callers that knowingly want a large direct convolution
pass allow_large=True.

This is test code, not part of the package: tests import it as
`from oracle import ...`, and it uses only dpconv's public names.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from dpconv import (
    CompositionQuery,
    ConvolvedPld,
    DomainError,
    Grid,
    MechanismSpec,
    NonConvergenceError,
    discretize,
)
from dpconv.accountant import convolutions

_MAX_DIRECT_SIZE = 8192
_MAX_DIRECT_CONVOLUTIONS = 3
_BISECTION_TOL = 1e-9
_BISECTION_MAX_ITER = 200


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


def _direct_sum(values, unit: complex) -> np.ndarray:
    """out[k] = sum_j values[j] exp(unit pi j k / n), by the O(n^2) summation."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if n > _MAX_DIRECT_SIZE:
        raise DomainError(f"direct DFT is limited to n <= {_MAX_DIRECT_SIZE}, got {n}")
    indices = np.arange(n)
    return np.exp(unit * math.pi / n * np.outer(indices, indices)) @ values


def direct_dft(values: np.ndarray) -> np.ndarray:
    """Discrete Fourier transform by the defining O(n^2) summation."""
    return _direct_sum(values, -2j)


def direct_inverse_dft(values: np.ndarray) -> np.ndarray:
    """Inverse transform by direct summation with the 1/n convention."""
    return _direct_sum(values, 2j) / np.size(values)


def _direct_circular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution out[i] = sum_j a[j] b[(i-j) mod n], no transforms.

    Accumulates one scaled shifted copy of b per nonzero a[j]; each pass is
    a vectorised multiply-add over a doubled copy of b, so the quadratic
    work stays cache-friendly even at large n.
    """
    n = a.shape[0]
    doubled = np.concatenate([b, b])
    out = np.zeros(n)
    scratch = np.empty(n)
    for j in range(n):
        weight = a[j]
        if weight == 0.0:
            continue
        np.multiply(doubled[n - j : 2 * n - j], weight, out=scratch)
        out += scratch
    return out


def _clamped(samples: np.ndarray, grid: Grid) -> ConvolvedPld:
    return ConvolvedPld(grid=grid, samples=np.maximum(samples, 0.0))


def direct_convolution_combine(
    left: ConvolvedPld, right: ConvolvedPld, allow_large: bool = False
) -> ConvolvedPld:
    """Convolves two already-convolved densities by direct summation.

    The quadratic cost grows fast: past the size guard this is refused
    unless the caller opts in explicitly.
    """
    if left.grid != right.grid:
        raise DomainError(f"operands live on different grids: {left.grid} vs {right.grid}")
    grid = left.grid
    if not allow_large and grid.size > _MAX_DIRECT_SIZE:
        raise DomainError(
            f"direct convolution is limited to n <= {_MAX_DIRECT_SIZE}, got {grid.size}; "
            "pass allow_large=True to run it anyway"
        )
    a = half_swap(left.samples) * grid.dx
    b = half_swap(right.samples) * grid.dx
    samples = half_swap(_direct_circular(a, b)) / grid.dx
    return _clamped(samples, grid)


def direct_convolution_delta(
    spec: MechanismSpec,
    k: int,
    grid: Grid,
    epsilon: float,
    allow_large: bool = False,
) -> float:
    """Tight delta with the k-fold convolution done by direct summation.

    Semantics mirror the accountant (same discretisation, same weighted sum,
    same max over likelihood-ratio directions); only the convolution engine
    differs. Guarded to k <= 3 and n <= 8192 so the quadratic path stays in
    oracle territory.
    """
    if not allow_large:
        if k > _MAX_DIRECT_CONVOLUTIONS:
            raise DomainError(
                f"direct convolution is limited to k <= {_MAX_DIRECT_CONVOLUTIONS}, got {k}"
            )
        if grid.size > _MAX_DIRECT_SIZE:
            raise DomainError(
                f"direct convolution is limited to n <= {_MAX_DIRECT_SIZE}, got {grid.size}"
            )
    if not epsilon >= 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    best = -math.inf
    for direction in CompositionQuery.homogeneous(spec, k, grid).evaluated_directions:
        pld = discretize(spec, grid, direction)
        if k == 1:
            conv = _clamped(pld.samples, grid)
        else:
            masses = half_swap(pld.samples) * grid.dx
            acc = masses
            for _ in range(k - 1):
                acc = _direct_circular(acc, masses)
            conv = _clamped(half_swap(acc) / grid.dx, grid)
        best = max(best, conv.delta(epsilon))
    return best


def gaussian_mechanism_delta(sigma: float, k: int, epsilon: float) -> float:
    """Exact tight delta for k non-subsampled Gaussian mechanisms.

    Evaluates Phi(-eps sigma/sqrt(k) + sqrt(k)/(2 sigma))
    - e^eps Phi(-eps sigma/sqrt(k) - sqrt(k)/(2 sigma)) at 50 decimal digits
    through the complementary error function, independent of scipy.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not epsilon >= 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    with mpmath.workdps(50):
        eps = mpmath.mpf(epsilon)
        sig = mpmath.mpf(sigma)
        root_k = mpmath.sqrt(k)

        def std_normal_cdf(x):
            return mpmath.erfc(-x / mpmath.sqrt(2)) / 2

        upper = std_normal_cdf(-eps * sig / root_k + root_k / (2 * sig))
        lower = std_normal_cdf(-eps * sig / root_k - root_k / (2 * sig))
        return float(upper - mpmath.exp(eps) * lower)


def bisection_epsilon(
    spec: MechanismSpec,
    k: int,
    grid: Grid,
    delta_target: float,
    tolerance: float = _BISECTION_TOL,
) -> float:
    """Inverts delta(eps) by plain bisection; the slow check on epsilon_of_delta.

    Uses the accountant's own forward evaluation (the inversion strategy is
    what is being cross-checked, not the forward sum). The convolved density
    is built once and shared across all probes.
    """
    if not (0.0 < delta_target < 1.0):
        raise DomainError(f"delta target must lie in (0, 1), got {delta_target}")
    query = CompositionQuery.homogeneous(spec, k, grid)
    convs = [conv for _direction, conv in convolutions(query)]

    def tight_delta(eps: float) -> float:
        return max(conv.delta(eps) for conv in convs)

    at_zero = tight_delta(0.0)
    if abs(at_zero - delta_target) <= tolerance:
        return 0.0
    if at_zero < delta_target:
        raise DomainError(
            f"target {delta_target:.6g} exceeds delta(0) = {at_zero:.6g}; cannot bracket"
        )
    # Keep halving until the bracket itself is tight, not merely until the
    # delta residual passes: where the curve is flat a loose bracket would
    # leave epsilon underdetermined by orders of magnitude.
    lo, hi = 0.0, float(grid.points()[-1])
    mid = 0.5 * (lo + hi)
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if tight_delta(mid) > delta_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-8:
            mid = 0.5 * (lo + hi)
            break
    if abs(tight_delta(mid) - delta_target) > tolerance:
        raise NonConvergenceError(
            f"bisection stalled at |delta - target| = "
            f"{abs(tight_delta(mid) - delta_target):.3g} > {tolerance:g}"
        )
    return mid
