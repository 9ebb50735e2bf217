"""Privacy loss densities of subsampled Gaussian mechanisms.

A mechanism releases the sum of a subsampled query batch plus Gaussian noise
of scale sigma (sensitivity normalised to 1). For a pair of neighbouring
datasets the output densities f_X and f_Y induce the privacy loss function

    loss(t) = log(f_X(t) / f_Y(t)),

and the privacy loss density is the pushforward of f_X through the loss,

    omega(s) = f_X(loss_inverse(s)) * d loss_inverse / ds,

supported on the closure of the image of the loss. Three subsampling schemes
are covered:

* Poisson subsampling under the remove/add neighbouring relation, where
  f_X = q N(1, sigma^2) + (1-q) N(0, sigma^2) and f_Y = N(0, sigma^2).
  The loss image is (log(1-q), +inf); the two likelihood-ratio directions
  differ and are linked by omega_xy(s) = exp(s) * omega_yx(-s).
* Sampling without replacement under the substitute relation, where
  f_Y = q N(-1, sigma^2) + (1-q) N(0, sigma^2). The loss is odd, so the two
  directions coincide and omega(s) = exp(s) * omega(-s).
* Sampling with replacement (batch_size independent draws, each hitting the
  substituted element with probability 1/dataset_size), where f_X and f_Y
  are binomial mixtures of Gaussians centred on 0..batch_size and its
  negation. The loss inverse has no closed form and is solved numerically.
  The loss is odd, bit for bit as computed, so each distinct |s| of a call
  is solved once for t >= 0 and mirrored: t(-s) = -t(s), and f_X(-t) comes
  from the same kernel row as f_X(t) with its two log-sum-exps swapped.

All densities accept scalars or numpy arrays and evaluate in a vectorised,
overflow-safe way.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, RootFindingError

# Largest accepted noise scale. The densities square loss inverses of order
# sigma^2 times a few thousand (|s| <= 700 on any grid, |log q| <= 745), so
# sigma^4 must stay far below the largest double; at q = 0.01 and L = 8 the
# Poisson density overflows from about sigma = 1e77.
_SIGMA_MAX = 1e50
_LOSS_INVERSE_TOL = 1e-13
_LOSS_INVERSE_MAX_ITER = 100
# With-replacement root finder: cells of the loss table on [0, T], the cap
# on doublings of T (2^1024 overflows), points per kernel chunk (its two
# temporaries are window terms x points: at batch_size 64 and sigma 1 a
# Newton chunk's windows hold at most 14 terms up and 6 down, 0.4 and
# 0.2 MiB, where all 65 terms took 2 MiB each), and the floor of the
# max-shifted exponents (exp(-700) is still a normal double).
_LOSS_TABLE_CELLS = 512
_TABLE_MAX_DOUBLINGS = 1024
_KERNEL_CHUNK_ROWS = 4096
_EXP_FLOOR = -700.0


class Scheme(enum.Enum):
    """Subsampling scheme plus the neighbouring-dataset relation it implies."""

    POISSON = "poisson"
    WITHOUT_REPLACEMENT = "without-replacement"
    WITH_REPLACEMENT = "with-replacement"


class Direction(enum.Enum):
    """Which likelihood ratio the loss is built from.

    X_OVER_Y draws the loss variable from f_X and compares against f_Y;
    Y_OVER_X is the reverse. For the substitute schemes the two coincide.
    """

    X_OVER_Y = "x-over-y"
    Y_OVER_X = "y-over-x"


@dataclass(frozen=True)
class MechanismSpec:
    """Parameters of one subsampled Gaussian mechanism invocation.

    Attributes:
        sigma: noise scale, positive and at most 1e50 (_SIGMA_MAX, beyond
            which the density arithmetic overflows), with a square that does
            not underflow.
        scheme: subsampling scheme, see Scheme.
        q: sampling fraction in (0, 1] for POISSON / WITHOUT_REPLACEMENT.
            q = 1 is the non-subsampled limit, in which the Poisson density
            collapses to the plain Gaussian privacy loss. Must be None for
            WITH_REPLACEMENT.
        batch_size: number of independent draws (WITH_REPLACEMENT only).
        dataset_size: number of records; the per-draw probability of hitting
            the substituted record is 1 / dataset_size (WITH_REPLACEMENT only).
        direction: likelihood-ratio direction, ignored for substitute schemes.
    """

    sigma: float
    scheme: Scheme = Scheme.POISSON
    q: float | None = None
    batch_size: int | None = None
    dataset_size: int | None = None
    direction: Direction = Direction.X_OVER_Y

    def __post_init__(self) -> None:
        # 1/sigma^2 enters every density, so its square must not underflow.
        if not (0 < self.sigma <= _SIGMA_MAX and self.sigma * self.sigma >= sys.float_info.min):
            raise DomainError(
                f"sigma must be positive and at most {_SIGMA_MAX:g}, with sigma^2 a normal "
                f"float; got {self.sigma}"
            )
        if self.scheme in (Scheme.POISSON, Scheme.WITHOUT_REPLACEMENT):
            if self.q is None:
                raise DomainError(f"scheme {self.scheme.value} requires a sampling fraction q")
            if not (0.0 < self.q <= 1.0):
                raise DomainError(f"q must lie in (0, 1], got {self.q}")
            if self.batch_size is not None or self.dataset_size is not None:
                raise DomainError(
                    "batch_size/dataset_size only apply to the with-replacement scheme"
                )
        else:
            if self.q is not None:
                raise DomainError("the with-replacement scheme derives q from dataset_size")
            if self.batch_size is None or self.batch_size < 1:
                raise DomainError(f"batch_size must be a positive integer, got {self.batch_size}")
            if self.dataset_size is None or self.dataset_size < 2:
                raise DomainError(f"dataset_size must be at least 2, got {self.dataset_size}")
            if self.batch_size > self.dataset_size:
                raise DomainError(
                    f"batch_size {self.batch_size} exceeds dataset_size {self.dataset_size}"
                )

    @property
    def draw_probability(self) -> float:
        """Per-draw probability of selecting the substituted record."""
        if self.scheme is not Scheme.WITH_REPLACEMENT:
            raise DomainError("draw_probability is defined for the with-replacement scheme only")
        return 1.0 / self.dataset_size

    def with_direction(self, direction: Direction) -> "MechanismSpec":
        """This mechanism in the given likelihood-ratio direction.

        Returns self when the direction is unchanged or the scheme is a
        substitute one, whose two directions coincide.
        """
        if self.scheme is not Scheme.POISSON or self.direction is direction:
            return self
        return dataclasses.replace(self, direction=direction)


@dataclass(frozen=True)
class PldDensity:
    """A privacy loss density omega together with its support interval.

    omega is zero outside (support_lo, support_hi) and integrates to one.
    Instances are callables: density(s) evaluates omega pointwise.
    """

    spec: MechanismSpec
    support_lo: float
    support_hi: float

    def __call__(self, s):
        scheme = self.spec.scheme
        if scheme is Scheme.POISSON:
            return pld_density_poisson(self.spec, s)
        if scheme is Scheme.WITHOUT_REPLACEMENT:
            return pld_density_without_replacement(self.spec, s)
        return pld_density_with_replacement(self.spec, s)


def pld_density(spec: MechanismSpec) -> PldDensity:
    """Builds the privacy loss density object for a mechanism."""
    lo, hi = -math.inf, math.inf
    if spec.scheme is Scheme.POISSON and spec.q < 1.0:
        edge = math.log1p(-spec.q)
        if spec.direction is Direction.X_OVER_Y:
            lo = edge
        else:
            hi = -edge
    return PldDensity(spec=spec, support_lo=lo, support_hi=hi)


def _split_scalar(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _pack_scalar(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def _mixture_pdf(t: np.ndarray, sigma: float, q: float) -> np.ndarray:
    """Density of q N(1, sigma^2) + (1-q) N(0, sigma^2)."""
    two_var = 2.0 * sigma * sigma
    norm = 1.0 / math.sqrt(math.pi * two_var)
    shifted = q * np.exp(-np.square(t - 1.0) / two_var)
    centred = (1.0 - q) * np.exp(-np.square(t) / two_var) if q < 1.0 else 0.0
    return norm * (shifted + centred)


# ---------------------------------------------------------------------------
# Poisson subsampling, remove/add relation
# ---------------------------------------------------------------------------

def loss_poisson(spec: MechanismSpec, t):
    """Privacy loss log(f_X(t)/f_Y(t)) for Poisson subsampling."""
    arr, scalar = _split_scalar(t)
    sigma, q = spec.sigma, spec.q
    a = (2.0 * arr - 1.0) / (2.0 * sigma * sigma)
    if q == 1.0:
        return _pack_scalar(a, scalar)
    out = np.logaddexp(math.log(q) + a, math.log1p(-q))
    return _pack_scalar(out, scalar)


def loss_inverse_poisson(spec: MechanismSpec, s):
    """Inverse of the Poisson loss, sigma^2 log((exp(s) - (1-q))/q) + 1/2.

    Raises DomainError if any point lies at or below the support edge
    log(1-q), where the inverse is undefined.
    """
    arr, scalar = _split_scalar(s)
    sigma, q = spec.sigma, spec.q
    if q == 1.0:
        return _pack_scalar(sigma * sigma * arr + 0.5, scalar)
    # exp(s) - (1 - q) via expm1 keeps precision near the support edge.
    u = np.expm1(arr) + q
    if np.any(u <= 0.0) or np.any(arr <= math.log1p(-q)):
        raise DomainError(
            f"loss inverse undefined at or below the support edge log(1-q) = {math.log1p(-q):.6g}"
        )
    out = sigma * sigma * (np.log(u) - math.log(q)) + 0.5
    return _pack_scalar(out, scalar)


def _poisson_density_xy(sigma: float, q: float, arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    if q == 1.0:
        inside = np.ones_like(arr, dtype=bool)
    else:
        inside = arr > math.log1p(-q)
    sm = arr[inside]
    u = np.expm1(sm) + q
    ok = u > 0.0
    t = np.full_like(sm, -np.inf)
    np.log(u, out=t, where=ok)
    t = sigma * sigma * (t - math.log(q)) + 0.5
    deriv = np.zeros_like(sm)
    np.divide(np.exp(sm), u, out=deriv, where=ok)
    deriv *= sigma * sigma
    vals = _mixture_pdf(t, sigma, q) * deriv
    out[inside] = np.where(ok, vals, 0.0)
    return out


def pld_density_poisson(spec: MechanismSpec, s):
    """Privacy loss density for Poisson subsampling.

    The X-over-Y direction is evaluated directly from the loss inverse and
    its derivative; the Y-over-X direction follows from the identity
    omega_yx(s) = exp(s) * omega_xy(-s), so its support is the mirrored
    interval (-inf, -log(1-q)).
    """
    arr, scalar = _split_scalar(s)
    if spec.direction is Direction.X_OVER_Y:
        out = _poisson_density_xy(spec.sigma, spec.q, arr)
    else:
        out = np.exp(arr) * _poisson_density_xy(spec.sigma, spec.q, -arr)
    return _pack_scalar(out, scalar)


# ---------------------------------------------------------------------------
# Sampling without replacement, substitute relation
# ---------------------------------------------------------------------------

def loss_without_replacement(spec: MechanismSpec, t):
    """Privacy loss for fixed-size sampling without replacement."""
    arr, scalar = _split_scalar(t)
    sigma, q = spec.sigma, spec.q
    two_var = 2.0 * sigma * sigma
    a = (2.0 * arr - 1.0) / two_var
    b = (-2.0 * arr - 1.0) / two_var
    if q == 1.0:
        return _pack_scalar(a - b, scalar)
    lq, l1q = math.log(q), math.log1p(-q)
    out = np.logaddexp(lq + a, l1q) - np.logaddexp(lq + b, l1q)
    return _pack_scalar(out, scalar)


def _wor_positive_root(sigma: float, q: float, arr: np.ndarray) -> np.ndarray:
    """Positive root x = exp(t/sigma^2) of the quadratic that inverts the loss.

    With c = q exp(-1/(2 sigma^2)) the inverse solves
    c x^2 + (1-q)(1-exp(s)) x - c exp(s) = 0. The two algebraically equal
    forms of the positive root are picked per sign of s so that neither
    suffers cancellation.
    """
    c = q * math.exp(-1.0 / (2.0 * sigma * sigma))
    em = np.expm1(arr)
    es = np.exp(arr)
    disc = np.square((1.0 - q) * em) + 4.0 * c * c * es
    root = np.sqrt(disc)
    grow = ((1.0 - q) * em + root) / (2.0 * c)
    decay_denom = -(1.0 - q) * em + root
    decay = np.divide(2.0 * c * es, decay_denom, out=np.zeros_like(arr), where=decay_denom > 0)
    return np.where(arr >= 0.0, grow, decay)


def loss_inverse_without_replacement(spec: MechanismSpec, s):
    """Closed-form inverse of the without-replacement loss."""
    arr, scalar = _split_scalar(s)
    x = _wor_positive_root(spec.sigma, spec.q, arr)
    out = spec.sigma * spec.sigma * np.log(x)
    return _pack_scalar(out, scalar)


def _wor_inverse_derivative(sigma: float, q: float, arr: np.ndarray) -> np.ndarray:
    """Derivative of the without-replacement loss inverse, cancellation-free.

    Writing b = (1-q)(1-exp(s)) and R = sqrt(b^2 + 4 c^2 exp(s)), the
    derivative equals sigma^2 exp(s) (2 c^2 + (1-q)(R - b)) / (R (R - b)).
    R - b is computed as 4 c^2 exp(s) / (R + b) whenever b > 0, which keeps
    precision deep in the left tail.
    """
    c = q * math.exp(-1.0 / (2.0 * sigma * sigma))
    em = np.expm1(arr)
    es = np.exp(arr)
    b = -(1.0 - q) * em
    r = np.sqrt(b * b + 4.0 * c * c * es)
    conj = np.divide(4.0 * c * c * es, r + b, out=np.zeros_like(arr), where=(r + b) > 0)
    r_minus_b = np.where(b > 0.0, conj, r - b)
    return sigma * sigma * es * (2.0 * c * c + (1.0 - q) * r_minus_b) / (r * r_minus_b)


def pld_density_without_replacement(spec: MechanismSpec, s):
    """Privacy loss density for sampling without replacement.

    The loss is odd, so this density serves both directions and satisfies
    omega(s) = exp(s) * omega(-s).
    """
    arr, scalar = _split_scalar(s)
    sigma, q = spec.sigma, spec.q
    t = sigma * sigma * np.log(_wor_positive_root(sigma, q, arr))
    out = _mixture_pdf(t, sigma, q) * _wor_inverse_derivative(sigma, q, arr)
    return _pack_scalar(out, scalar)


# ---------------------------------------------------------------------------
# Sampling with replacement, substitute relation
# ---------------------------------------------------------------------------

def _wr_log_weights(spec: MechanismSpec):
    """Binomial mixture weights, in log space.

    Returns (centres, log_coeff) where log_coeff are the log probabilities
    of hitting the substituted record ell times in batch_size draws plus the
    Gaussian factor -ell^2 / (2 sigma^2) that appears in the loss polynomial.
    """
    m = spec.batch_size
    p = spec.draw_probability
    ell = np.arange(m + 1, dtype=float)
    log_binom = (
        gammaln(m + 1.0)
        - gammaln(ell + 1.0)
        - gammaln(m - ell + 1.0)
        + ell * math.log(p)
        + (m - ell) * math.log1p(-p)
    )
    log_coeff = log_binom - np.square(ell) / (2.0 * spec.sigma * spec.sigma)
    return ell, log_coeff


def _shifted_lse(exponents: np.ndarray, ell: np.ndarray):
    """Log-sum-exp of each column of exponents, one row per ell, and the
    mean of ell under the column's softmax.

    The column maximum is shifted out in place and the shifted exponents
    are floored at _EXP_FLOOR, far below a double's precision relative to
    the maximum's unit term, so np.exp never produces a (slow) subnormal. A
    column whose maximum overflowed is left unshifted, so its log-sum-exp is
    inf. The reductions run across the few rows of a window, elementwise
    over the columns, which numpy vectorises; along a short row it would not.
    """
    peak = exponents.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    exponents -= peak
    np.maximum(exponents, _EXP_FLOOR, out=exponents)
    np.exp(exponents, out=exponents)
    total = exponents.sum(axis=0)
    return peak + np.log(total), (ell @ exponents) / total


def _chunks(size: int):
    """Slices of at most _KERNEL_CHUNK_ROWS rows covering range(size)."""
    for start in range(0, size, _KERNEL_CHUNK_ROWS):
        yield slice(start, start + _KERNEL_CHUNK_ROWS)


def _wr_window(log_coeff: np.ndarray, ell: np.ndarray, x: np.ndarray) -> slice:
    """The slice of ell that the log-sum-exps of log_coeff + x ell need at
    every x of a chunk.

    log_coeff, a log binomial pmf (concave, as log-gamma is convex) minus
    ell^2 / (2 sigma^2), is concave in ell. So at one x the terms whose
    exponent comes within the reach R of the largest form an interval of
    ell, and both ends of that interval are nondecreasing in x: tilting a
    concave sequence further up to the right moves neither end to the left.
    The interval at the smallest x therefore starts, and the one at the
    largest x ends, a window that holds every x's interval. A term outside a point's interval
    sits more than R below that point's largest exponent; with
    R = log(m (m + 1)) + 60 log 2 for m = batch_size, the at most m + 1 of
    them weigh less than 2^-60 of the largest term in the sum and, as
    ell <= m, in the ell-weighted sum. Where the smallest or the largest x
    gives a non-finite exponent (a non-finite or overflowing x), the window
    is all of ell.
    """
    m = ell.size - 1
    reach = math.log(m * (m + 1.0)) + 60.0 * math.log(2.0)
    first = log_coeff + x.min() * ell
    last = log_coeff + x.max() * ell
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(last))):
        return slice(None)
    start = int(np.argmax(first >= first.max() - reach))
    stop = ell.size - int(np.argmax(last[::-1] >= last.max() - reach))
    return slice(start, stop)


def _windowed_lse(log_coeff: np.ndarray, ell: np.ndarray, x: np.ndarray):
    """_shifted_lse of the exponents log_coeff + x ell over _wr_window's ell,
    one row per ell and one column per x."""
    cols = _wr_window(log_coeff, ell, x)
    exponents = np.multiply.outer(ell[cols], x)
    exponents += log_coeff[cols, None]
    return _shifted_lse(exponents, ell[cols])


def _wr_kernel(spec: MechanismSpec, t: np.ndarray):
    """Loss, its slope, and the log-sum-exps up and down at each t.

    up and down are the log-sum-exps of log_coeff +- t ell / sigma^2; the
    loss is up - down and its slope is the sum of the two softmax means of
    ell over sigma^2. t is one-dimensional and processed in chunks of
    _KERNEL_CHUNK_ROWS points. Each chunk sums only the terms ell that its
    extreme points can see, one window up and one down: the exponents are
    concave in ell, so the terms within reach of the largest at the
    chunk's smallest and largest t bound those of every t in between, and
    the terms left out weigh less than 2^-60 of the largest (see
    _wr_window). At batch_size 64 and sigma 1 that is at most 20 of the
    2 (batch_size + 1) terms on a chunk of nearby t. Negating t swaps the
    two windows along with the two sides, so it swaps up and down, negates
    the loss and keeps the slope, bit for bit.
    """
    ell, log_coeff = _wr_log_weights(spec)
    inv_var = 1.0 / (spec.sigma * spec.sigma)
    loss, slope, lse_up, lse_down = (np.empty_like(t) for _ in range(4))
    for rows in _chunks(t.size):
        x = t[rows] * inv_var
        up, up_mean = _windowed_lse(log_coeff, ell, x)
        down, down_mean = _windowed_lse(log_coeff, ell, np.negative(x, out=x))
        loss[rows] = up - down
        slope[rows] = (up_mean + down_mean) * inv_var
        lse_up[rows] = up
        lse_down[rows] = down
    return loss, slope, lse_up, lse_down


def loss_with_replacement(spec: MechanismSpec, t):
    """Privacy loss for sampling with replacement, via a max-shifted log-sum-exp."""
    arr, scalar = _split_scalar(t)
    out = _wr_kernel(spec, arr.ravel())[0].reshape(arr.shape)
    return _pack_scalar(out, scalar)


def _wr_loss_table(spec: MechanismSpec, reach: float):
    """t, loss and slope on a lattice of t >= 0 covering losses in [0, reach].

    _LOSS_TABLE_CELLS equal cells span [0, T], with T doubled from 1 until
    loss(T) exceeds reach.
    """
    extent = 1.0
    for _ in range(_TABLE_MAX_DOUBLINGS):
        edge = _wr_kernel(spec, np.array([extent]))[0][0]
        if edge > reach or not math.isfinite(edge):
            break
        extent *= 2.0
    if not (math.isfinite(edge) and edge > reach):
        raise RootFindingError(f"could not tabulate the loss out to |s| = {reach:.6g}")
    t = np.linspace(0.0, extent, _LOSS_TABLE_CELLS + 1)
    loss, slope = _wr_kernel(spec, t)[:2]
    return t, loss, slope


def _wr_solve(spec: MechanismSpec, s: np.ndarray):
    """The distinct |s| of a 1-d s, ascending, and (t, slope, lse_up, lse_down)
    at the loss inverse t >= 0 of each.

    The loss is odd, so the inverse at -|s| is -t with up and down swapped
    (see _wr_kernel) and each |s| is solved once. One loss table serves all
    of them, and they are solved in chunks of _KERNEL_CHUNK_ROWS rows, so
    the root finder's state is bounded too.
    """
    if not np.all(np.isfinite(s)):
        raise RootFindingError("the loss inverse needs finite privacy losses")
    magnitude = np.abs(s)
    magnitude.sort()
    new = np.empty(magnitude.size, dtype=bool)
    new[:1] = True
    np.not_equal(magnitude[1:], magnitude[:-1], out=new[1:])
    # The distinct |s| and the four results share one block, filled chunk
    # by chunk with no temporary of their size: glibc raises its mmap
    # threshold to the size of a freed mmapped array, and later arrays up to
    # that size then come from the heap, where they can stay resident.
    block = np.empty((5, np.count_nonzero(new)))
    reach, *solved = block
    filled = 0
    for rows in _chunks(s.size):
        part = magnitude[rows][new[rows]]
        reach[filled : filled + part.size] = part
        filled += part.size
    del magnitude, new
    table = _wr_loss_table(spec, float(reach[-1]) if reach.size else 0.0)
    for rows in _chunks(reach.size):
        for out, part in zip(solved, _wr_newton(spec, reach[rows], table)):
            out[rows] = part
    return reach, *solved


def _wr_mirror(s: np.ndarray, reach: np.ndarray, at_plus: np.ndarray, at_minus: np.ndarray):
    """Per entry of s, at_plus or (where s has its sign bit set) at_minus at
    the position of |s| in reach, in chunks, with no full-size index array."""
    out = np.empty_like(s)
    for rows in _chunks(s.size):
        at = np.searchsorted(reach, np.abs(s[rows]))
        out[rows] = np.where(np.signbit(s[rows]), at_minus[at], at_plus[at])
    return out


def _wr_newton(spec: MechanismSpec, s: np.ndarray, table: tuple[np.ndarray, ...]):
    """Bracketed Newton on one chunk of s >= 0, from the table's cubic start.

    The start is the cubic Hermite interpolant of the inverse over the
    table cell holding s, which matches t and dt/ds = 1/slope at both cell
    edges; where it leaves the cell, the linear interpolant is used.
    Returns t with the slope, lse_up and lse_down of the kernel evaluation
    that accepted it. A NaN residual never counts as converged.
    """
    t_table, loss_table, slope_table = table
    cell = np.searchsorted(loss_table, s, side="right").clip(1, loss_table.size - 1)
    lo, hi = t_table[cell - 1], t_table[cell]
    width = loss_table[cell] - loss_table[cell - 1]
    step = hi - lo
    u = (s - loss_table[cell - 1]) / width
    t = lo + u * step
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = t + u * (1.0 - u) * (
            (1.0 - u) * (width / slope_table[cell - 1] - step)
            + u * (step - width / slope_table[cell])
        )
    np.copyto(t, cubic, where=(cubic >= lo) & (cubic <= hi))
    slope, lse_up, lse_down = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    active = np.arange(s.size)
    for _ in range(_LOSS_INVERSE_MAX_ITER):
        loss, slope[active], lse_up[active], lse_down[active] = _wr_kernel(spec, t[active])
        resid = loss - s[active]
        pending = ~(np.abs(resid) <= _LOSS_INVERSE_TOL)
        active, resid = active[pending], resid[pending]
        if not active.size:
            break
        now = t[active]
        lo[active] = np.where(resid < 0.0, now, lo[active])
        hi[active] = np.where(resid > 0.0, now, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            proposal = now - resid / slope[active]
        inside = (proposal > lo[active]) & (proposal < hi[active])
        t[active] = np.where(inside, proposal, 0.5 * (lo[active] + hi[active]))
    else:
        raise RootFindingError(
            f"loss inverse did not reach |loss(t) - s| <= {_LOSS_INVERSE_TOL} "
            f"within {_LOSS_INVERSE_MAX_ITER} iterations"
        )
    return t, slope, lse_up, lse_down


def loss_inverse_with_replacement(spec: MechanismSpec, s):
    """Numerical inverse of the with-replacement loss.

    The loss is strictly increasing and odd with image all of R, so each
    distinct |s| is solved once for t >= 0 and t(-s) = -t(s). The loss is
    tabulated once on a lattice of t >= 0; each point starts from the
    table's cubic interpolation and is refined by Newton steps that fall
    back to bisection whenever they leave the bracketing lattice cell, on
    the points not yet converged only. Raises RootFindingError for a
    non-finite s or if the tolerance is not met within the iteration cap.
    """
    arr, scalar = _split_scalar(s)
    s = arr.ravel()
    reach, t = _wr_solve(spec, s)[:2]
    return _pack_scalar(_wr_mirror(s, reach, t, -t).reshape(arr.shape), scalar)


def pld_density_with_replacement(spec: MechanismSpec, s):
    """Privacy loss density for sampling with replacement.

    omega(s) = f_X(t) / loss'(t) at t = loss_inverse(s), where
    log f_X(t) = lse_up - t^2 / (2 sigma^2) - log(2 pi sigma^2) / 2 reuses
    the log-sum-exp of the root finder's last kernel evaluation, and
    lse_down in place of lse_up gives f_X(-t).
    """
    arr, scalar = _split_scalar(s)
    s = arr.ravel()
    reach, t, slope, lse_up, lse_down = _wr_solve(spec, s)
    two_var = 2.0 * spec.sigma * spec.sigma
    square = np.multiply(t, t, out=t)
    square /= two_var
    # lse_up and lse_down turn into omega at +|s| and at -|s|, in place.
    for omega in (lse_up, lse_down):
        omega -= square
        omega -= 0.5 * math.log(math.pi * two_var)
        np.exp(omega, out=omega)
        omega /= slope
    out = _wr_mirror(s, reach, lse_up, lse_down)
    return _pack_scalar(out.reshape(arr.shape), scalar)
