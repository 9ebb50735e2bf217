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

Every density, loss and loss inverse takes a scalar or an array of any
shape (see _pointwise) and evaluates in a vectorised, overflow-safe way.
The Poisson and without-replacement densities are 0 at s = +-inf; the
with-replacement loss inverse raises DomainError for a non-finite s.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NonConvergenceError

# Largest accepted noise scale. The densities square loss inverses of order
# sigma^2 times a few thousand (|s| <= 700 on any grid, |log q| <= 745), so
# sigma^4 must stay far below the largest double; at q = 0.01 and L = 8 the
# Poisson density overflows from about sigma = 1e77.
_SIGMA_MAX = 1e50
_LOSS_INVERSE_TOL = 1e-13
_LOSS_INVERSE_MAX_ITER = 100
# With-replacement root finder: cells of the loss table on [0, T], points
# per kernel chunk (its two temporaries are window terms x points: at
# batch_size 64 and sigma 1 a Newton chunk's windows hold at most 14 terms
# up and 6 down, 0.4 and 0.2 MiB, where all 65 terms took 2 MiB each), and
# the floor of the max-shifted exponents (exp(-700) is still a normal double).
_LOSS_TABLE_CELLS = 1024
_KERNEL_CHUNK_ROWS = 4096
_EXP_FLOOR = -700.0
# With-replacement log weights and loss tables kept per process, the most
# recently used of each: the calls of a CLI command, of a sweep or of a
# training loop share one mechanism and one grid radius, and so one table
# (about 57 KB at 1024 cells).
_WR_CACHE_SIZE = 8
# The quintic Hermite interpolant on u in [0, 1] is p(u) = p(0) + sum_k a_k u^k,
# with a_1 .. a_5 (the rows) this matrix times the data (the columns)
# p(1) - p(0), p'(0), p'(1), p''(0) and p''(1).
_HERMITE_QUINTIC = np.array([
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, 0.0],
    [10.0, -6.0, -4.0, -1.5, 0.5],
    [-15.0, 8.0, 7.0, 1.5, -1.0],
    [6.0, -3.0, -3.0, -0.5, 0.5],
])


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
        q: sampling fraction in (0, 1] for POISSON / WITHOUT_REPLACEMENT, a
            normal float (a subnormal q overflows the densities).
            q = 1 is the non-subsampled limit, in which the Poisson density
            collapses to the plain Gaussian privacy loss. Must be None for
            WITH_REPLACEMENT.
        batch_size: integer number of independent draws (WITH_REPLACEMENT only).
        dataset_size: integer number of records, each hit by a draw with
            probability 1 / dataset_size (WITH_REPLACEMENT only).
        direction: likelihood-ratio direction; X_OVER_Y for substitute schemes.
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
            # A subnormal q overflows the densities, which divide by it.
            if not (sys.float_info.min <= self.q <= 1.0):
                raise DomainError(f"q must lie in (0, 1] and be a normal float, got {self.q}")
            if self.batch_size is not None or self.dataset_size is not None:
                raise DomainError(
                    "batch_size/dataset_size only apply to the with-replacement scheme"
                )
        else:
            if self.q is not None:
                raise DomainError("the with-replacement scheme derives q from dataset_size")
            for name in ("batch_size", "dataset_size"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, (numbers.Integral, type(None))):
                    raise DomainError(f"{name} must be an integer, got {value!r}")
            if self.batch_size is None or self.batch_size < 1:
                raise DomainError(f"batch_size must be a positive integer, got {self.batch_size}")
            if self.dataset_size is None or self.dataset_size < 2:
                raise DomainError(f"dataset_size must be at least 2, got {self.dataset_size}")
            if self.batch_size > self.dataset_size:
                raise DomainError(
                    f"batch_size {self.batch_size} exceeds dataset_size {self.dataset_size}"
                )
        if not self.directional and self.direction is not Direction.X_OVER_Y:
            raise DomainError(f"the {self.scheme.value} scheme has no direction but x-over-y")

    @property
    def directional(self) -> bool:
        """Whether the two likelihood-ratio directions differ: for POISSON's
        remove/add relation only (substitute losses are odd)."""
        return self.scheme is Scheme.POISSON

    def with_direction(self, direction: Direction) -> "MechanismSpec":
        """This mechanism in the given likelihood-ratio direction.

        Returns self when the direction is unchanged or the scheme is a
        substitute one, whose two directions coincide.
        """
        if not self.directional or self.direction is direction:
            return self
        return dataclasses.replace(self, direction=direction)

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi), outside which the privacy loss density is zero. Only a
        subsampled Poisson mechanism has a finite edge, log(1-q), mirrored
        in the Y_OVER_X direction."""
        if not self.directional or self.q == 1.0:
            return -math.inf, math.inf
        edge = math.log1p(-self.q)
        return (edge, math.inf) if self.direction is Direction.X_OVER_Y else (-math.inf, -edge)

    def density(self, s):
        """The privacy loss density omega at s, a scalar or an array, by the
        scheme's formula, looked up in the module namespace at each call."""
        if self.scheme is Scheme.POISSON:
            return pld_density_poisson(self, s)
        if self.scheme is Scheme.WITHOUT_REPLACEMENT:
            return pld_density_without_replacement(self, s)
        return pld_density_with_replacement(self, s)


def _pointwise(formula):
    """formula(spec, x), written for a flat float array x, made to take a
    scalar x, giving a float, or an array of any shape, giving an array of
    that shape. The name and module stay formula's."""

    @functools.wraps(formula)
    def pointwise(spec: MechanismSpec, x):
        arr = np.asarray(x, dtype=float)
        out = formula(spec, arr.ravel())
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return pointwise


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

@_pointwise
def loss_poisson(spec: MechanismSpec, t: np.ndarray) -> np.ndarray:
    """Privacy loss log(f_X(t)/f_Y(t)) for Poisson subsampling."""
    sigma, q = spec.sigma, spec.q
    a = (2.0 * t - 1.0) / (2.0 * sigma * sigma)
    if q == 1.0:
        return a
    return np.logaddexp(math.log(q) + a, math.log1p(-q))


def _poisson_inverse(sigma: float, q: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loss inverse t = sigma^2 log((exp(s) - (1-q))/q) + 1/2 at each s,
    and its slope dt/ds = sigma^2 exp(s) / (exp(s) - (1-q)).

    exp(s) - (1-q) is taken as expm1(s) + q, which keeps precision near the
    support edge log(1-q); where it is not positive, t is -inf and the slope 0.
    """
    u = np.expm1(s) + q
    ok = u > 0.0
    t = np.full_like(s, -np.inf)
    np.log(u, out=t, where=ok)
    t = sigma * sigma * (t - math.log(q)) + 0.5
    slope = np.zeros_like(s)
    np.divide(np.exp(s), u, out=slope, where=ok)
    slope *= sigma * sigma
    return t, slope


@_pointwise
@np.errstate(invalid="ignore")  # the slope at s = inf, inf / inf, is not used
def loss_inverse_poisson(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Inverse of the Poisson loss, by _poisson_inverse; at q = 1 it is
    sigma^2 s + 1/2, as expm1(s) + 1 loses digits for s below 0.

    Raises DomainError if any point lies at or below the support edge
    log(1-q), where the inverse is undefined.
    """
    sigma, q = spec.sigma, spec.q
    if q == 1.0:
        return sigma * sigma * s + 0.5
    t = _poisson_inverse(sigma, q, s)[0]
    if np.any(t == -np.inf) or np.any(s <= math.log1p(-q)):
        raise DomainError(
            f"loss inverse undefined at or below the support edge log(1-q) = {math.log1p(-q):.6g}"
        )
    return t


def _poisson_density_xy(sigma: float, q: float, arr: np.ndarray) -> np.ndarray:
    """The X-over-Y density; 0 outside the support and at s = inf, where
    the slope is inf / inf."""
    out = np.zeros_like(arr)
    inside = (arr > (math.log1p(-q) if q < 1.0 else -math.inf)) & (arr < math.inf)
    t, slope = _poisson_inverse(sigma, q, arr[inside])
    out[inside] = _mixture_pdf(t, sigma, q) * slope
    return out


@_pointwise
def pld_density_poisson(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Privacy loss density for Poisson subsampling.

    The X-over-Y direction is evaluated directly from the loss inverse and
    its derivative; the Y-over-X direction follows from the identity
    omega_yx(s) = exp(s) * omega_xy(-s), so its support is the mirrored
    interval (-inf, -log(1-q)). The factor exp(s) is applied only where
    omega_xy(-s) is positive, so that s = inf gives 0, not inf * 0.
    """
    if spec.direction is Direction.X_OVER_Y:
        return _poisson_density_xy(spec.sigma, spec.q, s)
    mirrored = _poisson_density_xy(spec.sigma, spec.q, -s)
    return np.multiply(np.exp(s), mirrored, out=mirrored, where=mirrored > 0.0)


# ---------------------------------------------------------------------------
# Sampling without replacement, substitute relation
# ---------------------------------------------------------------------------

@_pointwise
def loss_without_replacement(spec: MechanismSpec, t: np.ndarray) -> np.ndarray:
    """Privacy loss for fixed-size sampling without replacement."""
    sigma, q = spec.sigma, spec.q
    two_var = 2.0 * sigma * sigma
    a = (2.0 * t - 1.0) / two_var
    b = (-2.0 * t - 1.0) / two_var
    if q == 1.0:
        return a - b
    lq, l1q = math.log(q), math.log1p(-q)
    return np.logaddexp(lq + a, l1q) - np.logaddexp(lq + b, l1q)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _wor_inverse(sigma: float, q: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loss inverse t at each s, and its slope dt/ds.

    With c = q exp(-1/(2 sigma^2)) and b = (1-q)(1-exp(s)), x = exp(t/sigma^2)
    solves c x^2 + b x - c exp(s) = 0. With R = sqrt(b^2 + 4 c^2 exp(s)) the
    root is (R - b) / (2 c) for s >= 0 and the equal 2 c exp(s) / (R + b)
    for s < 0, so neither form cancels; the slope is
    sigma^2 exp(s) (2 c^2 + (1-q)(R - b)) / (R (R - b)), with R - b taken as
    4 c^2 exp(s) / (R + b) where b > 0. _wor_inverse_far gives both where they
    are not finite: beyond |s| of about 355 (b^2 overflows) or once c^2 underflows.
    """
    c = q * math.exp(-1.0 / (2.0 * sigma * sigma))
    es = np.exp(s)
    b = -(1.0 - q) * np.expm1(s)
    r = np.sqrt(b * b + 4.0 * c * c * es)
    r_plus_b = r + b
    decay = np.divide(2.0 * c * es, r_plus_b, out=np.zeros_like(s), where=r_plus_b > 0)
    t = sigma * sigma * np.log(np.where(s >= 0.0, (r - b) / (2.0 * c), decay))
    conj = np.divide(4.0 * c * c * es, r_plus_b, out=np.zeros_like(s), where=r_plus_b > 0)
    r_minus_b = np.where(b > 0.0, conj, r - b)
    slope = sigma * sigma * es * (2.0 * c * c + (1.0 - q) * r_minus_b) / (r * r_minus_b)
    far = ~(np.isfinite(t) & np.isfinite(slope))
    if far.any():
        t[far], slope[far] = _wor_inverse_far(sigma, q, s[far])
    return t, slope


def _wor_inverse_far(sigma: float, q: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_wor_inverse's (t, slope) by t = sigma^2 (s/2 + asinh(sinh(s/2) / k))
    and slope = sigma^2 (1 + cosh(s/2) / sqrt(sinh(s/2)^2 + k^2)) / 2 with
    k = c / (1-q), in logs, as k underflows where c does and sinh(s/2) / k
    can overflow; asinh(e^z) = log(e^z + sqrt(e^(2z) + 1)). At s = +-inf,
    where the logs give NaN, t is s and the slope its limit sigma^2. Only
    s = 0 with c = 0, where the density is a point mass, stays not finite.
    """
    half = 0.5 * np.abs(s)
    log_sinh = np.log(np.sinh(half))
    log_k = math.log(q) - 1.0 / (2.0 * sigma * sigma)
    log_k = log_k - math.log1p(-q) if q < 1.0 else math.inf
    z = log_sinh - log_k
    asinh = np.logaddexp(z, 0.5 * np.logaddexp(2.0 * z, 0.0))
    t = sigma * sigma * (0.5 * s + np.copysign(asinh, s))
    ratio = np.cosh(half) * np.exp(-0.5 * np.logaddexp(2.0 * log_sinh, 2.0 * log_k))
    infinite = np.isinf(s)
    t[infinite], ratio[infinite] = s[infinite], 1.0
    return t, 0.5 * sigma * sigma * (1.0 + ratio)


@_pointwise
def loss_inverse_without_replacement(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the without-replacement loss."""
    return _wor_inverse(spec.sigma, spec.q, s)[0]


@_pointwise
def pld_density_without_replacement(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Privacy loss density for sampling without replacement.

    The loss is odd, so this density serves both directions and satisfies
    omega(s) = exp(s) * omega(-s).
    """
    t, slope = _wor_inverse(spec.sigma, spec.q, s)
    return _mixture_pdf(t, spec.sigma, spec.q) * slope


# ---------------------------------------------------------------------------
# Sampling with replacement, substitute relation
# ---------------------------------------------------------------------------

def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, as a cache may hand them to many callers."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_WR_CACHE_SIZE)
def _wr_log_weights(spec: MechanismSpec):
    """Binomial mixture weights, in log space, read-only and kept per process.

    Returns (centres, log_coeff) where log_coeff are the log probabilities
    of hitting the substituted record ell times in batch_size draws plus the
    Gaussian factor -ell^2 / (2 sigma^2) that appears in the loss polynomial.
    """
    m = spec.batch_size
    p = 1.0 / spec.dataset_size
    ell = np.arange(m + 1, dtype=float)
    log_binom = (
        gammaln(m + 1.0)
        - gammaln(ell + 1.0)
        - gammaln(m - ell + 1.0)
        + ell * math.log(p)
        + (m - ell) * math.log1p(-p)
    )
    log_coeff = log_binom - np.square(ell) / (2.0 * spec.sigma * spec.sigma)
    return _read_only(ell, log_coeff)


def _shifted_lse(exponents: np.ndarray, ell: np.ndarray):
    """Log-sum-exp of each column of exponents, one row per ell, and the
    means of ell and of ell^2 under the column's softmax, as the two rows
    of one array.

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
    moments = np.stack((ell, ell * ell)) @ exponents
    moments /= total
    return peak + np.log(total), moments


def _chunks(size: int):
    """The fewest slices of at most _KERNEL_CHUNK_ROWS rows covering
    range(size), all of one length but the last, which is shorter by less
    than their number: 8193 rows make three chunks of 2731, where chunks of
    4096 would leave a one-row tail that costs a kernel call of its own."""
    count = -(-size // _KERNEL_CHUNK_ROWS)
    step = -(-size // count) if count else 1
    for start in range(0, size, step):
        yield slice(start, start + step)


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
    """Loss, its slope and curvature, and the log-sum-exps up and down at
    each t.

    up and down are the log-sum-exps of log_coeff +- t ell / sigma^2; the
    loss is up - down, its slope is the sum of the two softmax means of ell
    over sigma^2, and its curvature is the difference of the two softmax
    variances of ell over sigma^4. t is one-dimensional and processed in
    chunks of at most _KERNEL_CHUNK_ROWS points. Each chunk sums only the
    terms ell that its extreme points can see, one window up and one down:
    the exponents are concave in ell, so the terms within reach of the
    largest at the chunk's smallest and largest t bound those of every t in
    between, and the terms left out weigh less than 2^-60 of the largest
    (see _wr_window). At batch_size 64 and sigma 1 that is at most 20 of the
    2 (batch_size + 1) terms on a chunk of nearby t. Negating t swaps the
    two windows along with the two sides, so it swaps up and down, negates
    the loss and the curvature and keeps the slope, bit for bit.
    """
    ell, log_coeff = _wr_log_weights(spec)
    inv_var = 1.0 / (spec.sigma * spec.sigma)
    loss, slope, curvature, lse_up, lse_down = (np.empty_like(t) for _ in range(5))
    for rows in _chunks(t.size):
        x = t[rows] * inv_var
        up, (up_mean, up_square) = _windowed_lse(log_coeff, ell, x)
        down, (down_mean, down_square) = _windowed_lse(log_coeff, ell, np.negative(x, out=x))
        loss[rows] = up - down
        slope[rows] = (up_mean + down_mean) * inv_var
        up_square -= up_mean * up_mean
        down_square -= down_mean * down_mean
        curvature[rows] = (up_square - down_square) * (inv_var * inv_var)
        lse_up[rows] = up
        lse_down[rows] = down
    return loss, slope, curvature, lse_up, lse_down


@_pointwise
def loss_with_replacement(spec: MechanismSpec, t: np.ndarray) -> np.ndarray:
    """Privacy loss for sampling with replacement, via a max-shifted log-sum-exp."""
    return _wr_kernel(spec, t)[0]


@functools.lru_cache(maxsize=_WR_CACHE_SIZE)
def _wr_loss_table(spec: MechanismSpec, reach: float):
    """The loss inverse t(s) on a lattice of t >= 0 covering losses s in
    [0, reach], as read-only (t, s, quintic), kept per process. Every grid of
    radius L starts at -L, so its reach is L at any size n.

    _LOSS_TABLE_CELLS equal cells span [0, T], where T is the first power of
    two from 1 up at which the loss exceeds reach (or is not finite, which
    fails). For t >= 0 the log-sum-exp down is at most log sum pmf = 0 and
    the one up at least its ell = m term, -m log N - m^2 / (2 sigma^2)
    + t m / sigma^2 (m = batch_size, N = dataset_size), so the loss exceeds
    reach beyond sigma^2 (reach + m log N) / m + m / 2. One kernel call
    tries every power up to twice the first one past that bound; its points
    beyond T may overflow unseen.

    Column j of quintic holds a_1 .. a_5 of the quintic Hermite interpolant
    of the inverse over cell j, t(s) = t_j + sum_k a_k u^k with
    u = (s - s_j) / (s_j+1 - s_j), which matches t, dt/ds = 1 / loss' and
    d2t/ds2 = -loss'' / loss'^3 at both of its edges; loss' and loss'' are
    the kernel's slope and curvature.
    """
    m, sigma = spec.batch_size, spec.sigma
    bound = sigma * sigma * (reach + m * math.log(spec.dataset_size)) / m + m / 2.0
    extents = np.ldexp(1.0, np.arange(max(math.frexp(bound)[1], 0) + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        edges = _wr_kernel(spec, extents)[0]
    # With no edge beyond reach, argmax picks edges[0] <= reach, which fails.
    first = int(np.argmax(~(edges <= reach)))
    extent, edge = extents[first], edges[first]
    if not (math.isfinite(edge) and edge > reach):
        raise NonConvergenceError(f"could not tabulate the loss out to |s| = {reach:.6g}")
    t = np.linspace(0.0, extent, _LOSS_TABLE_CELLS + 1)
    loss, slope, curvature = _wr_kernel(spec, t)[:3]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dt = 1.0 / slope
        d2t = -curvature * dt * dt * dt
        # Per cell: the step in t, then the derivatives at its two edges in
        # u, which scales the k-th derivative in s by the cell's width^k.
        width = np.diff(loss)
        data = np.stack((
            np.diff(t),
            width * dt[:-1],
            width * dt[1:],
            width * width * d2t[:-1],
            width * width * d2t[1:],
        ))
        quintic = _HERMITE_QUINTIC @ data
    return _read_only(t, loss, quintic)


def _wr_solve(spec: MechanismSpec, s: np.ndarray):
    """The rank of each |s| of a 1-d s among its distinct values, as an index
    array (int32 unless s is too long for it), and (t, slope, lse_up,
    lse_down) at the loss inverse t >= 0 of each distinct |s|, ascending.

    The loss is odd, so the inverse at -|s| is -t with up and down swapped
    (see _wr_kernel) and each |s| is solved once. One stable argsort of |s|
    (a pass per monotone run, two on a grid) gives both the distinct |s| and
    the ranks; it is freed before the solve. One loss table serves all of
    them, and they are solved in chunks of at most _KERNEL_CHUNK_ROWS rows,
    so the root finder's state is bounded too.
    """
    if not np.all(np.isfinite(s)):
        raise DomainError("the loss inverse needs finite privacy losses")
    order = np.argsort(np.abs(s), kind="stable")
    magnitude = s[order]
    np.abs(magnitude, out=magnitude)
    new = np.empty(magnitude.size, dtype=bool)
    new[:1] = True
    np.not_equal(magnitude[1:], magnitude[:-1], out=new[1:])
    index = np.empty(s.size, dtype=np.int32 if s.size <= np.iinfo(np.int32).max else np.intp)
    rank = np.cumsum(new, dtype=index.dtype)
    rank -= 1
    index[order] = rank
    del order, rank
    # The distinct |s| and the four results live in two blocks, (|s|, t,
    # slope) and (lse_up, lse_down), filled chunk by chunk with no temporary
    # of their size: glibc raises its mmap threshold to the size of a freed
    # mmapped array, and later arrays up to that size then come from the
    # heap, where they can stay resident. The density frees the first block
    # before its mirror allocates the output.
    reach, *solved = np.empty((3, np.count_nonzero(new)))
    solved.extend(np.empty((2, reach.size)))
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
    return index, *solved


def _wr_mirror(s: np.ndarray, index: np.ndarray, at_plus: np.ndarray, at_minus: np.ndarray):
    """Per entry of s, at_plus or (where s has its sign bit set) at_minus at
    the rank index holds for it (see _wr_solve), in chunks, so that no
    temporary grows with s."""
    out = np.empty_like(s)
    for rows in _chunks(s.size):
        at = index[rows]
        out[rows] = np.where(np.signbit(s[rows]), at_minus[at], at_plus[at])
    return out


def _wr_missed(resid: np.ndarray, t: np.ndarray, slope: np.ndarray, lse_up: np.ndarray,
               lse_down: np.ndarray):
    """Which rows of a kernel evaluation at t still miss their root, as a
    mask, and the tolerance each of those rows missed.

    A row converges once |resid| <= _LOSS_INVERSE_TOL. Far out the loss
    steps by more than that between adjacent doubles t, so its rounding
    there is accepted too: a step of t times the slope, plus a few ulps of
    the larger log-sum-exp, of which the loss is a difference. A NaN
    residual never counts as converged.
    """
    pending = ~(np.abs(resid) <= _LOSS_INVERSE_TOL)
    if not pending.any():
        return pending, None
    lse = np.maximum(np.abs(lse_up[pending]), np.abs(lse_down[pending]))
    rounding = slope[pending] * np.spacing(t[pending]) + 4.0 * np.spacing(lse)
    near = np.abs(resid[pending]) <= rounding
    pending[pending] = ~near
    return pending, np.fmax(rounding[~near], _LOSS_INVERSE_TOL)


def _wr_newton(spec: MechanismSpec, s: np.ndarray, table: tuple[np.ndarray, ...]):
    """Bracketed Newton on one chunk of s >= 0, from the table's quintic start.

    The start is the table's quintic interpolant of the inverse over the
    cell holding s; where it leaves the cell, the linear interpolant is
    used. The start depends on s and the table only, and so does t wherever
    the first kernel evaluation accepts it, as it does at almost every s.
    That evaluation covers the whole chunk; later ones only the rows still
    pending. Returns t with the slope, lse_up and lse_down of the kernel
    evaluation that accepted it (see _wr_missed).
    """
    t_table, loss_table, quintic = table
    cell = np.searchsorted(loss_table, s, side="right").clip(1, loss_table.size - 1) - 1
    lo, hi = t_table[cell], t_table[cell + 1]
    u = (s - loss_table[cell]) / (loss_table[cell + 1] - loss_table[cell])
    a1, a2, a3, a4, a5 = np.take(quintic, cell, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        start = lo + u * (a1 + u * (a2 + u * (a3 + u * (a4 + u * a5))))
    t = np.where((start >= lo) & (start <= hi), start, lo + u * (hi - lo))
    loss, slope, _, lse_up, lse_down = _wr_kernel(spec, t)
    resid = loss - s
    pending, tolerance = _wr_missed(resid, t, slope, lse_up, lse_down)
    active, resid = np.flatnonzero(pending), resid[pending]
    for _ in range(_LOSS_INVERSE_MAX_ITER - 1):
        if not active.size:
            break
        now = t[active]
        lo[active] = np.where(resid < 0.0, now, lo[active])
        hi[active] = np.where(resid > 0.0, now, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            proposal = now - resid / slope[active]
        inside = (proposal > lo[active]) & (proposal < hi[active])
        now = np.where(inside, proposal, 0.5 * (lo[active] + hi[active]))
        loss, now_slope, _, now_up, now_down = _wr_kernel(spec, now)
        t[active], slope[active] = now, now_slope
        lse_up[active], lse_down[active] = now_up, now_down
        resid = loss - s[active]
        pending, tolerance = _wr_missed(resid, now, now_slope, now_up, now_down)
        active, resid = active[pending], resid[pending]
    if active.size:
        raise NonConvergenceError(
            f"loss inverse did not reach |loss(t) - s| <= {float(np.max(tolerance)):.3g} "
            f"within {_LOSS_INVERSE_MAX_ITER} iterations"
        )
    return t, slope, lse_up, lse_down


@_pointwise
def loss_inverse_with_replacement(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Numerical inverse of the with-replacement loss.

    The loss is strictly increasing and odd with image all of R, so each
    distinct |s| is solved once for t >= 0 and t(-s) = -t(s). The loss is
    tabulated once on a lattice of t >= 0; each point starts from the
    table's quintic interpolation and is refined by Newton steps that fall
    back to bisection whenever they leave the bracketing lattice cell, on
    the points not yet converged only. Raises DomainError for a non-finite
    s, and NonConvergenceError if the tolerance is not met within the
    iteration cap.
    """
    index, t = _wr_solve(spec, s)[:2]
    return _wr_mirror(s, index, t, -t)


@_pointwise
def pld_density_with_replacement(spec: MechanismSpec, s: np.ndarray) -> np.ndarray:
    """Privacy loss density for sampling with replacement.

    omega(s) = f_X(t) / loss'(t) at t = loss_inverse(s), where
    log f_X(t) = lse_up - t^2 / (2 sigma^2) - log(2 pi sigma^2) / 2 reuses
    the log-sum-exp of the root finder's last kernel evaluation, and
    lse_down in place of lse_up gives f_X(-t).
    """
    index, t, slope, lse_up, lse_down = _wr_solve(spec, s)
    two_var = 2.0 * spec.sigma * spec.sigma
    square = np.multiply(t, t, out=t)
    square /= two_var
    # lse_up and lse_down turn into omega at +|s| and at -|s|, in place.
    for omega in (lse_up, lse_down):
        omega -= square
        omega -= 0.5 * math.log(math.pi * two_var)
        np.exp(omega, out=omega)
        # Where the loss is flat to rounding (s near 0 at a tiny sigma) the
        # slope can underflow to 0 and omega to 0/0. The convolution reports
        # that sample as not finite (spectral._inverse), so numpy need not.
        with np.errstate(divide="ignore", invalid="ignore"):
            omega /= slope
    del t, slope, square
    return _wr_mirror(s, index, lse_up, lse_down)
