"""Tail, periodisation, and discretisation error control for the accountant.

The accountant's results carry answers only; every error figure comes from
here, from the query alone or, for the discretisation estimate, from a result.

Three sources of error separate the computed delta from the exact one:

* truncation: mass of the convolved loss density beyond the grid radius,
  controlled through Chernoff bounds on the moment generating function of
  the loss (tail_estimate, analytic_tail_bound);
* periodisation: the circular convolution wraps tail mass back into the
  window (periodisation_bound);
* discretisation: the left-Riemann sum against the exact integral, estimated
  to first order by comparing a result with the same epsilon on the doubled
  grid (discretization_estimate), whose warnings the estimate names.

Every closed-form bound carries explicit preconditions inherited from the
moment lemmas it rests on. Rather than raising, each function returns a
BoundResult with the value, a validity flag, and the list of violated
conditions, so callers can still print an advisory number clearly labelled
as out of envelope. The one exception is analytic_tail_bound, whose claim to
rigour would be meaningless outside its envelope: it reports nan there.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from . import accountant
from .errors import DomainError
from .mechanisms import Scheme

_SERIES_TERM_FLOOR = 1e-300
_SERIES_MAX_TERMS = 64
# The moment lemmas both tail formulas rest on cover Poisson and
# without-replacement sampling only.
_WR_OUTSIDE = "the moment lemma does not cover with-replacement sampling"


@dataclass(frozen=True)
class BoundResult:
    """A bound value plus the verdict on its preconditions.

    violated lists human-readable descriptions of the failed conditions,
    and the property valid is True exactly when it is empty. details
    carries named intermediate quantities (for the periodisation bound: the
    individual terms and the series length).
    """

    value: float
    violated: tuple[str, ...] = ()
    details: tuple[tuple[str, float], ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violated


def _exp(exponent: float) -> float:
    if exponent > 709.0:
        return math.inf
    return math.exp(exponent)


def alpha_lambda_limit(sigma: float, q: float) -> float:
    """Largest moment order the alpha_bound envelope admits: sigma^2 log(1/(q sigma))."""
    return sigma * sigma * math.log(1.0 / (q * sigma))


def alpha_bound(sigma: float, q: float, lam: float) -> BoundResult:
    """Moment bound on the loss: log E[exp(lam * loss)] <= q^2 lam (lam+1) / ((1-q) sigma^2).

    The closed form drops a cubic correction term, so the result is an
    estimate of the moment rather than a proven bound; its envelope is
    sigma >= 1, q < 1/(16 sigma), 1 <= lam <= alpha_lambda_limit(sigma, q).
    The value is computed regardless, with validity flagged.
    """
    if sigma <= 0 or not (0.0 < q <= 1.0):
        raise DomainError(f"alpha_bound needs sigma > 0 and q in (0, 1], got {sigma}, {q}")
    violated = []
    if sigma < 1.0:
        violated.append(f"sigma >= 1 fails (sigma = {sigma:g})")
    if q >= 1.0 / (16.0 * sigma):
        violated.append(f"q < 1/(16 sigma) fails (q = {q:g}, limit {1.0 / (16.0 * sigma):g})")
    if q == 1.0:
        # The (1-q) denominator degenerates at the non-subsampled limit; an
        # infinite moment value keeps downstream tolerances conservative.
        violated.append("q < 1 fails (q = 1 collapses the mixture)")
        return BoundResult(value=math.inf, violated=tuple(violated))
    limit = alpha_lambda_limit(sigma, q)
    if not (1.0 <= lam <= limit):
        violated.append(f"1 <= lambda <= {limit:.4g} fails (lambda = {lam:g})")
    value = q * q * lam * (lam + 1.0) / ((1.0 - q) * sigma * sigma)
    return BoundResult(value=value, violated=tuple(violated))


def tail_estimate(query) -> BoundResult:
    """Chernoff-style estimate of the query's convolved mass beyond the grid.

    exp(sum_i k_i alpha_i(L/2)) exp(-L^2 / 2), summing the closed-form alpha
    of each mechanism over its k_i invocations: log-moments add across
    independent mechanisms. It shares alpha_bound's envelope at lam = L/2
    and inherits its approximative character. A with-replacement mechanism
    enters with its aggregate sampling fraction batch_size / dataset_size,
    which the moment lemma does not cover, so it is listed as violated.
    """
    half_width = query.grid.half_width
    exponent = 0.0
    violated: dict[str, None] = {}
    for spec, count in zip(query.specs, query.counts):
        q = spec.q
        if spec.scheme is Scheme.WITH_REPLACEMENT:
            q = spec.batch_size / spec.dataset_size
            violated[_WR_OUTSIDE] = None
        alpha = alpha_bound(spec.sigma, q, half_width / 2.0)
        exponent += count * alpha.value
        violated.update(dict.fromkeys(alpha.violated))
    value = _exp(exponent - half_width * half_width / 2.0)
    return BoundResult(value=value, violated=tuple(violated))


def _analytic_conditions(sigma: float, q: float, lam: float) -> list[str]:
    violated = []
    if q > 0.2:
        violated.append(f"q <= 1/5 fails (q = {q:g})")
    if sigma < 4.0:
        violated.append(f"sigma >= 4 fails (sigma = {sigma:g})")
    if lam <= 1.0:
        violated.append(f"lambda > 1 fails (lambda = {lam:g})")
        return violated
    c = math.log1p(1.0 / (q * (lam - 1.0)))
    first_cap = sigma * sigma * c / 2.0 - 2.0 * math.log(sigma)
    if lam > first_cap:
        violated.append(
            f"lambda <= sigma^2 c/2 - 2 log sigma fails (lambda = {lam:g}, cap {first_cap:.4g})"
        )
    denom = c + math.log(q * lam) + 1.0 / (2.0 * sigma * sigma)
    second_cap = (sigma * sigma * c / 2.0 - math.log(5.0) - 2.0 * math.log(sigma)) / denom
    if denom <= 0.0 or lam > second_cap:
        violated.append(
            "lambda <= (sigma^2 c/2 - log 5 - 2 log sigma)/(c + log(q lambda) + 1/(2 sigma^2)) "
            f"fails (lambda = {lam:g}, cap {second_cap:.4g})"
        )
    return violated


def analytic_tail_bound(query) -> BoundResult:
    """Rigorous tail bound prod_i (1 + 2 q_i^2 (lam+1) lam / sigma_i^2)^k_i exp(-L^2/2),
    lam = L/2, for the query's composition.

    Valid only when every mechanism lies in its envelope (q <= 1/5,
    sigma >= 4, and two caps on lam; with-replacement and q = 1 are
    outside it); otherwise there is no rigorous claim to make, so the value
    is nan and the violated conditions are listed.
    """
    half_width = query.grid.half_width
    lam = half_width / 2.0
    log_total = 0.0
    violated: dict[str, None] = {}
    for spec, count in zip(query.specs, query.counts):
        if spec.scheme is Scheme.WITH_REPLACEMENT:
            violated[_WR_OUTSIDE] = None
            continue
        sigma, q = spec.sigma, spec.q
        if q >= 1.0:
            violated["q < 1 fails (q = 1 collapses the mixture)"] = None
            continue
        violated.update(dict.fromkeys(_analytic_conditions(sigma, q, lam)))
        log_total += count * math.log1p(2.0 * q * q * (lam + 1.0) * lam / (sigma * sigma))
    if violated:
        return BoundResult(value=math.nan, violated=tuple(violated))
    return BoundResult(value=_exp(log_total - half_width * half_width / 2.0))


def analytic_lambda_limit(sigma: float, q: float) -> float:
    """Largest lambda the analytic_tail_bound envelope admits, by bisection.

    Only the two lambda caps are probed; the fixed gates on sigma and q must
    already hold, otherwise no lambda is admissible and 0 is returned. As
    log1p(x) <= x, no lambda >= 1 + sigma / sqrt(2 q) passes the first cap.
    Raises DomainError for a q that is not a positive normal float, as the
    caps divide by a multiple of q.
    """
    if not q >= sys.float_info.min:
        raise DomainError(f"q must be a positive normal float, got {q}")

    def admissible(lam: float) -> bool:
        return not _analytic_conditions(sigma, q, lam)

    lo, hi = 1.0 + 1e-9, 2.0 + 2.0 * sigma / math.sqrt(2.0 * q)
    if not admissible(lo):
        return 0.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def periodisation_bound(sigma: float, q: float, k: int, half_width: float) -> BoundResult:
    """Bound on the mass the circular convolution wraps back into the window.

    Three contributions: a boundary term L k sigma exp(-(sigma^2 L + C)^2 /
    (2 sigma^2)) with C = sigma^2 log(1/(2q)) - 1/2, a single-mechanism
    moment term exp(alpha(L/2)) exp(-L^2/2), and the doubly exponentially
    decaying image series 2 sum_j exp(k alpha(jL)) exp(-2 (jL)^2), truncated
    once terms drop below 1e-300 or after 64 terms. alpha is the
    closed-form alpha_bound for this sigma and q; its validity flags
    propagate into the result.
    """
    violated = []
    if not (0.0 < q < 0.5):
        violated.append(f"0 < q < 1/2 fails (q = {q:g})")
    if half_width < 1.0:
        violated.append(f"L >= 1 fails (L = {half_width:g})")

    shift = sigma * sigma * math.log(1.0 / (2.0 * q)) - 0.5
    boundary = (
        half_width * k * sigma
        * _exp(-((sigma * sigma * half_width + shift) ** 2) / (2.0 * sigma * sigma))
    )

    moment = alpha_bound(sigma, q, half_width / 2.0)
    alpha_violations = set(moment.violated)
    moment_term = _exp(moment.value - half_width * half_width / 2.0)

    series = 0.0
    terms_used = 0
    for j in range(1, _SERIES_MAX_TERMS + 1):
        image = j * half_width
        alpha_j = alpha_bound(sigma, q, image)
        alpha_violations.update(alpha_j.violated)
        term = 2.0 * _exp(k * alpha_j.value - 2.0 * image * image)
        series += term
        terms_used = j
        if term < _SERIES_TERM_FLOOR:
            break

    violated.extend(sorted(alpha_violations))
    return BoundResult(
        value=boundary + moment_term + series,
        violated=tuple(violated),
        details=(
            ("boundary_term", boundary),
            ("moment_term", moment_term),
            ("image_series", series),
            ("image_series_terms", float(terms_used)),
        ),
    )


def discretization_estimate(result, refined=None) -> BoundResult:
    """First-order discretisation error estimate 2 |I_n - I_2n| of a result.

    I_n is result.delta, the tight delta at result.epsilon on the result's
    grid, and I_2n the tight delta at that epsilon on the doubled grid; the
    factor 2 turns the difference of two first-order approximations into an
    estimate of the error of the coarser one. refined, when given, is that
    doubled-grid delta result, and DomainError is raised unless its query is
    the result's at result.epsilon on the doubled grid; otherwise it costs a
    full pipeline run. The estimate rests on that run, so violated lists each
    of its warnings the result lacks, as "n=<2n>: <warning>".
    """
    query = result.query
    doubled = dataclasses.replace(
        query, epsilon=result.epsilon, delta=None, grid=query.grid.refine()
    )
    if refined is None:
        refined = accountant.delta_of_epsilon(doubled)
    elif refined.kind != "delta" or refined.query != doubled:
        raise DomainError(
            "refined must be the delta result of the result's query at its epsilon on the "
            "doubled grid"
        )
    size = refined.query.grid.size
    return BoundResult(
        value=2.0 * abs(result.delta - refined.delta),
        violated=tuple(f"n={size}: {w}" for w in refined.warnings if w not in result.warnings),
    )
