"""Tour of the error bounds that qualify an accounting answer.

The composed delta carries three sources of numerical error: mass truncated
beyond the grid, mass the circular convolution wraps back in, and the Riemann
discretisation itself. Each has its own estimator here, and the first two
come with validity envelopes that the estimators report instead of silently
extrapolating past.
"""

from dpconv import (
    CompositionQuery,
    Grid,
    MechanismSpec,
    alpha_bound,
    alpha_lambda_limit,
    analytic_lambda_limit,
    analytic_tail_bound,
    delta_of_epsilon,
    periodisation_bound,
    tail_estimate,
)
from dpconv.error_bounds import discretization_estimate

SIGMA, Q, K = 2.0, 0.01, 1_000
spec = MechanismSpec(sigma=SIGMA, q=Q)

print("moment bound alpha(lambda) and its envelope")
limit = alpha_lambda_limit(SIGMA, Q)
print(f"  closed form admits lambda < {limit:.4f} at sigma={SIGMA}, q={Q}")
for lam in (2.0, 8.0, 15.0, 16.0):
    bound = alpha_bound(SIGMA, Q, lam)
    marker = "ok" if bound.valid else f"outside envelope: {'; '.join(bound.violated)}"
    print(f"  lambda={lam:>5.1f}: alpha={bound.value:.6e}  [{marker}]")

print("\ntruncation tail estimate across the grid half-width")
print(f"{'L':>4}  {'estimate':>12}  {'valid':>5}")
for half_width in (6.0, 10.0, 14.0, 20.0, 40.0):
    t = tail_estimate(CompositionQuery.homogeneous(spec, K, Grid(half_width, 2**16)))
    print(f"{half_width:>4.0f}  {t.value:>12.3e}  {str(t.valid):>5}")

# The rigorous variant needs sigma >= 4 and q <= 1/5; inside its envelope it
# is a genuine upper bound rather than an estimate.
print("\nrigorous tail bound at sigma=4")
print(f"  envelope admits lambda < {analytic_lambda_limit(4.0, Q):.4f}")
loud = MechanismSpec(sigma=4.0, q=Q)
for half_width in (10.0, 20.0, 28.0, 40.0):
    b = analytic_tail_bound(CompositionQuery.homogeneous(loud, K, Grid(half_width, 2**16)))
    if b.valid:
        print(f"  L={half_width:>4.0f}: bound {b.value:.3e}")
    else:
        print(f"  L={half_width:>4.0f}: not claimed ({b.violated[0]})")

print("\nperiodisation (wrap-around) bound")
for half_width in (4.0, 8.0, 12.0):
    p = periodisation_bound(SIGMA, Q, K, half_width)
    parts = dict(p.details)
    print(
        f"  L={half_width:>4.0f}: total {p.value:.3e}  "
        f"(boundary {parts['boundary_term']:.1e}, moment {parts['moment_term']:.1e}, "
        f"images {parts['image_series']:.1e})"
    )

print("\ndiscretisation estimate 2|I_n - I_2n| for the full query")
for exponent in (14, 16, 18):
    query = CompositionQuery.homogeneous(spec, K, Grid(12.0, 2**exponent), epsilon=1.0)
    value = delta_of_epsilon(query).value
    print(f"  n=2^{exponent}: delta {value:.12e}, estimate {discretization_estimate(query, value=value):.3e}")
