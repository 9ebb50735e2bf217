"""Invert the accountant: what epsilon does a delta budget buy?

On the grid, delta(epsilon) is continuous and decreasing, and inside each
grid cell it has the closed form U - exp(epsilon) * W with suffix sums U and
W of the convolved density, so epsilon_of_delta finds the cell where delta
crosses the target and solves for epsilon there exactly, from the single
convolution. This script inverts a few budgets for a fixed training run and
then feeds one returned epsilon back through delta_of_epsilon as a check.
"""

from dpconv import CompositionQuery, Grid, MechanismSpec, delta_of_epsilon, epsilon_of_delta

mechanism = MechanismSpec(sigma=1.5, q=0.01)
grid = Grid(12.0, 2**17)
steps = 10_000

print(f"{'target delta':>14}  {'epsilon':>20}  {'achieved delta':>20}  {'grid index':>10}")
for target in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
    query = CompositionQuery.homogeneous(mechanism, k=steps, grid=grid, delta=target)
    result = epsilon_of_delta(query)
    print(
        f"{target:>14.1e}  {result.value:>20.12f}  {result.delta:>20.12e}  "
        f"{result.ell_eps:>10}"
    )

# Round trip: the delta at the returned epsilon hits the target to within
# an absolute 1e-10, which epsilon_of_delta checks.
target = 1e-5
query = CompositionQuery.homogeneous(mechanism, k=steps, grid=grid, delta=target)
inverted = epsilon_of_delta(query)
forward = delta_of_epsilon(
    CompositionQuery.homogeneous(mechanism, k=steps, grid=grid, epsilon=inverted.value)
)
print(f"\nround trip at target {target:.0e}:")
print(f"  epsilon_of_delta -> {inverted.value:.12f}")
print(f"  delta_of_epsilon back -> {forward.value:.12e} (residual {abs(forward.value - target):.2e})")
