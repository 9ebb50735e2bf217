"""Convergence of the composed delta under grid refinement.

Two sweeps at sigma=1.5, q=0.01, k=10^4, epsilon=1. The first doubles the
number of grid points at fixed half-width and watches the Richardson-style
discretisation estimate 2|I_n - I_2n| collapse; it prints the warnings of
each coarse row and of the doubled grid its estimate rests on. The second
widens the truncation radius at (roughly) fixed spacing and watches the tail
estimate take over as the dominant error term.
"""

from dpconv import CompositionQuery, Grid, MechanismSpec, delta_of_epsilon
from dpconv.error_bounds import discretization_estimate, tail_estimate

MECHANISM = MechanismSpec(sigma=1.5, q=0.01)
STEPS = 10_000


def sweep_size() -> None:
    print("refining the spacing (half_width fixed at 12)")
    print(f"{'n':>10}  {'delta(1)':>22}  {'2|I_n - I_2n|':>14}")
    # Each row's doubled grid is the next row's grid, so one run serves both.
    results = [
        delta_of_epsilon(
            CompositionQuery.homogeneous(MECHANISM, k=STEPS, grid=Grid(12.0, 2**e), epsilon=1.0)
        )
        for e in range(14, 22)
    ]
    for result, refined in zip(results, results[1:]):
        estimate = discretization_estimate(result, refined)
        print(f"{result.query.grid.size:>10}  {result.value:>22.15e}  {estimate.value:>14.3e}")
        for warning in (*result.warnings, *estimate.violated):
            print(f"    warning: {warning}")
    print()


def sweep_radius() -> None:
    # Grow n along with L so the spacing stays near 2*12/2^18.
    print("widening the truncation radius (spacing held near constant)")
    print(f"{'L':>4}  {'n':>9}  {'delta(1)':>22}  {'tail estimate':>14}")
    for half_width in (4.0, 6.0, 8.0, 10.0, 12.0):
        n = int(2**18 * half_width / 12.0)
        n += n % 2  # the grid needs an even point count
        query = CompositionQuery.homogeneous(
            MECHANISM, k=STEPS, grid=Grid(half_width, n), epsilon=1.0
        )
        result = delta_of_epsilon(query)
        print(
            f"{half_width:>4.0f}  {n:>9}  {result.value:>22.15e}  "
            f"{tail_estimate(query).value:>14.3e}"
        )


if __name__ == "__main__":
    sweep_size()
    sweep_radius()
