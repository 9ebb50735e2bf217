"""
End-to-end delta accounting for a subsampled Gaussian training run
===================================================================

Walks the full pipeline once: describe the mechanism, pick a grid,
compose ten thousand steps, and read off the tight delta at epsilon = 1
together with the error estimates that qualify it.
"""

import numpy as np

from dpconv import (
    CompositionQuery,
    Grid,
    MechanismSpec,
    Scheme,
    delta_of_epsilon,
)
from dpconv.accountant import convolutions
from dpconv.error_bounds import discretization_estimate, tail_estimate

# One step of noisy SGD with Poisson sampling: each record enters the batch
# independently with probability q, and the clipped gradient sum gets
# Gaussian noise of scale sigma (relative to the clipping norm).
mechanism = MechanismSpec(sigma=1.5, scheme=Scheme.POISSON, q=0.01)

# The privacy loss lives on a truncated symmetric grid. half_width caps the
# loss values we track, size controls the resolution. Both error estimates
# printed below respond to these two knobs.
grid = Grid(half_width=12.0, size=2**20)

steps = 10_000
query = CompositionQuery.homogeneous(mechanism, k=steps, grid=grid, epsilon=1.0)
result = delta_of_epsilon(query)

print(f"mechanism: sigma={mechanism.sigma}, q={mechanism.q}, {mechanism.scheme.value}")
print(f"composed steps: {steps}")
print(f"delta at epsilon=1: {result.value:.12e}")
for direction, value in result.per_direction:
    print(f"  {direction}: {value:.12e}")
# The accountant returns the answer only; both error figures are explicit
# calls. The tail estimate depends on the query alone. The Richardson gap
# needs a second solve on the doubled grid, and lists each warning of that
# run, which the estimate rests on.
tail = tail_estimate(query)
print(f"truncation tail estimate: {tail.value:.3e} (valid: {tail.valid})")
disc = discretization_estimate(result)
print(f"discretisation estimate: {disc.value:.3e} (valid: {disc.valid})")

# The same quantity from the pieces, for anyone who wants to hold the
# intermediate objects: one convolved density per likelihood-ratio direction,
# and its weighted tail sum dx * sum_{x > eps} (1 - exp(eps - x)) C(x).
x = grid.points()
beyond = x > 1.0
for direction, conv in convolutions(query):
    by_hand = grid.dx * float(np.sum(-np.expm1(1.0 - x[beyond]) * conv.samples[beyond]))
    print(f"{direction.value}: by hand {by_hand:.12e}, conv.delta {conv.delta(1.0):.12e}")
    print(f"  probability mass after composition: {conv.mass:.6f}")
