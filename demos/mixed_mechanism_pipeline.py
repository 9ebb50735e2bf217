"""Accounting across a pipeline that mixes mechanisms.

A realistic training schedule rarely uses one noise scale end to end.
A CompositionQuery lists each distinct mechanism with its count; the
accountant convolves each (mechanism, count) pair once and multiplies the
spectra, so a 60/40 split of two noise scales costs two forward FFTs per
likelihood-ratio direction instead of a hundred.

The second half compares the three subsampling schemes head to head at
matched parameters: Poisson remove/add accounting is direction-asymmetric,
while both substitute schemes evaluate a single symmetric loss.
"""

from dpconv import (
    CompositionQuery,
    Grid,
    MechanismSpec,
    Scheme,
    delta_of_epsilon,
)

grid = Grid(12.0, 2**16)

# Phase one trains 60 steps with loud noise, phase two 40 steps with less.
loud = MechanismSpec(sigma=2.0, q=0.05)
quiet = MechanismSpec(sigma=1.2, q=0.05)

mixed = delta_of_epsilon(
    CompositionQuery(specs=(loud, quiet), counts=(60, 40), grid=grid, epsilon=1.0)
)
print("60 steps at sigma=2.0 plus 40 steps at sigma=1.2, q=0.05, epsilon=1")
print(f"  delta: {mixed.value:.12e}")
for direction, value in mixed.per_direction:
    print(f"  {direction}: {value:.12e}")

# Either phase alone, for scale.
for label, spec, count in (("loud phase alone", loud, 60), ("quiet phase alone", quiet, 40)):
    alone = delta_of_epsilon(CompositionQuery.homogeneous(spec, count, grid, epsilon=1.0))
    print(f"  {label}: {alone.value:.12e}")

print()
print("scheme comparison at sigma=1.5, sampling fraction 0.05, k=500, epsilon=0.5")
schemes = [
    MechanismSpec(sigma=1.5, scheme=Scheme.POISSON, q=0.05),
    MechanismSpec(sigma=1.5, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.05),
    MechanismSpec(sigma=1.5, scheme=Scheme.WITH_REPLACEMENT, batch_size=50, dataset_size=1000),
]
for spec in schemes:
    result = delta_of_epsilon(CompositionQuery.homogeneous(spec, 500, grid, epsilon=0.5))
    directions = ", ".join(f"{d}={v:.3e}" for d, v in result.per_direction)
    print(f"  {spec.scheme.value:>20}: delta {result.value:.9e}  ({directions})")
