"""Tight (epsilon, delta) guarantees for composed subsampled Gaussian mechanisms.

A CompositionQuery names a composition, a grid and a target. Its specs are
grouped once into factors, which are convolved once per likelihood-ratio
direction (module spectral); each ConvolvedPld is read at an epsilon or
inverted at a delta target. The convolutions do not depend on the target,
so delta_of_epsilons answers any number of epsilons from them.

The remove/add relation is asymmetric: the tight delta is the larger of the
two likelihood-ratio directions, so Poisson queries convolve once per
direction and report both, sharing the spectra of self-dual factors (see
spectral.convolve_factors, which orients each factor). The substitute
schemes alone are self-dual and convolve once.

_build_result alone decides what a result reports (a sum above 1 as 1).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .discretization import ConvolvedPld, Grid
from .errors import (
    DomainError,
    TargetDeltaBelowFloor,
    TargetDeltaTooLarge,
)
from .mechanisms import Direction, MechanismSpec
from .spectral import convolve_factors

# The largest |delta(epsilon) - target| epsilon_of_delta accepts at the epsilon
# it returns. It is absolute: near a tiny target the rounding of the transform
# is a large share of the target itself.
_DELTA_TOL = 1e-10

_EMPTY_SUM_WARNING = "epsilon exceeds truncation radius"
_OVER_UNITY_WARNING = "computed delta exceeded 1; the grid under-resolves this composition"


@dataclass(frozen=True)
class CompositionQuery:
    """One accounting question: a composition, a grid, and a target.

    specs and counts describe the composition: counts[i] invocations of
    specs[i], an integer each, convolved together. At most one of epsilon
    (for delta_of_epsilon) or delta (for epsilon_of_delta) may be set.
    directions restricts the likelihood-ratio directions evaluated; None
    takes the tight max over both where the relation is asymmetric. The
    convolution orients every spec to each evaluated direction.
    """

    specs: tuple[MechanismSpec, ...]
    counts: tuple[int, ...]
    grid: Grid
    epsilon: float | None = None
    delta: float | None = None
    directions: tuple[Direction, ...] | None = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise DomainError("a query needs at least one mechanism")
        if len(self.specs) != len(self.counts):
            raise DomainError(
                f"got {len(self.specs)} specs but {len(self.counts)} repetition counts"
            )
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) for c in self.counts):
            raise DomainError(f"repetition counts must be integers, got {self.counts}")
        if any(c < 1 for c in self.counts):
            raise DomainError(f"all repetition counts must be >= 1, got {self.counts}")
        if self.epsilon is not None and self.delta is not None:
            raise DomainError("a query takes an epsilon target or a delta target, not both")
        if self.epsilon is not None and not self.epsilon >= 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise DomainError(f"target delta must lie in (0, 1), got {self.delta}")
        if self.directions is not None and (
            not self.directions
            or len(set(self.directions)) != len(self.directions)
            or not all(isinstance(d, Direction) for d in self.directions)
        ):
            raise DomainError(
                f"directions must list distinct Direction values, got {self.directions}"
            )

    @classmethod
    def homogeneous(cls, spec: MechanismSpec, k: int, grid: Grid, **fields) -> "CompositionQuery":
        """k repetitions of a single mechanism; fields are the query's other
        fields, keyword-only (epsilon, delta, directions)."""
        return cls(specs=(spec,), counts=(k,), grid=grid, **fields)

    @property
    def k(self) -> int:
        """Total number of composed mechanism invocations."""
        return int(sum(self.counts))

    @property
    def evaluated_directions(self) -> tuple[Direction, ...]:
        """The likelihood-ratio directions a computation evaluates.

        directions when the query names them; otherwise both when any
        mechanism uses the asymmetric remove/add relation, a single pass
        otherwise (substitute losses are odd).
        """
        if self.directions is not None:
            return self.directions
        if any(s.directional for s in self.specs):
            return (Direction.X_OVER_Y, Direction.Y_OVER_X)
        return (Direction.X_OVER_Y,)


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one accounting computation.

    For kind "delta", epsilon is the queried epsilon; for kind "epsilon", it
    is the epsilon returned by the inversion. per_direction maps each
    evaluated likelihood-ratio direction to its delta at epsilon. The result
    carries no error figure: the error analysis qualifies it afterwards.
    """

    kind: str
    epsilon: float
    per_direction: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...]
    query: CompositionQuery

    @property
    def delta(self) -> float:
        """The tight delta at epsilon: the max over per_direction."""
        return max(value for _name, value in self.per_direction)

    @property
    def ell_eps(self) -> int:
        """The first grid index entering the weighted sum, the same in every
        direction: the first strictly right of epsilon."""
        return self.query.grid.index(self.epsilon, side="right")

    @property
    def value(self) -> float:
        """The answer: delta for kind "delta", epsilon for kind "epsilon"."""
        return self.delta if self.kind == "delta" else self.epsilon


def convolutions(query: CompositionQuery) -> list[tuple[Direction, ConvolvedPld]]:
    """C for every evaluated direction, from the query's specs grouped once
    into powers (see spectral.convolve_factors, which builds a self-dual
    factor once). Each C words its own warnings from the masses it records."""
    groups: dict[MechanismSpec, int] = {}
    for spec, count in zip(query.specs, query.counts):
        groups[spec] = groups.get(spec, 0) + int(count)
    directions = query.evaluated_directions
    return list(zip(directions, convolve_factors(list(groups.items()), directions, query.grid)))


def _build_result(
    query: CompositionQuery,
    kind: str,
    epsilon: float,
    convolved: list[tuple[Direction, ConvolvedPld]],
) -> DeltaResult:
    """The result at one epsilon from the query's convolutions, with their
    warnings. A direction's sum above 1 (quadrature error compounding as
    mass**k) is reported as 1; it and an epsilon past the grid are warned about."""
    sums = [(direction.value, conv.delta(epsilon)) for direction, conv in convolved]
    warnings = {w for _direction, conv in convolved for w in conv.warnings}
    if any(value > 1.0 for _name, value in sums):
        warnings.add(_OVER_UNITY_WARNING)
    if query.grid.index(epsilon, side="right") >= query.grid.size:
        warnings.add(_EMPTY_SUM_WARNING)
    return DeltaResult(
        kind=kind,
        epsilon=epsilon,
        per_direction=tuple((name, min(value, 1.0)) for name, value in sums),
        warnings=tuple(sorted(warnings)),
        query=query,
    )


def delta_of_epsilon(query: CompositionQuery) -> DeltaResult:
    """Tight delta at the query's epsilon target."""
    return delta_of_epsilons(query, (query.epsilon,))[0]


def delta_of_epsilons(query: CompositionQuery, epsilons) -> tuple[DeltaResult, ...]:
    """Tight delta at each of several epsilons, from one convolution per direction.

    Each result is the one delta_of_epsilon gives for that epsilon, bit for
    bit. An epsilon beyond the rightmost grid point leaves nothing to sum;
    its result is then 0 with an explicit warning, since such an epsilon
    almost always means the truncation radius was chosen too small.
    """
    epsilons = tuple(epsilons)
    for eps in epsilons:
        if eps is None:
            raise DomainError("delta_of_epsilon needs an epsilon target")
        if not eps >= 0.0:
            raise DomainError(f"epsilon must be >= 0, got {eps}")
    convolved = convolutions(query)
    return tuple(_build_result(query, "delta", eps, convolved) for eps in epsilons)


def epsilon_of_delta(query: CompositionQuery) -> DeltaResult:
    """Smallest epsilon whose tight delta meets the query's delta target,
    solved exactly on the grid.

    The convolved density for each direction is built once. A target equal
    to delta(0) returns epsilon = 0. Otherwise the tight epsilon is the
    largest of the directions' ConvolvedPld.epsilon, where every direction's
    delta is at most the target; the forward sum there must lie within 1e-10
    of the target.

    Raises TargetDeltaTooLarge when the target exceeds delta(0), so that
    every epsilon >= 0 already meets it, and TargetDeltaBelowFloor when the
    forward sum misses the target by more than 1e-10, which happens for
    targets below what the truncated grid and its rounding resolve. Either
    message ends with the convolutions' warnings, as "; <warning>" each.
    """
    target = query.delta
    if target is None:
        raise DomainError("epsilon_of_delta needs a delta target")

    convolved = convolutions(query)
    warnings = dict.fromkeys(w for _direction, conv in convolved for w in conv.warnings)
    notes = "".join(f"; {warning}" for warning in warnings)
    zero = _build_result(query, "epsilon", 0.0, convolved)
    if target > zero.delta:
        raise TargetDeltaTooLarge(
            f"target delta {target:.6g} exceeds delta(0) = {zero.delta:.6g}; "
            "every epsilon >= 0 already satisfies a stronger guarantee" + notes
        )
    if target == zero.delta:
        return zero
    eps = max(conv.epsilon(target) for _direction, conv in convolved)
    result = _build_result(query, "epsilon", eps, convolved)
    if not abs(result.delta - target) <= _DELTA_TOL:
        raise TargetDeltaBelowFloor(
            f"target delta {target:.6g} is below what the grid resolves near epsilon = "
            f"{eps:.6g} (delta there {result.delta:.6g}); enlarge the truncation radius, or "
            "refine the grid where a warning says it under-resolves" + notes
        )
    return result
