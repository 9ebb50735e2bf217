"""Tight (epsilon, delta) guarantees for composed subsampled Gaussian mechanisms.

The forward direction evaluates, for a composition described by a
CompositionQuery, the truncated and discretised integral

    delta(eps) = dx * sum_{l >= l_eps} (1 - exp(eps - x_l)) * C_l,

where C is the convolved privacy loss density from module spectral and l_eps
is the first grid index strictly to the right of eps; ConvolvedPld.delta
evaluates it. C does not depend on eps, so delta_of_epsilons answers any
number of epsilons from one convolution per direction.

The reverse direction inverts delta(eps) exactly on the grid, from the same
convolution. With the suffix sums U[l] = dx * sum_{j >= l} C_j and
W[l] = dx * sum_{j >= l} exp(-x_j) C_j, the sum above equals
U[l] - exp(eps) W[l] for every eps in the cell [x_{l-1}, x_l). delta is
therefore continuous and decreasing, the first grid point where it falls to
the target closes the cell holding the crossing, and inside that cell
epsilon = log((U[l] - target) / W[l]) in closed form.

The remove/add relation is asymmetric: the tight delta is the larger of the
two likelihood-ratio directions, so Poisson queries convolve once per
direction and report both. The two convolutions run concurrently and share
the spectra of self-dual factors (see spectral.convolve_factors). The
substitute schemes alone are self-dual and convolve once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import error_bounds
from .discretization import ConvolvedPld, Grid
from .errors import (
    DomainError,
    TargetDeltaBelowFloor,
    TargetDeltaTooLarge,
)
from .mechanisms import Direction, MechanismSpec, Scheme
from .spectral import convolve_factors


@dataclass(frozen=True)
class CompositionQuery:
    """One accounting question: a composition, a grid, and a target.

    specs and counts describe the composition: counts[i] invocations of
    specs[i], convolved together. Exactly one of epsilon (for delta_of_epsilon)
    or delta (for epsilon_of_delta) should be set. directions restricts the
    likelihood-ratio directions evaluated; None takes the tight max over both
    where the relation is asymmetric. newton_tolerance is the absolute delta
    tolerance of epsilon_of_delta (the name predates its exact inverse).
    """

    specs: tuple[MechanismSpec, ...]
    counts: tuple[int, ...]
    grid: Grid
    epsilon: float | None = None
    delta: float | None = None
    newton_tolerance: float = 1e-10
    directions: tuple[Direction, ...] | None = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise DomainError("a query needs at least one mechanism")
        if len(self.specs) != len(self.counts):
            raise DomainError(
                f"got {len(self.specs)} specs but {len(self.counts)} repetition counts"
            )
        if any(c < 1 for c in self.counts):
            raise DomainError(f"all repetition counts must be >= 1, got {self.counts}")
        if self.epsilon is not None and not self.epsilon >= 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise DomainError(f"target delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.newton_tolerance < math.inf:
            raise DomainError(
                f"newton_tolerance must be positive and finite, got {self.newton_tolerance}"
            )
        if self.directions is not None and (
            not self.directions
            or len(set(self.directions)) != len(self.directions)
            or not all(isinstance(d, Direction) for d in self.directions)
        ):
            raise DomainError(
                f"directions must list distinct Direction values, got {self.directions}"
            )

    @classmethod
    def homogeneous(
        cls,
        spec: MechanismSpec,
        k: int,
        grid: Grid,
        epsilon: float | None = None,
        delta: float | None = None,
        newton_tolerance: float = 1e-10,
    ) -> "CompositionQuery":
        """k repetitions of a single mechanism."""
        return cls(
            specs=(spec,),
            counts=(k,),
            grid=grid,
            epsilon=epsilon,
            delta=delta,
            newton_tolerance=newton_tolerance,
        )

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
        if any(s.scheme is Scheme.POISSON for s in self.specs):
            return (Direction.X_OVER_Y, Direction.Y_OVER_X)
        return (Direction.X_OVER_Y,)


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one accounting computation.

    For kind "delta", value is delta at the queried epsilon. For kind
    "epsilon", value is the epsilon returned by the inversion and delta is
    the delta actually achieved there. per_direction maps each
    evaluated likelihood-ratio direction to its delta; value is their max
    for kind "delta". ell_eps is the first grid index entering the weighted
    sum in the direction that attains the max.
    """

    value: float
    kind: str
    epsilon: float
    delta: float
    ell_eps: int
    per_direction: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...]
    query: CompositionQuery
    tail_estimate: float
    tail_estimate_valid: bool
    discretization_estimate: float | None = None


def convolutions(query: CompositionQuery) -> list[tuple[Direction, ConvolvedPld]]:
    """C for every evaluated direction, grouping repeated specs into powers.

    A self-dual factor, the same in both directions, is built once.
    """
    directions = query.evaluated_directions
    factor_lists = []
    for direction in directions:
        groups: dict[MechanismSpec, int] = {}
        for spec, count in zip(query.specs, query.counts):
            oriented = spec.with_direction(direction)
            groups[oriented] = groups.get(oriented, 0) + int(count)
        factor_lists.append(list(groups.items()))
    return list(zip(directions, convolve_factors(factor_lists, query.grid)))


def _grid_inverse(conv: ConvolvedPld, target: float) -> float:
    """Smallest eps >= 0 with delta(eps) <= target for one direction.

    Over the grid points x_m >= 0, delta(x_m) = U[m+1] - exp(x_m) W[m+1]
    (see the module docstring). The first point at or below the target
    closes the cell [x_{m-1}, x_m] holding the crossing, where
    delta(eps) = U[m] - exp(eps) W[m] is solved for eps.
    """
    grid = conv.grid
    start = grid.index(0.0)
    points = grid.points(start)
    tail = conv.samples[start:]
    upper = grid.dx * np.cumsum(tail[::-1])[::-1]
    weighted = grid.dx * np.cumsum((np.exp(-points) * tail)[::-1])[::-1]
    at_points = np.append(upper[1:] - np.exp(points[:-1]) * weighted[1:], 0.0)
    m = int(np.argmax(at_points <= target))
    lo = float(points[m - 1]) if m else 0.0
    if upper[m] <= target:
        # Only in the first cell: delta(0) of this direction meets the target.
        return lo
    eps = math.log((upper[m] - target) / weighted[m]) if weighted[m] > 0.0 else math.inf
    return min(max(eps, lo), float(points[m]))


def _build_result(
    query: CompositionQuery,
    kind: str,
    epsilon: float,
    per_direction: list[tuple[str, float, int, str | None]],
) -> DeltaResult:
    best = max(per_direction, key=lambda item: item[1])
    warnings = tuple(sorted({w for *_rest, w in per_direction if w is not None}))
    tail = error_bounds.tail_estimate(query)
    return DeltaResult(
        value=best[1] if kind == "delta" else epsilon,
        kind=kind,
        epsilon=epsilon,
        delta=best[1],
        ell_eps=best[2],
        per_direction=tuple((name, value) for name, value, _ell, _w in per_direction),
        warnings=warnings,
        query=query,
        tail_estimate=tail.value,
        tail_estimate_valid=tail.valid,
    )


def delta_of_epsilon(query: CompositionQuery, epsilon: float | None = None) -> DeltaResult:
    """Tight delta at a given epsilon (default: the query's stored target)."""
    return delta_of_epsilons(query, (query.epsilon if epsilon is None else epsilon,))[0]


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
    columns = [
        [(direction.value, *conv.delta(eps)) for eps in epsilons]
        for direction, conv in convolutions(query)
    ]
    return tuple(
        _build_result(query, "delta", eps, list(row)) for eps, row in zip(epsilons, zip(*columns))
    )


def epsilon_of_delta(query: CompositionQuery, delta: float | None = None) -> DeltaResult:
    """Smallest epsilon whose tight delta meets the target, solved exactly on the grid.

    The convolved density for each direction is built once. A target within
    newton_tolerance of delta(0) returns epsilon = 0. Otherwise each
    direction's crossing comes from _grid_inverse, and the tight epsilon is
    the largest of them, where every direction's delta is at most the
    target. The forward sum at that epsilon must then lie within
    newton_tolerance of the target.

    Raises TargetDeltaTooLarge when even epsilon = 0 gives less than the
    target (beyond tolerance), and TargetDeltaBelowFloor when the forward
    sum misses the target by more than the tolerance, which happens for
    targets below what the truncated grid and its rounding resolve.
    """
    target = query.delta if delta is None else delta
    if target is None:
        raise DomainError("epsilon_of_delta needs a delta target")
    if not (0.0 < target < 1.0):
        raise DomainError(f"target delta must lie in (0, 1), got {target}")
    tol = query.newton_tolerance

    convolved = convolutions(query)
    at_zero = max(conv.delta(0.0)[0] for _direction, conv in convolved)
    if target - at_zero > tol:
        raise TargetDeltaTooLarge(
            f"target delta {target:.6g} exceeds delta(0) = {at_zero:.6g}; "
            "every epsilon >= 0 already satisfies a stronger guarantee"
        )
    eps = 0.0
    if abs(at_zero - target) > tol:
        eps = max(_grid_inverse(conv, target) for _direction, conv in convolved)

    per_direction = [(direction.value, *conv.delta(eps)) for direction, conv in convolved]
    achieved = max(value for _name, value, _ell, _warning in per_direction)
    if not abs(achieved - target) <= tol:
        raise TargetDeltaBelowFloor(
            f"target delta {target:.6g} is below what the grid resolves near epsilon = "
            f"{eps:.6g} (delta there {achieved:.6g}); enlarge the truncation radius or "
            "raise the tolerance"
        )
    return _build_result(query, "epsilon", eps, per_direction)
