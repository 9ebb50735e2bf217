"""Tight delta evaluation and exact inversion on the composed PLD."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dpconv import (
    CompositionQuery,
    Direction,
    DomainError,
    Grid,
    MechanismSpec,
    Scheme,
    TargetDeltaBelowFloor,
    TargetDeltaTooLarge,
    delta_of_epsilon,
    delta_of_epsilons,
    epsilon_of_delta,
)
from dpconv.accountant import convolutions
from dpconv.discretization import _EMPTY_SUM_WARNING, _OVER_UNITY_WARNING
from dpconv.oracle import bisection_epsilon

SPEC = MechanismSpec(sigma=1.5, q=0.01)
GRID = Grid(half_width=12.0, size=2 ** 16)


def query(epsilon=None, delta=None, k=1000, grid=GRID, spec=SPEC, tol=1e-10):
    return CompositionQuery.homogeneous(
        spec, k, grid, epsilon=epsilon, delta=delta, newton_tolerance=tol
    )


class TestQueryValidation:
    def test_needs_exactly_one_target_side_at_solve_time(self):
        with pytest.raises(DomainError):
            delta_of_epsilon(query())
        with pytest.raises(DomainError):
            epsilon_of_delta(query())

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            delta_of_epsilon(query(epsilon=-0.5))

    def test_nan_epsilon_rejected(self):
        # NaN fails every comparison, so it must not slip past a "< 0" test.
        with pytest.raises(DomainError):
            query(epsilon=math.nan)
        with pytest.raises(DomainError):
            delta_of_epsilons(query(), (1.0, math.nan))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_newton_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError):
            query(delta=1e-5, tol=tol)

    def test_delta_target_domain(self):
        with pytest.raises(DomainError):
            epsilon_of_delta(query(delta=0.0))
        with pytest.raises(DomainError):
            epsilon_of_delta(query(delta=1.5))

    def test_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            CompositionQuery(specs=(SPEC,), counts=(1, 2), grid=GRID, epsilon=1.0)

    @pytest.mark.parametrize("specs, counts", [((), ()), ((SPEC,), (0,))])
    def test_empty_composition_rejected(self, specs, counts):
        with pytest.raises(DomainError):
            CompositionQuery(specs=specs, counts=counts, grid=GRID)


class TestDeltaOfEpsilon:
    def test_empty_sum_warns_and_returns_zero(self):
        result = delta_of_epsilon(query(epsilon=15.0))
        assert result.value == 0.0
        assert _EMPTY_SUM_WARNING in result.warnings

    def test_under_resolved_grid_clamps_and_warns(self):
        # Quadrature error compounds as mass**k; a 4096-point lattice cannot
        # carry a thousand compositions of this sharply peaked density.
        coarse = Grid(half_width=12.0, size=4096)
        result = delta_of_epsilon(query(epsilon=1.0, k=1000, grid=coarse))
        assert result.value == 1.0
        assert _OVER_UNITY_WARNING in result.warnings

    def test_monotone_nonincreasing_in_epsilon(self):
        values = [delta_of_epsilon(query(epsilon=e)).value for e in np.linspace(0.0, 3.0, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_k(self):
        values = [
            delta_of_epsilon(query(epsilon=1.0, k=2 ** j)).value for j in range(11)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_direction_dominance_poisson(self):
        for eps in (0.0, 0.5, 1.0, 2.0):
            q = query(epsilon=eps, k=500)
            result = delta_of_epsilon(q)
            per = dict(result.per_direction)
            assert per[Direction.X_OVER_Y.value] >= per[Direction.Y_OVER_X.value]
            assert result.value == max(per.values())

    def test_substitute_scheme_runs_one_direction(self):
        spec = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.1)
        result = delta_of_epsilon(query(epsilon=0.5, spec=spec, k=10))
        assert len(result.per_direction) == 1

    def test_value_bounded_by_convolution_mass(self):
        result = delta_of_epsilon(query(epsilon=0.2, k=100))
        assert 0.0 <= result.value <= 1.0
        assert result.ell_eps is not None

    def test_params_echo(self):
        q = query(epsilon=1.0)
        result = delta_of_epsilon(q)
        assert result.query is q
        assert result.kind == "delta"
        assert result.epsilon == 1.0


class TestEpsilonOfDelta:
    def test_round_trip_at_unit_epsilon(self):
        target = delta_of_epsilon(query(epsilon=1.0, k=10 ** 4)).value
        result = epsilon_of_delta(query(delta=target, k=10 ** 4))
        assert result.value == pytest.approx(1.0, abs=1e-6)
        achieved = delta_of_epsilon(query(epsilon=result.value, k=10 ** 4)).value
        assert abs(achieved - target) <= 1e-10

    def test_target_at_delta_zero_returns_zero_immediately(self):
        d0 = delta_of_epsilon(query(epsilon=0.0, k=100)).value
        result = epsilon_of_delta(query(delta=d0, k=100))
        assert result.value == 0.0
        assert result.delta == d0

    def test_target_above_delta_zero_rejected(self):
        with pytest.raises(TargetDeltaTooLarge):
            epsilon_of_delta(query(delta=0.9999, k=100))

    def test_tiny_target_satisfiable_under_absolute_tolerance(self):
        # With the default absolute tolerance 1e-10 a 1e-300 target is met by
        # any epsilon where delta has decayed below the tolerance itself.
        small = Grid(half_width=4.0, size=512)
        result = epsilon_of_delta(query(delta=1e-300, k=2, grid=small))
        achieved = delta_of_epsilon(query(epsilon=result.value, k=2, grid=small)).value
        assert abs(achieved - 1e-300) <= 1e-10

    def test_target_below_truncation_floor_rejected(self):
        # A tolerance tighter than the attainable-delta gap near the floor
        # makes the same target unattainable, reported distinctly.
        small = Grid(half_width=4.0, size=512)
        with pytest.raises(TargetDeltaBelowFloor):
            epsilon_of_delta(query(delta=1e-300, k=2, grid=small, tol=1e-315))

    def test_residual_invariant_across_targets(self):
        d0 = delta_of_epsilon(query(epsilon=0.0, k=10 ** 3)).value
        for target in np.geomspace(1e-7, d0 / 2, 12):
            result = epsilon_of_delta(query(delta=float(target), k=10 ** 3))
            achieved = delta_of_epsilon(query(epsilon=result.value, k=10 ** 3)).value
            assert abs(achieved - float(target)) <= 1e-10
            assert result.kind == "epsilon"
            # The first crossing: a slightly smaller epsilon misses the target.
            below = max(result.value - 1e-6, 0.0)
            assert delta_of_epsilon(query(epsilon=below, k=10 ** 3)).value > float(target)


class TestDeltaOfEpsilons:
    EPSILONS = (0.0, 0.3, 1.0, 2.5, 15.0)

    def test_rows_match_single_calls_bitwise(self):
        q = query(k=500)
        rows = delta_of_epsilons(q, self.EPSILONS)
        assert len(rows) == len(self.EPSILONS)
        for eps, row in zip(self.EPSILONS, rows):
            single = delta_of_epsilon(q, eps)
            assert row.epsilon == eps
            assert row.value == single.value
            assert row.per_direction == single.per_direction
            assert row.ell_eps == single.ell_eps
            assert row.warnings == single.warnings
        assert _EMPTY_SUM_WARNING in rows[-1].warnings

    def test_tail_sum_at_and_next_to_grid_points_matches_full_grid(self):
        # The sum builds only the points from ell_eps on; the full grid and
        # searchsorted must give the same index and the same value.
        conv = convolutions(query(k=500))[0][1]
        points = GRID.points()
        for i in (GRID.size // 2, GRID.size // 2 + 1, 40_000, GRID.size - 1):
            p = float(points[i])
            for eps in (p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)):
                ell = int(np.searchsorted(points, eps, side="right"))
                want = GRID.dx * float(-np.expm1(eps - points[ell:]) @ conv.samples[ell:])
                value, ell_eps, _warning = conv.delta(eps)
                assert ell_eps == ell
                assert value == max(want, 0.0)

    def test_rejects_missing_or_negative_epsilon(self):
        with pytest.raises(DomainError):
            delta_of_epsilons(query(), (0.5, None))
        with pytest.raises(DomainError):
            delta_of_epsilons(query(), (0.5, -0.1))


class TestDirectionsField:
    def test_restriction_reports_that_direction_alone(self):
        full = delta_of_epsilon(query(epsilon=1.0, k=500))
        for direction in Direction:
            restricted = CompositionQuery(
                specs=(SPEC,), counts=(500,), grid=GRID, epsilon=1.0, directions=(direction,)
            )
            result = delta_of_epsilon(restricted)
            expected = dict(full.per_direction)[direction.value]
            assert result.per_direction == ((direction.value, expected),)

    def test_evaluated_directions(self):
        wor = MechanismSpec(sigma=1.5, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)
        both = (Direction.X_OVER_Y, Direction.Y_OVER_X)
        assert query().evaluated_directions == both
        assert query(spec=wor).evaluated_directions == (Direction.X_OVER_Y,)
        mixed = CompositionQuery(specs=(wor, SPEC), counts=(1, 1), grid=GRID)
        assert mixed.evaluated_directions == both
        named = CompositionQuery(
            specs=(wor,), counts=(1,), grid=GRID, directions=(Direction.Y_OVER_X,)
        )
        assert named.evaluated_directions == (Direction.Y_OVER_X,)

    def test_invalid_directions_rejected(self):
        for bad in ((), (Direction.X_OVER_Y, Direction.X_OVER_Y), ("x-over-y",)):
            with pytest.raises(DomainError):
                CompositionQuery(specs=(SPEC,), counts=(1,), grid=GRID, directions=bad)


class TestExactInverse:
    """epsilon_of_delta against bisection on the same forward sum."""

    K = 1000

    def bisection_gap(self, target):
        exact = epsilon_of_delta(query(delta=target, k=self.K)).value
        return abs(exact - bisection_epsilon(SPEC, self.K, GRID, target))

    def test_targets_at_grid_points(self):
        points = GRID.points()
        for x in (0.25, 1.0, 2.0, 3.5):
            m = int(np.searchsorted(points, x))
            target = delta_of_epsilon(query(epsilon=float(points[m]), k=self.K)).value
            assert self.bisection_gap(target) <= 1e-8

    def test_targets_in_last_nonempty_cell(self):
        convs = [conv for _direction, conv in convolutions(query(k=self.K))]
        last = max(int(np.flatnonzero(conv.samples)[-1]) for conv in convs)
        left = float(GRID.points()[last - 1])
        at_left = delta_of_epsilon(query(epsilon=left, k=self.K)).value
        assert 0.0 < at_left < 1e-10
        for fraction in (0.9, 0.5, 0.1):
            assert self.bisection_gap(fraction * at_left) <= 1e-8

    def test_tight_epsilon_is_max_over_restricted_directions(self):
        q = query(delta=1e-5, k=self.K)
        per_direction = [
            epsilon_of_delta(dataclasses.replace(q, directions=(d,))).value for d in Direction
        ]
        assert epsilon_of_delta(q).value == max(per_direction)


def mixed(pairs, epsilon):
    """Tight delta at epsilon for the composition of (spec, count) pairs."""
    specs, counts = zip(*pairs)
    return delta_of_epsilon(
        CompositionQuery(specs=specs, counts=counts, grid=GRID, epsilon=epsilon)
    )


class TestHeterogeneousQuery:
    def test_split_counts_match_power(self):
        direct = delta_of_epsilon(query(epsilon=1.0, k=100))
        split = mixed([(SPEC, 60), (SPEC, 40)], epsilon=1.0)
        assert split.value == pytest.approx(direct.value, abs=1e-12)

    def test_mixed_specs_accepted(self):
        other = MechanismSpec(sigma=2.0, q=0.01)
        result = mixed([(SPEC, 50), (other, 50)], epsilon=1.0)
        assert 0.0 <= result.value <= 1.0
        assert result.query.k == 100

    def test_operand_order_is_irrelevant(self):
        other = MechanismSpec(sigma=2.0, q=0.01)
        ab = mixed([(SPEC, 30), (other, 20)], epsilon=0.5)
        ba = mixed([(other, 20), (SPEC, 30)], epsilon=0.5)
        assert ab.value == ba.value
