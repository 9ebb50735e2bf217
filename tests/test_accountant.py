"""Tight delta evaluation and exact inversion on the composed PLD."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dpconv import (
    CompositionQuery,
    ConvolvedPld,
    DeltaResult,
    Direction,
    DomainError,
    Grid,
    MechanismSpec,
    Scheme,
    SpectralResidueError,
    TargetDeltaBelowFloor,
    TargetDeltaTooLarge,
    delta_of_epsilon,
    delta_of_epsilons,
    discretize,
    epsilon_of_delta,
    tail_estimate,
)
from dpconv.accountant import _EMPTY_SUM_WARNING, _OVER_UNITY_WARNING, convolutions

from oracle import bisection_epsilon

SPEC = MechanismSpec(sigma=1.5, q=0.01)
GRID = Grid(half_width=12.0, size=2 ** 16)


def query(epsilon=None, delta=None, k=1000, grid=GRID, spec=SPEC):
    return CompositionQuery.homogeneous(spec, k, grid, epsilon=epsilon, delta=delta)


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

    def test_inversion_takes_no_tolerance_field(self):
        with pytest.raises(TypeError):
            CompositionQuery.homogeneous(SPEC, 10, GRID, delta=1e-5, newton_tolerance=1e-10)

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

    @pytest.mark.parametrize("counts", [(2.5,), (2.9,), (1, 2.0), (True,), ("3",)])
    def test_non_integer_counts_rejected(self, counts):
        # 2.5 would run k = 2 and report query.k == 2.
        with pytest.raises(DomainError, match="repetition counts must be integers"):
            CompositionQuery(specs=(SPEC,) * len(counts), counts=counts, grid=GRID)
        if len(counts) == 1:
            with pytest.raises(DomainError, match=rf"got \({counts[0]!r},\)"):
                CompositionQuery.homogeneous(SPEC, counts[0], GRID, epsilon=0.5)

    def test_numpy_integer_counts_accepted(self):
        small = Grid(half_width=12.0, size=2 ** 12)
        plain = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 7, small, epsilon=0.5))
        wide = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, np.int64(7), small, epsilon=0.5))
        assert wide.value == plain.value and wide.query.k == 7

    def test_at_most_one_target(self):
        # Each solver would silently ignore the other target.
        with pytest.raises(DomainError, match="not both"):
            query(epsilon=1.0, delta=1e-5)

    def test_homogeneous_forwards_keyword_fields_only(self):
        # Every field past grid goes to the dataclass by name, with its defaults.
        fields = dict(delta=1e-5, directions=(Direction.Y_OVER_X,))
        got = CompositionQuery.homogeneous(SPEC, 3, GRID, **fields)
        assert got == CompositionQuery(specs=(SPEC,), counts=(3,), grid=GRID, **fields)
        with pytest.raises(TypeError):
            CompositionQuery.homogeneous(SPEC, 3, GRID, 1.0)


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

    @pytest.mark.parametrize("kind", ["delta", "epsilon"])
    def test_ell_eps_is_where_every_direction_starts_its_sum(self, kind):
        target = {"epsilon": 0.2} if kind == "delta" else {"delta": 1e-3}
        full = (delta_of_epsilon if kind == "delta" else epsilon_of_delta)(query(k=100, **target))
        start = GRID.index(full.epsilon, side="right")
        assert full.ell_eps == start and len(full.per_direction) == 2
        points = GRID.points(start)
        for direction, conv in convolutions(query(k=100)):
            restricted = delta_of_epsilon(
                dataclasses.replace(full.query, epsilon=full.epsilon, delta=None,
                                    directions=(direction,))
            )
            assert restricted.ell_eps == start
            weights = -np.expm1(full.epsilon - points)
            summed = GRID.dx * float(weights @ conv.samples[start:])
            assert dict(full.per_direction)[direction.value] == summed

    def test_params_echo(self):
        q = query(epsilon=1.0)
        result = delta_of_epsilon(q)
        assert result.query is q
        assert result.kind == "delta"
        assert result.epsilon == 1.0

    def test_result_holds_answers_only_and_derives_value(self):
        # The error figures come from error_bounds; value, delta and ell_eps
        # derive from the fields, not fields of their own.
        names = [field.name for field in dataclasses.fields(DeltaResult)]
        assert names == ["kind", "epsilon", "per_direction", "warnings", "query"]
        forward = delta_of_epsilon(query(epsilon=1.0))
        assert forward.value == forward.delta and forward.value != forward.epsilon
        assert forward.delta == max(value for _name, value in forward.per_direction)
        inverse = epsilon_of_delta(query(delta=1e-3))
        assert inverse.value == inverse.epsilon and inverse.value != inverse.delta


class TestEpsilonOfDelta:
    def test_round_trip_at_unit_epsilon(self):
        target = delta_of_epsilon(query(epsilon=1.0, k=10 ** 4)).value
        result = epsilon_of_delta(query(delta=target, k=10 ** 4))
        assert result.value == pytest.approx(1.0, abs=1e-6)
        achieved = delta_of_epsilon(query(epsilon=result.value, k=10 ** 4)).value
        assert abs(achieved - target) <= 1e-10

    def test_target_at_delta_zero_returns_zero_immediately(self):
        at_zero = delta_of_epsilon(query(epsilon=0.0, k=100))
        result = epsilon_of_delta(query(delta=at_zero.value, k=100))
        assert result.value == 0.0
        assert result.per_direction == at_zero.per_direction
        assert result.warnings == at_zero.warnings
        assert result.delta == at_zero.value

    def test_target_above_delta_zero_rejected(self):
        with pytest.raises(TargetDeltaTooLarge):
            epsilon_of_delta(query(delta=0.9999, k=100))

    def test_target_one_ulp_above_delta_zero_rejected(self):
        d0 = delta_of_epsilon(query(epsilon=0.0, k=100)).value
        with pytest.raises(TargetDeltaTooLarge):
            epsilon_of_delta(query(delta=math.nextafter(d0, 1.0), k=100))

    def test_target_above_delta_zero_names_the_grid_warnings(self):
        # k = 100 factors of mass 0.989 compose to 0.317 at L = 12, n = 8192,
        # so delta(0) is far too low and the message says why.
        coarse = Grid(half_width=12.0, size=8192)
        with pytest.raises(TargetDeltaTooLarge, match=r"guarantee; composed mass 0\.317347 of "):
            epsilon_of_delta(query(delta=0.9, k=100, grid=coarse))

    def test_tiny_target_satisfiable_under_absolute_tolerance(self):
        # With the default absolute tolerance 1e-10 a 1e-300 target is met by
        # any epsilon where delta has decayed below the tolerance itself.
        small = Grid(half_width=4.0, size=512)
        result = epsilon_of_delta(query(delta=1e-300, k=2, grid=small))
        achieved = delta_of_epsilon(query(epsilon=result.value, k=2, grid=small)).value
        assert abs(achieved - 1e-300) <= 1e-10

    def test_target_far_below_a_tiny_delta_zero_gets_its_own_epsilon(self):
        # delta(0) is 3.83e-11 here, within 1e-10 of every smaller target,
        # and the grid resolves the composition without a warning.
        spec = MechanismSpec(sigma=1.0, q=1e-10)
        grid = Grid(half_width=2e-8, size=2 ** 16)
        d0 = delta_of_epsilon(query(epsilon=0.0, k=1, grid=grid, spec=spec))
        assert d0.value == pytest.approx(3.829e-11, rel=1e-3) and d0.warnings == ()
        result = epsilon_of_delta(query(delta=d0.value / 10, k=1, grid=grid, spec=spec))
        assert result.value == pytest.approx(4.5227e-10, rel=1e-4)
        assert result.delta == pytest.approx(d0.value / 10, rel=1e-5)

    def test_target_between_grid_deltas_rejected(self):
        # This grid under-resolves q = 1e-5, so delta drops from 1 straight
        # to 0 at epsilon 12 and no epsilon gives a delta near 0.5; the
        # message names both cures and the warning that picks the second.
        spec = MechanismSpec(sigma=2.0, q=1e-5)
        cause = r"radius, or refine the grid .*; sampled mass 28\.3204 of "
        with pytest.raises(TargetDeltaBelowFloor, match=cause):
            epsilon_of_delta(query(delta=0.5, k=100, spec=spec))

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
            single = delta_of_epsilon(dataclasses.replace(q, epsilon=eps))
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
                value = conv.delta(eps)
                assert type(value) is float
                assert GRID.index(eps, side="right") == ell
                assert value == want
        # Past the last grid point the sum is empty.
        last = float(points[-1])
        for eps in (last, math.nextafter(last, math.inf), 1e3):
            value = conv.delta(eps)
            assert value == 0.0 and type(value) is float

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

    def test_a_density_left_of_zero_inverts_to_zero(self):
        # No mass at or right of 0: delta(0) = 0 already meets any target, in
        # the first cell.
        grid = Grid(half_width=4.0, size=8)
        samples = np.where(grid.points() < 0.0, 0.25, 0.0)
        conv = ConvolvedPld(grid, samples, factors=(), mass=1.0, edge_mass=0.0)
        assert conv.delta(0.0) == 0.0
        assert conv.epsilon(1e-3) == 0.0

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


class TestUnderResolvedDensity:
    """A density whose spike at s = 0 no grid here resolves: its pointwise
    samples carry a mass far above 1, and at k = 1 the pipeline's delta is
    half the true 0.0099999339 (quadrature of max(f_X - e f_Y, 0))."""

    SPIKY = MechanismSpec(sigma=0.1, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)

    def spiky(self, k, size):
        grid = Grid(half_width=300.0, size=size)
        return CompositionQuery.homogeneous(self.SPIKY, k, grid, epsilon=1.0)

    def mass_warning(self, size):
        """The text that names SPIKY and its sampled mass on the grid of size."""
        mass = discretize(self.SPIKY, Grid(half_width=300.0, size=size)).mass
        assert mass > 1e18
        return (
            f"sampled mass {mass:.6g} of mechanism (sigma=0.1, scheme=without-replacement, "
            "q=0.01) exceeds 1: the grid under-resolves it"
        )

    @pytest.mark.parametrize("size", [8192, 2 ** 16, 2 ** 20])
    def test_k_one_warns(self, size):
        result = delta_of_epsilon(self.spiky(1, size))
        assert result.warnings == (self.mass_warning(size),)

    def test_k_two_names_the_mechanism_and_its_mass(self):
        result = delta_of_epsilon(self.spiky(2, 8192))
        assert result.value == 1.0
        assert result.warnings == tuple(sorted((_OVER_UNITY_WARNING, self.mass_warning(8192))))

    def test_k_hundred_names_the_mechanism_and_its_mass_in_the_error(self):
        with pytest.raises(SpectralResidueError, match="not finite") as error:
            delta_of_epsilon(self.spiky(100, 8192))
        assert str(error.value).endswith("; " + self.mass_warning(8192))

    def test_only_the_under_resolved_factor_is_named(self):
        assert delta_of_epsilon(query(epsilon=1.0)).warnings == ()
        mixed_query = CompositionQuery(
            specs=(SPEC, self.SPIKY), counts=(1, 1), grid=GRID, epsilon=1.0
        )
        warned = delta_of_epsilon(mixed_query).warnings
        named = [warning for warning in warned if warning.startswith("sampled mass")]
        assert len(named) == 1 and "scheme=without-replacement" in named[0]

    def test_a_substitute_scheme_is_named_without_a_direction(self):
        # Both directions of a with-replacement mechanism are one density, so
        # its warning names no direction, whichever the query restricts to.
        spec = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64,
                             dataset_size=6400)
        grid = Grid(half_width=12.0, size=1024)
        restricted = dataclasses.replace(
            CompositionQuery.homogeneous(spec, 10, grid, epsilon=1.0),
            directions=(Direction.Y_OVER_X,),
        )
        mass = discretize(spec, grid).mass
        assert delta_of_epsilon(restricted).warnings == (
            f"sampled mass {mass:.6g} of mechanism (sigma=1.0, scheme=with-replacement, "
            "batch_size=64, dataset_size=6400) exceeds 1: the grid under-resolves it",
        )

    def test_a_poisson_mechanism_is_named_with_its_direction(self):
        grid = Grid(half_width=12.0, size=1024)
        result = delta_of_epsilon(query(epsilon=1.0, k=10, grid=grid))
        named = [
            f"sampled mass {discretize(SPEC, grid, d).mass:.6g} of mechanism "
            f"(sigma=1.5, scheme=poisson, q=0.01, direction={d.value}) exceeds 1: "
            "the grid under-resolves it"
            for d in Direction
        ]
        assert result.warnings == tuple(sorted(named))


class TestComposedMass:
    """Factors within the mass tolerance can compose to a mass beyond it:
    the default query at n = 2^16, L = 20 samples each direction's density
    to 1 + 7.9e-6, and its 10^4-th power to 1.08, which puts delta 8% above
    the converged 0.0496014."""

    def default_query(self, size):
        return query(epsilon=1.0, k=10_000, grid=Grid(half_width=20.0, size=size))

    def composed_warning(self, direction, mass):
        return (
            f"composed mass {mass:.6g} of 10000 x mechanism (sigma=1.5, scheme=poisson, "
            f"q=0.01, direction={direction.value}) exceeds 1: the grid under-resolves the "
            "composition"
        )

    def test_the_default_query_warns_at_two_to_the_sixteen(self):
        q = self.default_query(2 ** 16)
        convolved = convolutions(q)
        for direction, conv in convolved:
            assert conv.mass > 1.08
            assert conv.warnings == (self.composed_warning(direction, conv.mass),)
        result = delta_of_epsilon(q)
        assert result.value == pytest.approx(0.0535908, rel=1e-6)
        assert result.warnings == tuple(
            sorted(self.composed_warning(d, conv.mass) for d, conv in convolved)
        )

    def test_the_default_query_is_silent_at_two_to_the_twenty(self):
        result = delta_of_epsilon(self.default_query(2 ** 20))
        assert result.value == pytest.approx(0.0496014, rel=1e-6)
        assert result.warnings == ()

    def deficit_warning(self, direction, conv, q):
        return (
            f"composed mass {conv.mass:.6g} of {q.k} x mechanism (sigma={q.specs[0].sigma}, "
            f"scheme=poisson, q=0.01, direction={direction.value}) falls short of 1: the grid "
            "under-resolves or truncates the composition"
        )

    def assert_deficit_warns(self, q, below):
        convolved = convolutions(q)
        for direction, conv in convolved:
            assert conv.mass < below
            assert conv.warnings == (self.deficit_warning(direction, conv, q),)
        result = delta_of_epsilon(q)
        assert result.warnings == tuple(
            sorted(self.deficit_warning(d, conv, q) for d, conv in convolved)
        )
        return result

    @pytest.mark.parametrize(
        "sigma, size, below, value",
        [
            # k = 100 at L = 12. sigma = 1.5: at 2048 the composed masses are
            # about 1.9e-10 and delta is 5.8e-22, at 8192 they are 0.317 and
            # 0.314 and delta is 52% low; 2^16 gives 2.5e-14. sigma = 0.9,
            # where tail_estimate is out of its envelope: 0.420 and 0.416 at
            # 16384 (delta 54% low), 0.9906 and 0.9905 at 2^16 (0.9% low),
            # against 1.05499e-5 at 2^18.
            (1.5, 2048, 2e-10, 5.80028e-22),
            (1.5, 8192, 0.32, 1.21674e-14),
            (0.9, 16384, 0.42, 4.79865e-6),
            (0.9, 2 ** 16, 0.991, 1.04552e-5),
        ],
    )
    def test_a_deficit_warns_in_both_directions(self, sigma, size, below, value):
        q = query(epsilon=1.0, k=100, spec=MechanismSpec(sigma=sigma, q=0.01),
                  grid=Grid(half_width=12.0, size=size))
        result = self.assert_deficit_warns(q, below)
        assert result.value == pytest.approx(value, rel=1e-5)

    def test_a_factor_the_grid_cannot_hold_warns_at_k_one(self):
        # At sigma = 0.1 the bulk of each direction's density is a spike near
        # log(1 - q) that 2^16 points at L = 12 do not resolve, so the masses
        # are 8.1e-6 and 3.9e-6 and delta is 4.13e-6, about 2,400 times below
        # the 0.0099999 of L = 100, n = 2^20.
        q = query(epsilon=1.0, k=1, spec=MechanismSpec(sigma=0.1, q=0.01))
        result = self.assert_deficit_warns(q, 1e-5)
        assert result.value == pytest.approx(4.12987e-6, rel=1e-5)

    def test_a_deficit_within_the_tolerance_is_silent(self):
        # k = 100 at 2^16 composes to 1 - 3.0e-6. The default query at L = 12
        # and 2^16 composes to 1 - 3.04e-4, within the mass tolerance, though
        # its delta is 3e-4 low. At sigma = 0.9, 2^18 gives 1 + 3.5e-4.
        for k, spec, size in ((100, SPEC, 2 ** 16), (10_000, SPEC, 2 ** 16),
                              (100, MechanismSpec(sigma=0.9, q=0.01), 2 ** 18)):
            q = query(epsilon=1.0, k=k, spec=spec, grid=Grid(half_width=12.0, size=size))
            assert delta_of_epsilon(q).warnings == ()

    def test_a_composition_that_wraps_around_keeps_its_mass(self):
        # At L = 2 the default query's composition reaches far beyond the
        # grid, and tail_estimate is a valid 0.332. The circular convolution
        # wraps that tail around, so the composed mass stays 1 and no mass
        # warning fires, though delta is 15% low. The edge band, the outer
        # n/20 cells at each end, carries 0.0183 and 0.0171 of it and names it.
        q = query(epsilon=1.0, k=10_000, grid=Grid(half_width=2.0, size=2 ** 16))
        tail = tail_estimate(q)
        assert tail.valid and tail.value == pytest.approx(0.332, abs=1e-3)
        convolved = convolutions(q)
        for direction, conv in convolved:
            assert conv.mass == pytest.approx(1.0, abs=1e-9)
            assert conv.warnings == (self.edge_warning(direction, conv.edge_mass),)
        assert [round(conv.edge_mass, 4) for _direction, conv in convolved] == [0.0183, 0.0171]
        result = delta_of_epsilon(q)
        assert result.warnings == tuple(
            sorted(self.edge_warning(d, conv.edge_mass) for d, conv in convolved)
        )
        assert result.value == pytest.approx(0.0422152, rel=1e-5)

    def edge_warning(self, direction, edge_mass):
        return (
            f"edge-band mass {edge_mass:.3g} of 10000 x mechanism (sigma=1.5, scheme=poisson, "
            f"q=0.01, direction={direction.value}) exceeds 1e-06: the composition reaches the "
            "edge of the grid and may wrap around; increase the truncation radius"
        )

    def test_a_named_factor_is_not_named_again_as_a_composition(self):
        # At n = 4096, L = 12 each direction's factor has mass 1.076, so its
        # sampled-mass warning stands alone.
        for _direction, conv in convolutions(query(epsilon=1.0, k=3, grid=Grid(12.0, 4096))):
            assert len(conv.warnings) == 1 and conv.warnings[0].startswith("sampled mass")


class TestWrapAround:
    """A composition that reaches beyond +-L wraps around and keeps its
    mass; the edge band, dx times the samples in the outer n/20 cells at
    each end, names it. Exact values: 0.99745 for Poisson sigma=1, q=1,
    k=40 and 0.94349 for without-replacement sigma=1.5, q=1, k=10 at eps=1."""

    WOR = MechanismSpec(sigma=1.5, q=1.0, scheme=Scheme.WITHOUT_REPLACEMENT)
    WR = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64,
                       dataset_size=6400)

    @pytest.mark.parametrize(
        "spec, k, half_width, size, edge, value",
        [
            # The default query, against 0.0496014103: 15%, 2.6%, 0.29% and
            # 0.001% low.
            (SPEC, 10_000, 2.0, 2 ** 16, 0.0183, 0.0422152),
            (SPEC, 10_000, 2.5, 2 ** 16, 4.25e-3, 0.0483071),
            (SPEC, 10_000, 3.0, 2 ** 16, 6.83e-4, 0.0494565),
            (SPEC, 10_000, 4.0, 2 ** 16, 6.47e-6, 0.0496009),
            (MechanismSpec(sigma=1.0, q=1.0), 40, 20.0, 2 ** 14, 0.248, 0.497654),
            (MechanismSpec(sigma=1.0, q=1.0), 40, 6.0, 2 ** 14, 0.1, 0.332674),
            (WOR, 10, 12.0, 2 ** 14, 0.172, 0.713176),
            (WOR, 10, 20.0, 2 ** 14, 0.0144, 0.939285),
            # tail_estimate is out of its envelope here; L = 12 gives 0.0336066.
            (WR, 1000, 1.5, 2 ** 14, 0.0383, 0.0186544),
            (WR, 1000, 2.0, 2 ** 14, 9.95e-3, 0.0305164),
            # 1.9e-4 below 0.1900814 at L = 40, n = 2^22; the y-over-x band
            # holds 1.14e-6.
            (MechanismSpec(sigma=0.8, q=0.02), 1000, 6.0, 2 ** 18, 3.36e-4, 0.189893),
        ],
    )
    def test_a_composition_that_wraps_around_warns(self, spec, k, half_width, size, edge, value):
        q = query(epsilon=1.0, k=k, spec=spec, grid=Grid(half_width, size))
        convolved = convolutions(q)
        assert convolved[0][1].edge_mass == pytest.approx(edge, rel=5e-3)
        for _direction, conv in convolved:
            (warning,) = conv.warnings
            assert warning.startswith(f"edge-band mass {conv.edge_mass:.3g} of {k} x mechanism")
            assert abs(conv.mass - 1.0) <= 1e-3
        result = delta_of_epsilon(q)
        assert result.warnings == tuple(sorted(conv.warnings[0] for _d, conv in convolved))
        assert result.value == pytest.approx(value, rel=1e-5)

    def test_a_wide_enough_radius_is_silent(self):
        # The default query at L = 12 reads 0, and so does the benchmark's
        # poisson-delta query; with-replacement reads 3.5e-15.
        for q in (query(epsilon=1.0, k=10_000), query(epsilon=1.0, k=1000, spec=self.WR,
                                                      grid=Grid(12.0, 2 ** 14))):
            for _direction, conv in convolutions(q):
                assert conv.edge_mass < 1e-14
            assert delta_of_epsilon(q).warnings == ()
