"""Tail, periodisation, and discretisation error control."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dpconv import (
    BoundResult,
    CompositionQuery,
    DomainError,
    Grid,
    MechanismSpec,
    Scheme,
    alpha_bound,
    alpha_lambda_limit,
    analytic_lambda_limit,
    analytic_tail_bound,
    delta_of_epsilon,
    discretization_estimate,
    discretize,
    epsilon_of_delta,
    periodisation_bound,
    tail_estimate,
)
from dpconv.error_bounds import _analytic_conditions


def composition(sigma, q, k, half_width):
    """k invocations of the Poisson mechanism (sigma, q), on a grid of radius half_width."""
    spec = MechanismSpec(sigma=sigma, q=q)
    return CompositionQuery.homogeneous(spec, k, Grid(half_width=half_width, size=2))


WR = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400)


# Reference tail values at sigma=1.5, q=0.01, k=1e4.
TAIL_COLUMN = {
    2.0: 3.32e-1,
    4.0: 4.96e-3,
    6.0: 3.32e-6,
    8.0: 1.00e-10,
    10.0: 1.36e-16,
    12.0: 8.30e-24,
}


def test_bound_result_is_valid_exactly_without_violations():
    assert BoundResult(value=1.0).valid
    assert not BoundResult(value=1.0, violated=("q < 1 fails",)).valid
    with pytest.raises(TypeError):
        BoundResult(value=1.0, valid=True)


class TestAlphaBound:
    def test_closed_form_arithmetic(self):
        got = alpha_bound(2.0, 0.01, 5.0)
        assert got.valid
        assert got.value == pytest.approx(0.01 ** 2 * 5 * 6 / (0.99 * 4.0), rel=1e-15)

    def test_vanishing_q(self):
        got = alpha_bound(1.0, 1e-6, 1.0)
        assert got.value == pytest.approx(2e-12 / (1 - 1e-6), rel=1e-15)

    def test_lambda_envelope_value(self):
        # sigma^2 ln(1/(q sigma)) at (2, 0.01) and (1.5, 0.01).
        assert alpha_lambda_limit(2.0, 0.01) == pytest.approx(4.0 * math.log(50.0), rel=1e-14)
        assert alpha_lambda_limit(1.5, 0.01) == pytest.approx(
            2.25 * math.log(1 / 0.015), rel=1e-14
        )

    def test_gate_sigma(self):
        got = alpha_bound(0.5, 0.01, 2.0)
        assert not got.valid
        assert any("sigma" in v for v in got.violated)

    def test_gate_q_versus_sigma(self):
        got = alpha_bound(2.0, 0.05, 2.0)  # 1/(16 sigma) = 0.03125
        assert not got.valid

    def test_gate_lambda_range(self):
        assert not alpha_bound(2.0, 0.01, 0.5).valid
        assert not alpha_bound(2.0, 0.01, 100.0).valid

    @pytest.mark.parametrize("sigma, q", [(0.0, 0.01), (1.5, 1.5)])
    def test_rejects_a_sigma_or_q_outside_its_domain(self, sigma, q):
        with pytest.raises(DomainError, match="alpha_bound needs"):
            alpha_bound(sigma, q, 2.0)

    def test_q_one_collapses(self):
        got = alpha_bound(1.5, 1.0, 2.0)
        assert math.isinf(got.value)
        assert not got.valid


class TestTailEstimate:
    @pytest.mark.parametrize("half_width,reference", sorted(TAIL_COLUMN.items()))
    def test_matches_reference_column(self, half_width, reference):
        got = tail_estimate(composition(1.5, 0.01, 10 ** 4, half_width))
        ratio = got.value / reference
        assert 1 / 1.5 <= ratio <= 1.5

    def test_monotone_decreasing_in_half_width(self):
        values = [
            tail_estimate(composition(2.0, 0.01, 100, L)).value for L in (4.0, 6.0, 8.0, 10.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_k(self):
        values = [tail_estimate(composition(2.0, 0.01, k, 8.0)).value for k in (1, 10, 100, 1000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validity_follows_alpha_envelope(self):
        # lambda = L/2 = 10 exceeds sigma^2 ln(1/(q sigma)) = 9.44 at sigma=1.5.
        got = tail_estimate(composition(1.5, 0.01, 10, 20.0))
        assert not got.valid

    def test_one_mechanism_is_the_scalar_formula_bitwise(self):
        alpha = alpha_bound(1.5, 0.01, 6.0)
        got = tail_estimate(composition(1.5, 0.01, 10 ** 4, 12.0))
        assert got.value == math.exp(10 ** 4 * alpha.value - 12.0 * 12.0 / 2.0)
        assert got.valid

    def test_log_moments_add_across_mechanisms(self):
        other = MechanismSpec(sigma=2.0, q=0.02)
        query = CompositionQuery(
            specs=(MechanismSpec(sigma=1.5, q=0.01), other), counts=(600, 400),
            grid=Grid(half_width=12.0, size=2),
        )
        exponent = 600 * alpha_bound(1.5, 0.01, 6.0).value + 400 * alpha_bound(2.0, 0.02, 6.0).value
        assert tail_estimate(query).value == pytest.approx(math.exp(exponent - 72.0), rel=1e-12)

    def test_with_replacement_is_reported_as_a_violated_condition(self):
        got = tail_estimate(CompositionQuery.homogeneous(WR, 1000, Grid(half_width=12.0, size=2)))
        assert not got.valid
        assert any("with-replacement" in condition for condition in got.violated)
        assert 0.0 < got.value < 1e-20


class TestAnalyticTailBound:
    def test_sigma_gate(self):
        got = analytic_tail_bound(composition(3.9, 0.01, 1, 20.0))
        assert not got.valid
        assert math.isnan(got.value)

    def test_q_gate(self):
        assert not analytic_tail_bound(composition(4.0, 0.25, 1, 20.0)).valid

    def test_lambda_gate_at_radius_two(self):
        # lambda = L/2 = 1 fails lambda > 1, and the caps, which divide by
        # lambda - 1, are not evaluated.
        got = analytic_tail_bound(composition(4.0, 0.01, 1, 2.0))
        assert math.isnan(got.value)
        assert got.violated == ("lambda > 1 fails (lambda = 1)",)

    def test_value_inside_envelope(self):
        got = analytic_tail_bound(composition(4.0, 0.01, 1, 20.0))
        assert got.valid
        assert got.value == pytest.approx(1.3857993844610187e-87, rel=1e-12)

    def test_lambda_envelope_value(self):
        assert analytic_lambda_limit(4.0, 0.01) == pytest.approx(14.3, abs=0.2)

    @pytest.mark.parametrize(
        "sigma, q",
        [(4.0, 0.01), (5.0, 0.2), (100.0, 1e-4), (1e7, 1e-12), (1e9, 0.01), (1e50, 1e-300)],
    )
    def test_lambda_limit_is_the_last_admissible_double(self, sigma, q):
        # A limit beyond 1e9 is found too: at (1e9, 0.01) it is 1.732e9.
        limit = analytic_lambda_limit(sigma, q)
        assert 1.0 < limit < math.inf
        assert _analytic_conditions(sigma, q, limit) == []
        assert _analytic_conditions(sigma, q, math.nextafter(limit, math.inf)) != []

    @pytest.mark.parametrize("q", [5e-324, 1e-310, 0.0, -0.01, math.nan])
    def test_lambda_limit_rejects_a_q_that_is_not_a_positive_normal_float(self, q):
        # The caps divide by q (lambda - 1), which a subnormal q underflows.
        with pytest.raises(DomainError, match="q must be a positive normal float"):
            analytic_lambda_limit(4.0, q)

    def test_lambda_limit_is_zero_outside_the_fixed_gates(self):
        assert analytic_lambda_limit(3.9, 0.01) == 0.0
        assert analytic_lambda_limit(4.0, 0.3) == 0.0

    def test_dominates_integrated_tail(self):
        # Nonvacuous witness: at q=0.2, L=3 the true tail is representable
        # (1.3e-74) rather than underflowing to zero as at the q=0.01, L=20
        # point, where the comparison would hold trivially.
        bound = analytic_tail_bound(composition(4.0, 0.2, 1, 3.0))
        assert bound.valid
        spec = MechanismSpec(sigma=4.0, q=0.2)
        grid = Grid(half_width=24.0, size=2 ** 20)
        pld = discretize(spec, grid)
        tail = grid.dx * pld.samples[grid.points() > 3.0].sum()
        assert tail > 0.0
        assert bound.value >= tail

    def test_monotone_decreasing_in_half_width(self):
        values = [
            analytic_tail_bound(composition(4.0, 0.01, 10, L)).value for L in (8.0, 12.0, 16.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_growth_factors_multiply_across_mechanisms(self):
        query = CompositionQuery(
            specs=(MechanismSpec(sigma=4.0, q=0.01), MechanismSpec(sigma=5.0, q=0.02)),
            counts=(500, 300), grid=Grid(half_width=20.0, size=2),
        )
        growth = [2.0 * q * q * 11.0 * 10.0 / (s * s) for s, q in ((4.0, 0.01), (5.0, 0.02))]
        want = (1 + growth[0]) ** 500 * (1 + growth[1]) ** 300 * math.exp(-200.0)
        got = analytic_tail_bound(query)
        assert got.valid
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_one_mechanism_out_of_envelope_voids_the_bound(self):
        query = CompositionQuery(
            specs=(MechanismSpec(sigma=4.0, q=0.01), MechanismSpec(sigma=3.0, q=0.01)),
            counts=(5, 5), grid=Grid(half_width=20.0, size=2),
        )
        alone = dataclasses.replace(query, specs=query.specs[:1], counts=(5,))
        assert analytic_tail_bound(alone).valid
        got = analytic_tail_bound(query)
        assert math.isnan(got.value)
        assert got.violated[0] == "sigma >= 4 fails (sigma = 3)"

    @pytest.mark.parametrize(
        "spec", [WR, MechanismSpec(sigma=4.0, q=1.0)], ids=["with-replacement", "q=1"]
    )
    def test_outside_the_moment_lemma_is_a_violated_condition(self, spec):
        got = analytic_tail_bound(CompositionQuery.homogeneous(spec, 10, Grid(20.0, 2)))
        assert not got.valid
        assert math.isnan(got.value)
        assert len(got.violated) == 1

    def test_overflow_is_inf_not_a_capped_double(self):
        got = analytic_tail_bound(composition(4.0, 0.2, 10 ** 5, 8.0))
        assert got.valid
        assert got.value == math.inf


class TestPeriodisationBound:
    def test_boundary_term_small_already_at_four(self):
        got = periodisation_bound(2.0, 0.01, 2 * 10 ** 4, 4.0)
        details = dict(got.details)
        assert details["boundary_term"] <= 1e-16
        assert details["image_series_terms"] >= 1

    def test_smaller_than_tail_estimate(self):
        bound = periodisation_bound(2.0, 0.01, 10 ** 4, 12.0)
        tail = tail_estimate(composition(2.0, 0.01, 10 ** 4, 12.0))
        assert bound.value < tail.value

    def test_monotone_decreasing_in_half_width(self):
        values = [periodisation_bound(2.0, 0.01, 100, L).value for L in (4.0, 8.0, 12.0, 16.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_q_gate(self):
        assert not periodisation_bound(2.0, 0.6, 10, 8.0).valid

    def test_half_width_gate(self):
        assert not periodisation_bound(2.0, 0.01, 10, 0.5).valid


class TestDiscretizationEstimate:
    SPEC = MechanismSpec(sigma=1.5, q=0.01)
    GRID = Grid(half_width=12.0, size=4096)

    def results(self, grid=GRID, k=8):
        """delta_of_epsilon at epsilon 1 on grid and on its refinement."""
        return tuple(
            delta_of_epsilon(CompositionQuery.homogeneous(self.SPEC, k, g, epsilon=1.0))
            for g in (grid, grid.refine())
        )

    def test_rejects_a_refined_result_of_another_query(self):
        # Only the result's own query at its epsilon on the doubled grid
        # refines it: not the result itself (which gave 0 with no violation),
        # nor another epsilon, radius or count, nor an epsilon result.
        coarse, fine = self.results()
        other_eps = delta_of_epsilon(dataclasses.replace(fine.query, epsilon=1.5))
        other_radius = self.results(Grid(half_width=11.0, size=8192))[0]
        other_count = self.results(k=9)[1]
        as_epsilon = epsilon_of_delta(dataclasses.replace(fine.query, epsilon=None, delta=1e-5))
        for result, refined in (
            (fine, fine),
            (coarse, coarse),
            (coarse, other_eps),
            (coarse, other_radius),
            (coarse, other_count),
            (coarse, as_epsilon),
        ):
            with pytest.raises(DomainError, match="doubled grid"):
                discretization_estimate(result, refined)

    def test_definition(self):
        coarse, fine = self.results()
        estimate = discretization_estimate(coarse)
        assert estimate.value == 2.0 * abs(coarse.value - fine.value)

    def test_relative_form(self):
        # The relative form reference tables quote, 2 |I_n - I_2n| / I_n,
        # is the estimate divided by I_n, which the caller has at hand.
        coarse, fine = self.results()
        base = coarse.value
        estimate = discretization_estimate(coarse).value
        relative = estimate / base if base > 0.0 else (math.inf if estimate > 0.0 else 0.0)
        assert relative == pytest.approx(2.0 * abs(base - fine.value) / base, rel=1e-12)

    def test_shrinks_with_refinement(self):
        coarse, _ = self.results(Grid(half_width=12.0, size=2 ** 12), k=100)
        finer, _ = self.results(Grid(half_width=12.0, size=2 ** 14), k=100)
        assert discretization_estimate(finer).value < discretization_estimate(coarse).value

    def test_given_values_run_no_pipeline(self, monkeypatch):
        coarse, fine = self.results()
        computed = discretization_estimate(coarse)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the pipeline ran although I_2n was given")

        monkeypatch.setattr("dpconv.accountant.delta_of_epsilon", refuse)
        assert discretization_estimate(coarse, fine) == computed

    def test_names_the_doubled_grid_warnings(self):
        # At n = 4096 the mixed query warns of its two sampled masses; the
        # doubled grid names no factor but composes to 0.944 in each
        # direction, and the estimate rests on that run.
        query = CompositionQuery(
            specs=(self.SPEC, WR),
            counts=(5, 5),
            grid=Grid(half_width=12.0, size=4096),
            epsilon=1.0,
        )
        result = delta_of_epsilon(query)
        estimate = discretization_estimate(result)
        assert estimate.value == 8.023205748287693e-08
        assert not estimate.valid
        assert [w[:30] for w in estimate.violated] == [
            "n=8192: composed mass 0.943754", "n=8192: composed mass 0.944228"
        ]
        assert not set(estimate.violated) & set(result.warnings)

    def test_clean_query_violates_nothing(self):
        coarse, _ = self.results(Grid(half_width=12.0, size=2 ** 14), k=100)
        estimate = discretization_estimate(coarse)
        assert estimate.value == 7.244156321288638e-15
        assert estimate.violated == ()
