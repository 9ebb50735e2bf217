"""Loss functions, inverses, and PLD densities for the three subsampling schemes.

Expected values come from the closed forms evaluated independently inline, or
from quadrature checks on explicit grids.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconv import (
    Direction,
    DomainError,
    MechanismSpec,
    NonConvergenceError,
    Scheme,
)
import dpconv.mechanisms
from dpconv.mechanisms import (
    loss_inverse_poisson,
    loss_inverse_with_replacement,
    loss_inverse_without_replacement,
    loss_poisson,
    loss_with_replacement,
    loss_without_replacement,
    pld_density_poisson,
    pld_density_with_replacement,
    pld_density_without_replacement,
)
from dpconv.accountant import CompositionQuery, delta_of_epsilon
from dpconv.discretization import Grid, discretize
from conftest import clear_wr_caches

POISSON = MechanismSpec(sigma=1.5, q=0.01)
WOR = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.1)
WR = MechanismSpec(sigma=2.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=5, dataset_size=100)
# The benchmark's with-replacement mechanism: 64 draws from 6400 records.
WR_WIDE = MechanismSpec(
    sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400
)


def quadrature_mass(spec, half_width, size, direction=Direction.X_OVER_Y):
    grid = Grid(half_width=half_width, size=size)
    return grid.dx * discretize(spec, grid, direction).samples.sum()


class TestSpecValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            MechanismSpec(sigma=0.0, q=0.01)

    @pytest.mark.parametrize("sigma", [1e51, 1e77, 1e200, math.inf, math.nan])
    def test_rejects_sigma_whose_density_arithmetic_overflows(self, sigma):
        with pytest.raises(DomainError, match="at most 1e\\+50"):
            MechanismSpec(sigma=sigma, q=0.01)

    def test_accepts_sigma_at_the_ceiling(self):
        assert MechanismSpec(sigma=1e50, q=0.01).sigma == 1e50

    def test_rejects_q_out_of_range(self):
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, q=0.0)
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, q=1.5)
        with pytest.raises(DomainError, match="requires a sampling fraction"):
            MechanismSpec(sigma=1.0)

    @pytest.mark.parametrize("scheme", [Scheme.POISSON, Scheme.WITHOUT_REPLACEMENT])
    @pytest.mark.parametrize("q", [5e-324, math.nextafter(sys.float_info.min, 0.0)])
    def test_rejects_a_subnormal_q(self, scheme, q):
        # The densities divide by q; a subnormal one overflows them.
        with pytest.raises(DomainError, match="q must lie in"):
            MechanismSpec(sigma=4.0, scheme=scheme, q=q)

    def test_accepts_the_smallest_normal_q(self):
        assert MechanismSpec(sigma=4.0, q=sys.float_info.min).q == sys.float_info.min

    def test_accepts_q_one(self):
        # q=1 is the degenerate non-subsampled Gaussian, kept for cross-checks.
        MechanismSpec(sigma=1.0, q=1.0)

    def test_with_replacement_needs_batch_and_dataset(self):
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, q=0.1)
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=5)
        with pytest.raises(DomainError, match="batch_size must be a positive integer"):
            MechanismSpec(
                sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=0, dataset_size=10
            )
        with pytest.raises(DomainError, match="only apply to the with-replacement scheme"):
            MechanismSpec(sigma=1.0, q=0.1, batch_size=5)
        with pytest.raises(DomainError):
            MechanismSpec(
                sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=11, dataset_size=10
            )

    @pytest.mark.parametrize(
        "sizes, named",
        [((2.5, 10), "batch_size 2.5"), ((2, 10.0), "dataset_size 10.0"),
         ((True, 10), "batch_size True"), ((2, "10"), "dataset_size '10'")],
        ids=["float-batch", "float-dataset", "bool-batch", "str-dataset"],
    )
    def test_with_replacement_sizes_must_be_integers(self, sizes, named):
        # A binomial mixture over 2.5 draws would be evaluated silently.
        name, value = named.split(" ")
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {value}"):
            MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=sizes[0],
                          dataset_size=sizes[1])

    def test_with_replacement_sizes_take_numpy_integers(self):
        spec = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT,
                             batch_size=np.int64(2), dataset_size=np.int32(10))
        assert spec.density(0.5) == MechanismSpec(
            sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=2, dataset_size=10
        ).density(0.5)

    def test_only_poisson_is_directional(self):
        assert POISSON.directional
        assert not WOR.directional and not WR.directional


class TestPoissonLossInverse:
    def test_unit_log_ratio_point(self):
        # e^0 - (1-q) = q, so the log vanishes and only the +1/2 remains.
        spec = MechanismSpec(sigma=2.0, q=0.3)
        assert loss_inverse_poisson(spec, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_q_one_is_affine(self):
        spec = MechanismSpec(sigma=1.5, q=1.0)
        assert loss_inverse_poisson(spec, 2.0) == pytest.approx(5.0, abs=1e-12)
        # Also far below 0, where expm1(s) + 1 has lost its digits (it
        # rounds to 0 below s of about -37).
        s = np.array([-40.0, -30.0, -1.0])
        assert np.array_equal(loss_inverse_poisson(spec, s), 2.25 * s + 0.5)
        # The forward losses collapse to the plain Gaussian ones, Poisson's
        # (2t - 1) / (2 sigma^2) and the substitute relation's 2t / sigma^2.
        t = np.array([-3.0, 0.0, 0.7, 5.0])
        assert np.array_equal(loss_poisson(spec, t), (2.0 * t - 1.0) / 4.5)
        wor = dataclasses.replace(spec, scheme=Scheme.WITHOUT_REPLACEMENT)
        np.testing.assert_allclose(loss_without_replacement(wor, t), t / 1.125, rtol=1e-15)

    def test_forward_evaluation_round_trip(self):
        t = loss_inverse_poisson(POISSON, 1.0)
        s = math.log(
            0.01 * math.exp((2.0 * t - 1.0) / (2.0 * 1.5 ** 2)) + 0.99
        )
        assert abs(s - 1.0) <= 1e-12

    def test_domain_error_at_and_below_edge(self):
        edge = math.log(1.0 - 0.01)
        with pytest.raises(DomainError):
            loss_inverse_poisson(POISSON, edge)
        with pytest.raises(DomainError):
            loss_inverse_poisson(POISSON, edge - 0.5)
        with pytest.raises(DomainError):
            loss_inverse_poisson(POISSON, math.nan)

    def test_density_is_built_on_the_same_inverse(self):
        s = np.linspace(math.log(0.99) + 1e-6, 10.0, 501)
        t = loss_inverse_poisson(POISSON, s)
        slope = np.exp(s) / (np.expm1(s) + 0.01) * (1.5 * 1.5)
        want = dpconv.mechanisms._mixture_pdf(t, 1.5, 0.01) * slope
        assert np.array_equal(pld_density_poisson(POISSON, s), want)

    @given(st.floats(min_value=-4.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, s):
        if s <= math.log(1.0 - 0.01):
            return
        t = loss_inverse_poisson(POISSON, s)
        assert abs(loss_poisson(POISSON, t) - s) <= 1e-10

    def test_strictly_increasing(self):
        s = np.linspace(math.log(0.99) + 1e-6, 10.0, 500)
        t = loss_inverse_poisson(POISSON, s)
        assert np.all(np.diff(t) > 0)


class TestPoissonDensity:
    def test_zero_below_support(self):
        s = math.log(1.0 - 0.01) - 0.1
        assert pld_density_poisson(POISSON, s) == 0.0

    def test_zero_at_support_edge(self):
        assert pld_density_poisson(POISSON, math.log(1.0 - 0.01)) == 0.0

    def test_dual_relation_pointwise(self):
        assert pld_density_poisson(POISSON, 0.2) == pytest.approx(
            math.exp(0.2) * POISSON.density(-0.2, Direction.Y_OVER_X),
            rel=1e-12,
        )

    def test_dual_relation_sampled(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(math.log(0.99) + 1e-3, 8.0, size=1000)
        fwd = pld_density_poisson(POISSON, s)
        mirrored = POISSON.density(-s, Direction.Y_OVER_X)
        np.testing.assert_allclose(fwd, np.exp(s) * mirrored, rtol=1e-12)

    def test_density_is_exp_loss_times_the_y_density(self):
        # f_X = exp(loss) f_Y, taken through the loss inverse t(s): the
        # density is exp(s) phi_sigma(t) dt/ds, with phi_sigma the N(0, sigma^2)
        # pdf f_Y and dt/ds = sigma^2 exp(s) / (exp(s) - (1 - q)). No
        # mixture and no mirror enter, unlike the dual relation above.
        rng = np.random.default_rng(11)
        s = rng.uniform(math.log(0.99) + 1e-3, 8.0, size=1000)
        sigma, q = POISSON.sigma, POISSON.q
        t = loss_inverse_poisson(POISSON, s)
        slope = sigma * sigma * np.exp(s) / (np.expm1(s) + q)
        phi = np.exp(-t * t / (2.0 * sigma * sigma)) / math.sqrt(2.0 * math.pi * sigma * sigma)
        np.testing.assert_allclose(pld_density_poisson(POISSON, s), np.exp(s) * phi * slope,
                                   rtol=1e-12)

    def test_normalisation(self):
        assert quadrature_mass(POISSON, 12.0, 10 ** 6) == pytest.approx(1.0, abs=1e-8)

    def test_normalisation_reverse_direction(self):
        mass = quadrature_mass(POISSON, 12.0, 10 ** 6, Direction.Y_OVER_X)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestWithoutReplacement:
    def test_inverse_at_zero(self):
        assert loss_inverse_without_replacement(WOR, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-6.0, 6.0, size=1000)
        t = loss_inverse_without_replacement(WOR, s)
        np.testing.assert_allclose(loss_without_replacement(WOR, t), s, atol=1e-10)

    def test_strictly_increasing(self):
        s = np.linspace(-8.0, 8.0, 2000)
        assert np.all(np.diff(loss_inverse_without_replacement(WOR, s)) > 0)

    def test_self_dual(self):
        s = 0.3
        assert pld_density_without_replacement(WOR, s) == pytest.approx(
            math.exp(s) * pld_density_without_replacement(WOR, -s), rel=1e-12
        )

    def test_normalisation(self):
        assert quadrature_mass(WOR, 15.0, 10 ** 6) == pytest.approx(1.0, abs=1e-8)


class TestWithoutReplacementFarTail:
    """Where the quadratic root overflows (|s| beyond about 355) or c =
    q exp(-1/(2 sigma^2)) underflows, the closed form in logs takes over."""

    FAR = MechanismSpec(sigma=1.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.5)

    def test_no_sample_is_non_finite(self):
        samples = discretize(self.FAR, Grid(half_width=360.0, size=4096)).samples
        assert np.all(np.isfinite(samples))

    def test_only_points_where_the_root_is_not_finite_take_the_log_form(self, monkeypatch):
        seen = []
        far = dpconv.mechanisms._wor_inverse_far
        monkeypatch.setattr(
            dpconv.mechanisms, "_wor_inverse_far", lambda *args: seen.append(args[2]) or far(*args)
        )
        s = Grid(half_width=360.0, size=4096).points()
        pld_density_without_replacement(self.FAR, s)
        (points,) = seen
        assert points.size == 27 and np.all(points > 355.0)

    @pytest.mark.parametrize(
        "sigma, q, s",
        [(1.0, 0.5, 360.0), (1.0, 0.5, 700.0), (0.02, 0.5, 650.0), (0.02, 0.5, -3.0),
         (1e-3, 0.5, 1.0), (1e-3, 1.0, -2.0)],
    )
    def test_log_form_matches_high_precision(self, sigma, q, s):
        with mpmath.workdps(60):
            sig, qq, ss = mpmath.mpf(sigma), mpmath.mpf(q), mpmath.mpf(s)
            k = qq * mpmath.exp(-1 / (2 * sig ** 2)) / (1 - qq) if q < 1 else mpmath.inf
            t = sig ** 2 * (ss / 2 + (mpmath.asinh(mpmath.sinh(ss / 2) / k) if q < 1 else 0))
            slope = sig ** 2 / 2 * (1 + mpmath.cosh(ss / 2) / mpmath.sqrt(
                mpmath.sinh(ss / 2) ** 2 + (k ** 2 if q < 1 else mpmath.inf)
            ))
        got_t, got_slope = dpconv.mechanisms._wor_inverse_far(sigma, q, np.array([s]))
        assert got_t[0] == pytest.approx(float(t), rel=1e-14)
        assert got_slope[0] == pytest.approx(float(slope), rel=1e-14)


class TestWithReplacement:
    def test_root_at_zero(self):
        assert loss_inverse_with_replacement(WR, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-5.0, 5.0, size=500)
        t = loss_inverse_with_replacement(WR, s)
        np.testing.assert_allclose(loss_with_replacement(WR, t), s, atol=1e-10)

    def test_strictly_increasing(self):
        s = np.linspace(-6.0, 6.0, 800)
        assert np.all(np.diff(loss_inverse_with_replacement(WR, s)) > 0)

    def test_self_dual(self):
        s = 0.4
        assert pld_density_with_replacement(WR, s) == pytest.approx(
            math.exp(s) * pld_density_with_replacement(WR, -s), rel=1e-12
        )

    def test_single_draw_matches_without_replacement(self):
        single = MechanismSpec(
            sigma=2.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=1, dataset_size=100
        )
        reference = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.01)
        s = np.linspace(-5.0, 5.0, 401)
        got = pld_density_with_replacement(single, s)
        want = pld_density_without_replacement(reference, s)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_normalisation(self):
        assert quadrature_mass(WR, 20.0, 10 ** 6) == pytest.approx(1.0, abs=1e-7)

    def test_inverse_meets_tolerance_on_a_benchmark_grid(self):
        # Every point of the L=12, n=2^14 grid, plus the right edge +L.
        s = np.append(Grid(half_width=12.0, size=2 ** 14).points(), 12.0)
        t = loss_inverse_with_replacement(WR_WIDE, s)
        assert np.max(np.abs(loss_with_replacement(WR_WIDE, t) - s)) <= 1e-13

    def test_chunking_leaves_results_unchanged(self, monkeypatch, fresh_wr_tables):
        # 100 rows in chunks of 7 leave a short last chunk. The row sums may
        # round differently in another memory layout, by an ulp or so.
        s = np.linspace(-9.0, 9.0, 100)
        want = pld_density_with_replacement(WR_WIDE, s)
        monkeypatch.setattr(dpconv.mechanisms, "_KERNEL_CHUNK_ROWS", 7)
        clear_wr_caches()
        np.testing.assert_allclose(pld_density_with_replacement(WR_WIDE, s), want, rtol=1e-14)

    def test_scalar_input(self):
        s = np.array([-2.5, 0.5, 3.0])
        t = loss_inverse_with_replacement(WR_WIDE, s)
        density = pld_density_with_replacement(WR_WIDE, s)
        for i, point in enumerate(s):
            got_t = loss_inverse_with_replacement(WR_WIDE, float(point))
            got_density = pld_density_with_replacement(WR_WIDE, float(point))
            assert isinstance(got_t, float) and isinstance(got_density, float)
            assert got_t == pytest.approx(t[i], rel=1e-12)
            assert got_density == pytest.approx(density[i], rel=1e-12)
            assert isinstance(loss_with_replacement(WR_WIDE, got_t), float)

    def test_pinned_density_values(self):
        # Computed by the earlier bracket-expansion root finder.
        s = np.array([-6.0, -0.75, 0.0, 0.3, 4.5])
        want = np.array([
            5.33400599842887e-17,
            1.8621248297506293e-06,
            32.87923463937303,
            0.0006613973789596785,
            8.317649566218769e-13,
        ])
        np.testing.assert_allclose(pld_density_with_replacement(WR_WIDE, s), want, rtol=1e-10)

    @pytest.mark.parametrize(
        "sigma, batch_size",
        [(0.3, 1), (0.3, 16), (1.0, 1), (1.0, 64), (1.0, 256), (5.0, 64), (5.0, 256),
         (10.0, 64), (10.0, 1024)],
    )
    def test_wide_grids_converge_within_the_rounding_of_s(self, sigma, batch_size):
        # Far out the loss can step over s between adjacent doubles t: at
        # sigma 10, batch 1024 and s = 147.876 it gives s - 1.99e-13 and
        # s + 1.14e-13, so no t meets 1e-13 and the root finder also accepts
        # the loss's own rounding there. Each grid here failed with 1e-13 alone
        # from L = 150 or 400 on.
        spec = MechanismSpec(
            sigma=sigma,
            scheme=Scheme.WITH_REPLACEMENT,
            batch_size=batch_size,
            dataset_size=100 * batch_size,
        )
        for half_width in (12.0, 150.0, 300.0, 400.0, 600.0, 700.0):
            for size in (4096, 4098, 10_000):
                s = Grid(half_width=half_width, size=size).points()
                t = loss_inverse_with_replacement(spec, s)
                resid = np.abs(loss_with_replacement(spec, t) - s)
                assert np.all(resid <= 1e-13 + 16.0 * np.spacing(np.abs(s)))
                assert np.all(np.isfinite(pld_density_with_replacement(spec, s)))

    def test_far_losses_invert_without_a_warning_or_fail_cleanly(self):
        # At |s| = 1e300 the loss is about 64 |t|; its table's extent is a
        # huge power of two, where the interpolant's data overflow.
        assert loss_inverse_with_replacement(WR_WIDE, 1e300) == pytest.approx(1e300 / 64)
        assert loss_inverse_with_replacement(WR_WIDE, -1e300) == pytest.approx(-1e300 / 64)
        # At sigma = 1e50 the loss stays below 1e300 up to t = 2^1023.
        flat = dataclasses.replace(WR_WIDE, sigma=1e50)
        with pytest.raises(NonConvergenceError, match="could not tabulate the loss"):
            loss_inverse_with_replacement(flat, 1e300)

    def test_loss_saturates_where_its_exponents_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert loss_with_replacement(WR_WIDE, 1e308) == math.inf
            assert loss_with_replacement(WR_WIDE, -1e308) == -math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [loss_inverse_with_replacement, pld_density_with_replacement])
    def test_non_finite_input_raises_at_once(self, monkeypatch, fn, bad):
        calls = []
        kernel = dpconv.mechanisms._wr_kernel
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: calls.append(t) or kernel(spec, t)
        )
        with pytest.raises(DomainError):
            fn(WR_WIDE, bad)
        with pytest.raises(DomainError):
            fn(WR_WIDE, np.array([0.5, bad, -1.0]))
        assert calls == []

    @pytest.mark.parametrize("spec", [WR, WR_WIDE], ids=["WR", "WR_WIDE"])
    def test_kernel_is_odd_bit_for_bit(self, spec):
        t = np.linspace(0.0, 60.0, 20_001)
        loss, slope, curvature, lse_up, lse_down = dpconv.mechanisms._wr_kernel(spec, t)
        loss_m, slope_m, curvature_m, lse_up_m, lse_down_m = dpconv.mechanisms._wr_kernel(spec, -t)
        np.testing.assert_array_equal(loss_m, -loss)
        np.testing.assert_array_equal(slope_m, slope)
        np.testing.assert_array_equal(curvature_m, -curvature)
        np.testing.assert_array_equal(lse_up_m, lse_down)
        np.testing.assert_array_equal(lse_down_m, lse_up)

    def test_inverse_is_odd_bit_for_bit(self):
        s = np.append(Grid(half_width=7.3, size=1000).points(), [0.0, 1e-300, 7.3])
        t = loss_inverse_with_replacement(WR_WIDE, np.concatenate((s, -s)))
        assert t[s.size:].tobytes() == (-t[: s.size]).tobytes()

    @pytest.mark.parametrize(
        "half_width, size, stride",
        [(12.0, 2 ** 14, 32), (7.3, 1000, 1)],
        ids=["symmetric", "asymmetric"],
    )
    def test_grid_agrees_with_scalar_calls(self, half_width, size, stride):
        s = Grid(half_width=half_width, size=size).points()
        t = loss_inverse_with_replacement(WR_WIDE, s)
        density = pld_density_with_replacement(WR_WIDE, s)
        for i in range(0, size, stride):
            point = float(s[i])
            assert loss_inverse_with_replacement(WR_WIDE, point) == pytest.approx(t[i], rel=1e-12)
            assert pld_density_with_replacement(WR_WIDE, point) == pytest.approx(
                density[i], rel=1e-12
            )

    def test_each_magnitude_costs_one_newton_row(self, monkeypatch, fresh_wr_tables):
        # The benchmark's request: on its grid every |s| but 0 and 12 occurs
        # twice, 8193 magnitudes in all, and the quintic start lets each
        # converge on its first kernel row. The loss table's rows (its 8
        # trial extents and its 1025 points) are counted apart; with them a
        # request costs 9226 rows.
        rows = []
        kernel = dpconv.mechanisms._wr_kernel
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: rows.append(t.size) or kernel(spec, t)
        )
        dpconv.mechanisms._wr_loss_table(WR_WIDE, 12.0)
        table_rows = sum(rows)
        rows.clear()
        clear_wr_caches()
        query = CompositionQuery.homogeneous(
            WR_WIDE, k=1000, grid=Grid(half_width=12.0, size=2 ** 14), epsilon=1.0
        )
        delta_of_epsilon(query)
        assert sum(rows) - table_rows == 8193 == np.unique(np.abs(query.grid.points())).size
        assert sum(rows) <= 9300

    def test_a_repeated_request_reuses_the_loss_table(self, monkeypatch, fresh_wr_tables):
        # The table and the log weights are kept per process, so the same
        # request again costs its 8193 Newton rows alone: one kernel call
        # per chunk of 2731 rows, where the first request made two more for
        # the table's extent and its points.
        calls = []
        kernel = dpconv.mechanisms._wr_kernel
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: calls.append(t.size) or kernel(spec, t)
        )
        query = CompositionQuery.homogeneous(
            WR_WIDE, k=1000, grid=Grid(half_width=12.0, size=2 ** 14), epsilon=1.0
        )
        first = delta_of_epsilon(query)
        assert (sum(calls), len(calls)) == (9226, 5)
        calls.clear()
        assert delta_of_epsilon(query) == first
        assert calls == [2731, 2731, 2731]
        info = dpconv.mechanisms._wr_loss_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_arrays_are_read_only(self):
        table = dpconv.mechanisms._wr_loss_table(WR_WIDE, 12.0)
        weights = dpconv.mechanisms._wr_log_weights(WR_WIDE)
        assert dpconv.mechanisms._wr_loss_table(WR_WIDE, 12.0) is table
        for array in (*table, *weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("kind", ["random", "asymmetric"])
    def test_rank_mirror_matches_a_binary_search(self, kind):
        # The rank index of each |s| is where a binary search among the
        # distinct |s| finds it, so the mirror keeps every bit: on random s
        # with repeated magnitudes, +-0.0 and +-1e-300 (in three chunks of
        # the mirror), and on the asymmetric L = 7.3, n = 1000 grid.
        if kind == "random":
            s = np.random.default_rng(3).uniform(-9.0, 9.0, 9000)
            s[::3] = -s[1::3]
            s[2::3] = s[1::3]
            s = np.append(s, [0.0, -0.0, 0.0, 1e-300, -1e-300])
        else:
            s = Grid(half_width=7.3, size=1000).points()
        index, t, slope, lse_up, lse_down = dpconv.mechanisms._wr_solve(WR_WIDE, s)
        reach = np.unique(np.abs(s))
        at = np.searchsorted(reach, np.abs(s))
        assert index.dtype == np.int32 and t.size == reach.size
        np.testing.assert_array_equal(index, at)
        for plus, minus in ((t, -t), (lse_up, lse_down)):
            want = np.where(np.signbit(s), minus[at], plus[at])
            assert dpconv.mechanisms._wr_mirror(s, index, plus, minus).tobytes() == want.tobytes()

    def test_hermite_coefficients_meet_the_interpolation_conditions(self):
        # p(u) = sum_k a_k u^k with a = _HERMITE_QUINTIC @ data matches
        # p(1) - p(0), p'(0), p'(1), p''(0) and p''(1), on each unit datum.
        for data in np.eye(5):
            p = np.polynomial.Polynomial(np.r_[0.0, dpconv.mechanisms._HERMITE_QUINTIC @ data])
            got = [p(1.0), p.deriv()(0.0), p.deriv()(1.0), p.deriv(2)(0.0), p.deriv(2)(1.0)]
            np.testing.assert_allclose(got, data, atol=1e-14)

    @pytest.mark.parametrize("half_width, size", [(12.0, 2 ** 14), (20.0, 2 ** 16)])
    @pytest.mark.parametrize("batch_size", [1, 64, 256])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 5.0])
    def test_start_converges_on_the_first_row_almost_everywhere(
        self, monkeypatch, fresh_wr_tables, sigma, batch_size, half_width, size
    ):
        # The quintic start meets the tolerance at about 94% of the
        # magnitudes or more on each of these grids (1.00-1.06 rows each,
        # measured). Every accepted t is checked again by a kernel call of
        # its own.
        spec = MechanismSpec(
            sigma=sigma,
            scheme=Scheme.WITH_REPLACEMENT,
            batch_size=batch_size,
            dataset_size=100 * batch_size,
        )
        s = Grid(half_width=half_width, size=size).points()
        rows = []
        kernel = dpconv.mechanisms._wr_kernel
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: rows.append(t.size) or kernel(spec, t)
        )
        dpconv.mechanisms._wr_loss_table(spec, half_width)
        table_rows = sum(rows)
        rows.clear()
        clear_wr_caches()
        t = dpconv.mechanisms._wr_solve(spec, s)[1]
        reach = np.unique(np.abs(s))
        assert sum(rows) - table_rows <= 1.1 * reach.size
        assert np.max(np.abs(kernel(spec, t)[0] - reach)) <= 1e-13


def exact_with_replacement(spec):
    """The exact loss of the binomial mixture, its slope and f_X, as one
    function of an mpmath t, from mpmath's binomial coefficients (no kernel)."""
    m, sigma = spec.batch_size, mpmath.mpf(spec.sigma)
    p = mpmath.mpf(1) / spec.dataset_size
    weights = [mpmath.binomial(m, ell) * p ** ell * (1 - p) ** (m - ell) for ell in range(m + 1)]

    def at(t):
        sides = []
        for sign in (1, -1):
            terms = [w * mpmath.exp(-(t - sign * ell) ** 2 / (2 * sigma ** 2))
                     for ell, w in enumerate(weights)]
            value = mpmath.fsum(terms)
            slope = mpmath.fsum(-(t - sign * ell) * term for ell, term in enumerate(terms))
            sides.append((value, slope / (sigma ** 2 * value)))
        (fx, dx), (fy, dy) = sides
        return mpmath.log(fx / fy), dx - dy, fx / (sigma * mpmath.sqrt(2 * mpmath.pi))

    return at


class TestWithReplacementAgainstMpmath:
    S = np.array([-6.0, -0.75, 0.0, 0.3, 4.5, 11.9])

    @pytest.mark.parametrize(
        "spec, density_rtol",
        [
            (WR_WIDE, 3e-13),
            (MechanismSpec(
                sigma=5.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=256, dataset_size=25600
            ), 5e-11),
            (MechanismSpec(
                sigma=0.3, scheme=Scheme.WITH_REPLACEMENT, batch_size=16, dataset_size=1600
            ), 2e-13),
        ],
        ids=["WR_WIDE", "sigma5-batch256", "sigma0.3-batch16"],
    )
    def test_inverse_and_density_match_50_digits(self, spec, density_rtol):
        # Newton stops within 1e-13 of s on the double kernel's loss, so t
        # lies within (1e-13 + the kernel's own error at t) / slope of the
        # exact root, plus rounding. The kernel's error comes from its log
        # binomial weights: 1.7e-14 for WR_WIDE, 4.9e-13 at batch_size 256.
        # The largest density errors measured are 9.1e-14, 2.1e-11 and
        # 4.7e-14 in the order of the specs; density_rtol is about twice each.
        t = loss_inverse_with_replacement(spec, self.S)
        density = pld_density_with_replacement(spec, self.S)
        kernel_loss = loss_with_replacement(spec, t)
        with mpmath.workdps(50):
            exact = exact_with_replacement(spec)
            for s, got_t, got_loss, got_density in zip(self.S, t, kernel_loss, density):
                # Newton's method in 50 digits, from sigma^2 s: the loss is
                # increasing, so the point where it meets s is the root.
                root = mpmath.mpf(spec.sigma ** 2 * s)
                for _ in range(100):
                    loss, slope, f_x = exact(root)
                    if abs(loss - s) <= mpmath.mpf(10) ** -45:
                        break
                    root -= (loss - s) / slope
                else:
                    pytest.fail(f"the 50-digit root at s = {s} did not converge")
                kernel_error = abs(got_loss - exact(mpmath.mpf(got_t))[0])
                assert kernel_error <= 1e-12
                budget = (1e-13 + kernel_error) / slope + 4 * np.spacing(abs(got_t))
                assert abs(got_t - root) <= budget, s
                assert abs(got_density / (f_x / slope) - 1) <= density_rtol, s


def full_sum_kernel(spec, t):
    """_wr_kernel's five outputs from plain max-shifted sums over every ell,
    with each variance summed about its mean, and the scale of the kernel's
    curvature error, (E_up[ell^2] + E_down[ell^2] + 1) / sigma^4: the
    kernel's E[ell^2] - E[ell]^2 rounds relative to E[ell^2], and the terms
    its window leaves out move each E[ell^2] by at most batch_size 2^-60."""
    ell, log_coeff = dpconv.mechanisms._wr_log_weights(spec)
    inv_var = 1.0 / (spec.sigma * spec.sigma)
    sides = []
    with np.errstate(all="ignore"):
        for x in (t * inv_var, -(t * inv_var)):
            exponents = log_coeff + np.multiply.outer(x, ell)
            peak = exponents.max(axis=1)
            peak[~np.isfinite(peak)] = 0.0
            weights = np.exp(exponents - peak[:, None])
            total = weights.sum(axis=1)
            mean = (weights @ ell) / total
            variance = (weights * np.square(ell - mean[:, None])).sum(axis=1) / total
            square = (weights @ np.square(ell)) / total
            sides.append((peak + np.log(total), mean, variance, square))
        (up, up_mean, up_var, up_sq), (down, down_mean, down_var, down_sq) = sides
        curvature = (up_var - down_var) * inv_var * inv_var
        scale = (up_sq + down_sq + 1.0) * inv_var * inv_var
    return (up - down, (up_mean + down_mean) * inv_var, curvature, up, down), scale


class TestKernelWindow:
    T = np.concatenate((
        np.linspace(0.0, 60.0, 301),
        -np.linspace(0.0, 60.0, 301),
        [1e-300, -1e-300, 1e4, -1e4, 1e308, -1e308],
    ))

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("batch_size", [1, 64, 256, 1000])
    def test_matches_the_full_sum_within_eight_ulp(
        self, monkeypatch, fresh_wr_tables, batch_size, sigma
    ):
        # Chunks of three neighbouring t give each chunk its own narrow
        # window; the last six t are chunks of their own.
        spec = MechanismSpec(
            sigma=sigma,
            scheme=Scheme.WITH_REPLACEMENT,
            batch_size=batch_size,
            dataset_size=100 * batch_size,
        )
        monkeypatch.setattr(dpconv.mechanisms, "_KERNEL_CHUNK_ROWS", 3)
        with np.errstate(all="ignore"):
            got = dpconv.mechanisms._wr_kernel(spec, self.T)
        names = ("loss", "slope", "curvature", "lse_up", "lse_down")
        reference, scale = full_sum_kernel(spec, self.T)
        for name, have, want in zip(names, got, reference):
            finite = np.isfinite(want)
            if name == "curvature":
                # Compared on full_sum_kernel's scale, where it is finite.
                finite &= np.isfinite(scale)
                assert np.all(~np.isfinite(have[~finite])), name
                ulp = np.finfo(float).eps * np.maximum(np.abs(want), scale)[finite]
            else:
                np.testing.assert_array_equal(have[~finite], want[~finite], err_msg=name)
                ulp = np.finfo(float).eps * np.maximum(1.0, np.abs(want[finite]))
            assert np.all(np.abs(have[finite] - want[finite]) <= 8 * ulp), name

    def test_sums_at_most_a_third_of_the_columns_on_a_benchmark_grid(
        self, monkeypatch, fresh_wr_tables
    ):
        rows, cells = [], []
        kernel, lse = dpconv.mechanisms._wr_kernel, dpconv.mechanisms._shifted_lse
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: rows.append(t.size) or kernel(spec, t)
        )
        monkeypatch.setattr(
            dpconv.mechanisms, "_shifted_lse", lambda e, ell: cells.append(e.size) or lse(e, ell)
        )
        pld_density_with_replacement(WR_WIDE, Grid(half_width=12.0, size=2 ** 14).points())
        assert sum(cells) <= sum(rows) * 2 * (WR_WIDE.batch_size + 1) / 3


def test_pld_density_dispatch():
    edge = math.log1p(-0.01)
    assert POISSON.support == (edge, math.inf)
    assert MechanismSpec(sigma=1.5, q=1.0).support == (-math.inf, math.inf)
    assert WOR.support == WR.support == (-math.inf, math.inf)
    assert POISSON.density(0.3) == pld_density_poisson(POISSON, 0.3)
    assert WOR.density(0.3) == pld_density_without_replacement(WOR, 0.3)
    assert WR.density(0.3) == pld_density_with_replacement(WR, 0.3)
    # A self-dual spec ignores the direction; a Poisson one mirrors.
    assert WOR.density(0.3, Direction.Y_OVER_X) == WOR.density(0.3)
    assert WR.density(0.3, Direction.Y_OVER_X) == WR.density(0.3)
    assert POISSON.density(0.3, Direction.Y_OVER_X) == 0.0
    assert POISSON.density(-0.3, Direction.Y_OVER_X) == math.exp(-0.3) * POISSON.density(0.3)
    # A direction's value is not a Direction: read as one, "x-over-y" would
    # not be X_OVER_Y and would give the mirrored density.
    for spec in (POISSON, WOR, WR):
        with pytest.raises(DomainError, match="direction must be a Direction, got 'x-over-y'"):
            spec.density(0.3, "x-over-y")


X, Y = Direction.X_OVER_Y, Direction.Y_OVER_X
# (spec, direction) pairs.
INFINITE_S_SPECS = [
    (POISSON, X),
    (POISSON, Y),
    (MechanismSpec(sigma=1.5, q=1.0), X),
    (MechanismSpec(sigma=1.5, q=1.0), Y),
    (WOR, X),
    (MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=1.0), X),
    # c = q exp(-1/(2 sigma^2)) underflows, so every point takes the log form.
    (MechanismSpec(sigma=0.03, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.01), X),
]


@pytest.mark.parametrize("s", [math.inf, -math.inf])
@pytest.mark.parametrize(
    "oriented",
    INFINITE_S_SPECS,
    ids=lambda o: f"{o[0].scheme.value}-q{o[0].q:g}-s{o[0].sigma:g}-{o[1].value}",
)
def test_density_is_zero_at_infinite_loss(oriented, s):
    # Under the suite's error::RuntimeWarning, inf / inf or inf * 0 would fail.
    spec, direction = oriented
    assert spec.density(s, direction) == 0.0
    values = spec.density(np.array([s, 0.001, s]), direction)
    assert values[0] == values[2] == 0.0 and values[1] == spec.density(0.001, direction)


def test_density_calls_the_formula_the_module_holds_now(monkeypatch):
    # A wrapper put in dpconv.mechanisms' namespace (as a profiler's hooks
    # do) must see every density evaluation.
    calls = []
    formula = dpconv.mechanisms.pld_density_poisson
    monkeypatch.setattr(
        dpconv.mechanisms,
        "pld_density_poisson",
        lambda spec, s: calls.append(spec) or formula(spec, s),
    )
    POISSON.density(np.array([0.1, 0.2]))
    assert calls == [POISSON]


FORMULAS = [
    (pld_density_poisson, POISSON, np.linspace(-0.5, 6.0, 4)),
    (loss_poisson, POISSON, np.linspace(-3.0, 3.0, 4)),
    (loss_inverse_poisson, POISSON, np.linspace(-0.005, 6.0, 4)),
    (pld_density_without_replacement, WOR, np.linspace(-6.0, 6.0, 4)),
    (loss_without_replacement, WOR, np.linspace(-3.0, 3.0, 4)),
    (loss_inverse_without_replacement, WOR, np.linspace(-6.0, 6.0, 4)),
    (pld_density_with_replacement, WR, np.linspace(-6.0, 6.0, 4)),
    (loss_with_replacement, WR, np.linspace(-3.0, 3.0, 4)),
    (loss_inverse_with_replacement, WR, np.linspace(-6.0, 6.0, 4)),
]


@pytest.mark.parametrize(
    "formula, spec, points", FORMULAS, ids=[formula.__name__ for formula, *_ in FORMULAS]
)
def test_formulas_take_scalars_and_arrays_of_any_shape(formula, spec, points):
    flat = formula(spec, points)
    assert isinstance(flat, np.ndarray) and flat.shape == (4,)
    square = formula(spec, points.reshape(2, 2))
    assert square.shape == (2, 2) and np.array_equal(square.ravel(), flat)
    scalars = [formula(spec, float(x)) for x in points]
    assert all(type(value) is float for value in scalars)
    assert formula(spec, [float(x) for x in points]).tolist() == flat.tolist()
    assert formula.__module__ == "dpconv.mechanisms"
    assert getattr(dpconv.mechanisms, formula.__name__) is formula
