"""Loss functions, inverses, and PLD densities for the three subsampling schemes.

Expected values come from the closed forms evaluated independently inline, or
from quadrature checks on explicit grids.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconv import (
    Direction,
    DomainError,
    MechanismSpec,
    RootFindingError,
    Scheme,
    loss_inverse_poisson,
    loss_inverse_with_replacement,
    loss_inverse_without_replacement,
    loss_poisson,
    loss_with_replacement,
    loss_without_replacement,
    pld_density,
    pld_density_poisson,
    pld_density_with_replacement,
    pld_density_without_replacement,
)
import dpconv.mechanisms
from dpconv.discretization import Grid, discretize

POISSON = MechanismSpec(sigma=1.5, q=0.01)
WOR = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.1)
WR = MechanismSpec(sigma=2.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=5, dataset_size=100)
# The benchmark's with-replacement mechanism: 64 draws from 6400 records.
WR_WIDE = MechanismSpec(
    sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400
)


def quadrature_mass(spec, half_width, size):
    grid = Grid(half_width=half_width, size=size)
    return grid.dx * discretize(spec, grid).samples.sum()


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

    def test_accepts_q_one(self):
        # q=1 is the degenerate non-subsampled Gaussian, kept for cross-checks.
        MechanismSpec(sigma=1.0, q=1.0)

    def test_with_replacement_needs_batch_and_dataset(self):
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, q=0.1)
        with pytest.raises(DomainError):
            MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=5)
        with pytest.raises(DomainError):
            MechanismSpec(
                sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=11, dataset_size=10
            )

    def test_with_direction(self):
        flipped = POISSON.with_direction(Direction.Y_OVER_X)
        assert flipped.direction is Direction.Y_OVER_X and flipped.q == POISSON.q
        assert POISSON.with_direction(Direction.X_OVER_Y) is POISSON
        assert flipped.with_direction(Direction.X_OVER_Y) == POISSON
        # The substitute schemes have a single direction.
        assert WOR.with_direction(Direction.Y_OVER_X) is WOR
        assert WR.with_direction(Direction.Y_OVER_X) is WR

    def test_draw_probability(self):
        assert WR.draw_probability == 0.01


class TestPoissonLossInverse:
    def test_unit_log_ratio_point(self):
        # e^0 - (1-q) = q, so the log vanishes and only the +1/2 remains.
        spec = MechanismSpec(sigma=2.0, q=0.3)
        assert loss_inverse_poisson(spec, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_q_one_is_affine(self):
        spec = MechanismSpec(sigma=1.5, q=1.0)
        assert loss_inverse_poisson(spec, 2.0) == pytest.approx(5.0, abs=1e-12)

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
            math.exp(0.2) * pld_density_poisson(POISSON.with_direction(Direction.Y_OVER_X), -0.2),
            rel=1e-12,
        )

    def test_dual_relation_sampled(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(math.log(0.99) + 1e-3, 8.0, size=1000)
        fwd = pld_density_poisson(POISSON, s)
        mirrored = pld_density_poisson(POISSON.with_direction(Direction.Y_OVER_X), -s)
        np.testing.assert_allclose(fwd, np.exp(s) * mirrored, rtol=1e-12)

    def test_normalisation(self):
        assert quadrature_mass(POISSON, 12.0, 10 ** 6) == pytest.approx(1.0, abs=1e-8)

    def test_normalisation_reverse_direction(self):
        spec = POISSON.with_direction(Direction.Y_OVER_X)
        assert quadrature_mass(spec, 12.0, 10 ** 6) == pytest.approx(1.0, abs=1e-8)


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

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        # 100 rows in chunks of 7 leave a short last chunk. The row sums may
        # round differently in another memory layout, by an ulp or so.
        s = np.linspace(-9.0, 9.0, 100)
        want = pld_density_with_replacement(WR_WIDE, s)
        monkeypatch.setattr(dpconv.mechanisms, "_KERNEL_CHUNK_ROWS", 7)
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
        with pytest.raises(RootFindingError):
            fn(WR_WIDE, bad)
        with pytest.raises(RootFindingError):
            fn(WR_WIDE, np.array([0.5, bad, -1.0]))
        assert calls == []

    @pytest.mark.parametrize("spec", [WR, WR_WIDE], ids=["WR", "WR_WIDE"])
    def test_kernel_is_odd_bit_for_bit(self, spec):
        t = np.linspace(0.0, 60.0, 20_001)
        loss, slope, lse_up, lse_down = dpconv.mechanisms._wr_kernel(spec, t)
        loss_m, slope_m, lse_up_m, lse_down_m = dpconv.mechanisms._wr_kernel(spec, -t)
        np.testing.assert_array_equal(loss_m, -loss)
        np.testing.assert_array_equal(slope_m, slope)
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

    def test_each_magnitude_costs_at_most_two_kernel_rows(self, monkeypatch):
        # On the benchmark grid every |s| but 0 and 12 occurs twice, and the
        # cubic start lets each converge on its second kernel row. The rows
        # that build the loss table are counted apart and not charged.
        s = Grid(half_width=12.0, size=2 ** 14).points()
        rows = []
        kernel = dpconv.mechanisms._wr_kernel
        monkeypatch.setattr(
            dpconv.mechanisms, "_wr_kernel", lambda spec, t: rows.append(t.size) or kernel(spec, t)
        )
        dpconv.mechanisms._wr_loss_table(WR_WIDE, float(np.max(np.abs(s))))
        table_rows = sum(rows)
        rows.clear()
        pld_density_with_replacement(WR_WIDE, s)
        assert sum(rows) - table_rows <= 2 * np.unique(np.abs(s)).size


def full_sum_kernel(spec, t):
    """_wr_kernel's four outputs from plain max-shifted sums over every ell."""
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
            sides.append((peak + np.log(total), (weights @ ell) / total))
    (up, up_mean), (down, down_mean) = sides
    return up - down, (up_mean + down_mean) * inv_var, up, down


class TestKernelWindow:
    T = np.concatenate((
        np.linspace(0.0, 60.0, 301),
        -np.linspace(0.0, 60.0, 301),
        [1e-300, -1e-300, 1e4, -1e4, 1e308, -1e308],
    ))

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("batch_size", [1, 64, 256, 1000])
    def test_matches_the_full_sum_within_eight_ulp(self, monkeypatch, batch_size, sigma):
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
        names = ("loss", "slope", "lse_up", "lse_down")
        for name, have, want in zip(names, got, full_sum_kernel(spec, self.T)):
            finite = np.isfinite(want)
            np.testing.assert_array_equal(have[~finite], want[~finite], err_msg=name)
            ulp = np.finfo(float).eps * np.maximum(1.0, np.abs(want[finite]))
            assert np.all(np.abs(have[finite] - want[finite]) <= 8 * ulp), name

    def test_sums_at_most_a_third_of_the_columns_on_a_benchmark_grid(self, monkeypatch):
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
    density = pld_density(POISSON)
    assert density.support_lo == pytest.approx(math.log(0.99))
    assert density(0.3) == pytest.approx(pld_density_poisson(POISSON, 0.3), rel=1e-15)
    assert math.isinf(pld_density(WOR).support_lo)
