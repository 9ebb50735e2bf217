from __future__ import annotations

import math

import numpy as np
import pytest

from dpconv import (
    ConvolvedPld,
    Direction,
    DomainError,
    Grid,
    GridTooSmallError,
    MechanismSpec,
    Scheme,
    discretize,
    pld_density,
    pld_density_poisson,
)
from dpconv.discretization import Sampler, half_swap

SPEC = MechanismSpec(sigma=1.5, q=0.01)


class TestGrid:
    def test_points_layout(self):
        grid = Grid(half_width=4.0, size=8)
        np.testing.assert_allclose(grid.points(), np.arange(-4.0, 4.0, 1.0))
        assert grid.dx == 1.0
        assert grid.points()[grid.size // 2] == 0.0

    def test_rejects_odd_or_tiny_size(self):
        with pytest.raises(DomainError):
            Grid(half_width=4.0, size=7)
        with pytest.raises(DomainError):
            Grid(half_width=4.0, size=0)

    def test_rejects_bad_half_width(self):
        with pytest.raises(DomainError):
            Grid(half_width=0.0, size=8)
        with pytest.raises(DomainError):
            Grid(half_width=math.inf, size=8)

    @pytest.mark.parametrize("half_width, size", [(1e308, 1024), (5e-324, 8)])
    def test_rejects_spacing_that_is_not_a_positive_finite_float(self, half_width, size):
        # 2 L overflows to inf in the first case; 2 L / n underflows to 0 in the second.
        with pytest.raises(DomainError, match="grid spacing"):
            Grid(half_width=half_width, size=size)

    def test_rejects_half_width_where_exp_overflows(self):
        assert Grid(half_width=700.0, size=8).half_width == 700.0
        with pytest.raises(DomainError, match="at most 700"):
            Grid(half_width=700.5, size=8)

    def test_refine_reproduces_even_indices(self):
        grid = Grid(half_width=12.0, size=64)
        fine = grid.refine()
        assert fine.size == 128
        np.testing.assert_array_equal(fine.points()[::2], grid.points())

    @pytest.mark.parametrize("half_width, size", [(4.0, 8), (12.0, 2 ** 16), (0.3, 50_000)])
    def test_index_and_tail_points_match_the_full_grid(self, half_width, size):
        grid = Grid(half_width=half_width, size=size)
        points = grid.points()
        rng = np.random.default_rng(size)
        chosen = [0, 1, size // 2 - 1, size // 2, size - 1, *rng.integers(0, size, 20)]
        for i in chosen:
            np.testing.assert_array_equal(grid.points(i), points[i:])
            np.testing.assert_array_equal(grid.points(0, i), points[:i])
            p = float(points[i])
            for x in (p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)):
                for side in ("left", "right"):
                    assert grid.index(x, side) == int(np.searchsorted(points, x, side=side))
        for x in (-math.inf, -2 * half_width, 2 * half_width, math.inf):
            for side in ("left", "right"):
                assert grid.index(x, side) == int(np.searchsorted(points, x, side=side))


class TestHalfSwap:
    def test_definition(self):
        np.testing.assert_array_equal(
            half_swap(np.array([1.0, 2.0, 3.0, 4.0])), [3.0, 4.0, 1.0, 2.0]
        )

    def test_involution(self):
        v = np.random.default_rng(0).normal(size=1024)
        np.testing.assert_array_equal(half_swap(half_swap(v)), v)

    def test_zeros(self):
        np.testing.assert_array_equal(half_swap(np.zeros(6)), np.zeros(6))

    def test_odd_length_rejected(self):
        with pytest.raises(DomainError):
            half_swap(np.zeros(5))

    def test_permutation(self):
        v = np.arange(10.0)
        assert sorted(half_swap(v)) == sorted(v)


class TestDiscretize:
    def test_below_support_is_zero(self):
        grid = Grid(half_width=4.0, size=8)
        pld = discretize(SPEC, grid)
        assert pld.samples[0] == 0.0
        assert pld.samples[0] == pld_density_poisson(SPEC, -4.0)

    def test_origin_index(self):
        grid = Grid(half_width=12.0, size=16)
        pld = discretize(SPEC, grid)
        assert pld.samples[8] == pld_density_poisson(SPEC, 0.0)

    def test_refinement_reproduces_samples(self):
        grid = Grid(half_width=12.0, size=256)
        coarse = discretize(SPEC, grid).samples
        fine = discretize(SPEC, grid.refine()).samples
        np.testing.assert_array_equal(fine[::2], coarse)

    def test_mass_property(self):
        grid = Grid(half_width=12.0, size=2 ** 16)
        pld = discretize(SPEC, grid)
        assert pld.mass == pytest.approx(1.0, abs=1e-7)
        assert np.all(pld.samples >= 0.0)

    def test_truncation_radius_must_cover_left_edge(self):
        # log(1 - 0.9) = -2.30..., so L=2 cuts into the support.
        wide = MechanismSpec(sigma=1.0, q=0.9)
        with pytest.raises(GridTooSmallError):
            discretize(wide, Grid(half_width=2.0, size=64))

    def test_truncation_radius_must_cover_right_edge_mirrored(self):
        wide = MechanismSpec(sigma=1.0, q=0.9, direction=Direction.Y_OVER_X)
        with pytest.raises(GridTooSmallError):
            discretize(wide, Grid(half_width=2.0, size=64))

    def test_q_one_has_unbounded_support(self):
        gauss = MechanismSpec(sigma=1.0, q=1.0)
        discretize(gauss, Grid(half_width=2.0, size=64))

    def test_returns_a_one_fold_density(self):
        pld = discretize(SPEC, Grid(half_width=12.0, size=32))
        assert isinstance(pld, ConvolvedPld)
        assert pld.k == 1


WOR = MechanismSpec(sigma=1.5, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)
WR = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400)
BLOCKED_SPECS = [SPEC, SPEC.with_direction(Direction.Y_OVER_X), WOR, WR]


class TestBlockedSampling:
    @pytest.mark.parametrize("spec", BLOCKED_SPECS, ids=lambda s: s.scheme.value)
    @pytest.mark.parametrize("size", [8, 2 ** 14 + 2, 2 ** 15 + 6])
    def test_blocks_equal_one_call_over_the_grid(self, spec, size):
        grid = Grid(half_width=12.0, size=size)
        whole = pld_density(spec)(grid.points())
        assert np.array_equal(discretize(spec, grid).samples, whole)

    def test_compare_is_the_byte_order_of_the_samples(self):
        grid = Grid(half_width=12.0, size=2 ** 14 + 2)
        specs = [*BLOCKED_SPECS, MechanismSpec(sigma=2.0, q=0.02), SPEC]
        samplers = [(Sampler(spec, grid), discretize(spec, grid).samples) for spec in specs]
        for a, x in samplers:
            for b, y in samplers:
                want = (x.tobytes() > y.tobytes()) - (x.tobytes() < y.tobytes())
                assert a.compare(b) == want
