from __future__ import annotations

import math

import numpy as np
import pytest

from dpconv import (
    CompositionQuery,
    ConvolvedPld,
    Direction,
    DomainError,
    Grid,
    GridTooSmallError,
    MechanismSpec,
    Scheme,
    delta_of_epsilon,
    discretize,
)
from dpconv.accountant import convolutions
from dpconv.discretization import blocks, edge_mass, samples
from dpconv.mechanisms import pld_density_poisson

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

    @pytest.mark.parametrize("size", [4096.0, True], ids=["float", "bool"])
    def test_rejects_a_size_that_is_not_an_integer(self, size):
        # A float size once constructed and then failed in numpy with a
        # TypeError, not an AccountingError. A bool is an int, but no count.
        with pytest.raises(DomainError, match=f"size must be an integer, got {size!r}"):
            Grid(half_width=12.0, size=size)

    def test_a_numpy_integer_size_works(self):
        plain = CompositionQuery.homogeneous(SPEC, 10, Grid(12.0, 4096), epsilon=1.0)
        numpy = CompositionQuery.homogeneous(SPEC, 10, Grid(12.0, np.int64(4096)), epsilon=1.0)
        assert delta_of_epsilon(numpy).value == delta_of_epsilon(plain).value
        # 16 n in int64 would wrap past the addressable size and pass.
        with pytest.raises(DomainError, match="too large for numpy to address"):
            Grid(half_width=12.0, size=np.int64(2 ** 62))

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

    @pytest.mark.parametrize(
        "half_width, size",
        [(4.0, 8), (12.0, 2 ** 16), (0.3, 50_000), (12.3456, 1000), (0.1, 6), (700.0, 2 ** 20),
         (3.3, 2 ** 16 + 2)],
    )
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
        for x in (-math.inf, -2 * half_width, -half_width, -0.0, 0.0, half_width, 2 * half_width,
                  math.inf):
            for side in ("left", "right"):
                assert grid.index(x, side) == int(np.searchsorted(points, x, side=side))


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
        # The y-over-x support (-inf, 2.30...) is the mirror of x-over-y's, so
        # the symmetric grid cuts both, and the x-over-y edge is named.
        wide = MechanismSpec(sigma=1.0, q=0.9)
        with pytest.raises(GridTooSmallError, match="support edge -2.30259 lies at or below"):
            discretize(wide, Grid(half_width=2.0, size=64), Direction.Y_OVER_X)

    def test_q_one_has_unbounded_support(self):
        gauss = MechanismSpec(sigma=1.0, q=1.0)
        discretize(gauss, Grid(half_width=2.0, size=64))

    def test_returns_a_one_fold_density(self):
        pld = discretize(SPEC, Grid(half_width=12.0, size=32))
        assert isinstance(pld, ConvolvedPld)

    @pytest.mark.parametrize("size", [8192, 2 ** 16, 2 ** 20])
    def test_under_resolved_density_warns(self, size):
        # The spike at s = 0 of this density is narrower than any of these
        # grids' cells, so its sampled mass is far above 1.
        spike = MechanismSpec(sigma=0.1, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)
        pld = discretize(spike, Grid(half_width=300.0, size=size))
        assert pld.mass > 1e18
        (warning,) = pld.warnings
        assert warning.startswith(f"sampled mass {pld.mass:.6g} of mechanism (sigma=0.1,")
        if size == 8192:
            # The warning changes no value: this is the quadrature value.
            assert pld.delta(1.0) == pytest.approx(0.0099999339, rel=1e-8)

    def test_resolved_density_does_not_warn(self):
        assert discretize(SPEC, Grid(half_width=12.0, size=2 ** 14)).warnings == ()

    def test_matches_the_one_fold_convolution(self):
        # At L = 2 the Gaussian's sampled mass is 0.923406: discretize and
        # the pipeline at k = 1 record the same figures and give one text.
        gauss, grid = MechanismSpec(sigma=1.0, q=1.0), Grid(half_width=2.0, size=64)
        pld = discretize(gauss, grid)
        query = CompositionQuery.homogeneous(gauss, 1, grid, directions=(Direction.X_OVER_Y,))
        ((_direction, conv),) = convolutions(query)
        assert pld.warnings == conv.warnings == (
            "composed mass 0.923406 of 1 x mechanism (sigma=1.0, scheme=poisson, q=1.0, "
            "direction=x-over-y) falls short of 1: the grid under-resolves or truncates the "
            "composition",
        )
        assert pld.factors == ((gauss, 1, Direction.X_OVER_Y, pld.mass),)
        assert pld.edge_mass == edge_mass(pld.samples, grid) > 0.03


class TestWarnings:
    """A record's warnings are a function of its recorded figures alone."""

    GRID = Grid(half_width=4.0, size=8)
    POISSON = (SPEC, 3, Direction.Y_OVER_X)
    WOR = (
        MechanismSpec(sigma=2.0, q=0.1, scheme=Scheme.WITHOUT_REPLACEMENT), 2, Direction.X_OVER_Y
    )
    NAMES = (
        "3 x mechanism (sigma=1.5, scheme=poisson, q=0.01, direction=y-over-x) + "
        "2 x mechanism (sigma=2.0, scheme=without-replacement, q=0.1)"
    )

    def record(self, masses, mass, edge=0.0):
        factors = tuple((*f, m) for f, m in zip((self.POISSON, self.WOR), masses))
        return ConvolvedPld(self.GRID, np.zeros(8), factors, mass, edge)

    def test_each_factor_over_is_named_in_factor_order(self):
        assert self.record((1.5, 1.25), 7.0, edge=0.5).warnings == (
            "sampled mass 1.5 of mechanism (sigma=1.5, scheme=poisson, q=0.01, "
            "direction=y-over-x) exceeds 1: the grid under-resolves it",
            "sampled mass 1.25 of mechanism (sigma=2.0, scheme=without-replacement, q=0.1) "
            "exceeds 1: the grid under-resolves it",
        )
        (named,) = self.record((1.0, 1.002), 1.0).warnings
        assert named.startswith("sampled mass 1.002 of mechanism (sigma=2.0,")

    def test_the_composed_mass_is_named_only_when_no_factor_is(self):
        assert self.record((1.0009, 1.0), 1.0027, edge=0.5).warnings == (
            f"composed mass 1.0027 of {self.NAMES} exceeds 1: the grid under-resolves "
            "the composition",
        )
        assert self.record((0.9, 0.95), 0.6, edge=0.5).warnings == (
            f"composed mass 0.6 of {self.NAMES} falls short of 1: the grid under-resolves or "
            "truncates the composition",
        )
        assert self.record((1.0, 1.0), 1.0009).warnings == ()

    def test_the_edge_band_is_named_only_when_the_masses_hold(self):
        assert self.record((1.0, 1.0), 1.0, edge=2e-6).warnings == (
            f"edge-band mass 2e-06 of {self.NAMES} exceeds 1e-06: the composition reaches the "
            "edge of the grid and may wrap around; increase the truncation radius",
        )
        assert self.record((1.0, 1.0), 1.0, edge=1e-6).warnings == ()

    def test_a_nan_mass_names_nothing(self):
        assert self.record((1.0, 1.0), math.nan, edge=math.nan).warnings == ()
        assert self.record((math.nan, math.nan), math.nan).warnings == ()


WOR = MechanismSpec(sigma=1.5, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)
WR = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400)
# (spec, direction) pairs: both Poisson directions and the substitute schemes.
BLOCKED_SPECS = [
    (SPEC, Direction.X_OVER_Y),
    (SPEC, Direction.Y_OVER_X),
    (WOR, Direction.X_OVER_Y),
    (WR, Direction.X_OVER_Y),
]


class TestBlockedSampling:
    @pytest.mark.parametrize("oriented", BLOCKED_SPECS, ids=lambda o: o[0].scheme.value)
    @pytest.mark.parametrize("size", [8, 2 ** 14 + 2, 2 ** 15 + 6])
    def test_blocks_equal_one_call_over_the_grid(self, oriented, size):
        spec, direction = oriented
        grid = Grid(half_width=12.0, size=size)
        whole = spec.density(grid.points(), direction)
        assert np.array_equal(discretize(spec, grid, direction).samples, whole)

    @pytest.mark.parametrize("oriented", BLOCKED_SPECS, ids=lambda o: o[0].scheme.value)
    def test_samples_evaluate_nothing_until_taken(self, oriented, monkeypatch):
        spec, direction = oriented
        grid = Grid(half_width=12.0, size=2 ** 15 + 6)
        calls = []
        density = MechanismSpec.density

        def counted(self, s, direction):
            calls.append(s.size)
            return density(self, s, direction)

        monkeypatch.setattr(MechanismSpec, "density", counted)
        generator = samples(spec, grid, direction)
        assert calls == []
        taken = list(generator)
        assert [block for block, _values in taken] == list(blocks(grid.size))
        # With replacement, one call over the whole grid; otherwise one per block.
        if spec.scheme is Scheme.WITH_REPLACEMENT:
            assert calls == [grid.size]
        else:
            assert calls == [block.stop - block.start for block in blocks(grid.size)]
        monkeypatch.undo()
        whole = np.concatenate([values for _block, values in taken])
        assert np.array_equal(whole, spec.density(grid.points(), direction))
