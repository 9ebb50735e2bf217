"""Cross-checks between the production pipeline and the slow reference paths."""

from __future__ import annotations

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
    delta_of_epsilon,
    epsilon_of_delta,
)
from dpconv.oracle import (
    bisection_epsilon,
    direct_convolution_delta,
    direct_dft,
    direct_inverse_dft,
    gaussian_mechanism_delta,
)

SPEC = MechanismSpec(sigma=1.5, q=0.01)
GRID = Grid(half_width=12.0, size=4096)
# The sharply peaked PLD needs a much denser lattice once k is in the
# hundreds; mass errors compound as mass**k.
FINE = Grid(half_width=12.0, size=2 ** 16)


class TestDirectTransforms:
    def test_matches_fast_path(self):
        v = np.random.default_rng(6).normal(size=256)
        np.testing.assert_allclose(direct_dft(v), np.fft.fft(v), atol=1e-10)
        np.testing.assert_allclose(direct_inverse_dft(np.fft.fft(v)), v, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            direct_dft(np.zeros(10000))


class TestDirectConvolutionDelta:
    def test_k_one_equals_accountant(self):
        fast = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 1, GRID, epsilon=1.0)).value
        slow = direct_convolution_delta(SPEC, 1, GRID, 1.0)
        assert abs(fast - slow) <= 1e-14

    def test_k_two_cross_path_agreement(self):
        fast = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 2, GRID, epsilon=1.0)).value
        slow = direct_convolution_delta(SPEC, 2, GRID, 1.0)
        assert slow == pytest.approx(fast, rel=1e-10)

    def test_direction_swap_invariance_for_substitute(self):
        spec = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.1)
        grid = Grid(half_width=15.0, size=2048)
        fwd = direct_convolution_delta(spec, 2, grid, 0.5)
        rev = direct_convolution_delta(
            spec.with_direction(Direction.Y_OVER_X), 2, grid, 0.5
        )
        assert fwd == rev

    def test_k_guard(self):
        with pytest.raises(DomainError):
            direct_convolution_delta(SPEC, 4, GRID, 1.0)

    def test_size_guard(self):
        big = Grid(half_width=12.0, size=2 ** 14)
        with pytest.raises(DomainError):
            direct_convolution_delta(SPEC, 2, big, 1.0)


class TestGaussianMechanismDelta:
    def test_zero_epsilon_single_shot(self):
        # Phi(1/2) - Phi(-1/2) through the closed form.
        assert gaussian_mechanism_delta(1.0, 1, 0.0) == pytest.approx(
            0.3829249225480262, abs=1e-12
        )

    def test_infinite_noise_leaks_nothing(self):
        assert gaussian_mechanism_delta(1e9, 1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_composition_scaling(self):
        # k compositions of scale sigma equal one mechanism at sigma/sqrt(k).
        assert gaussian_mechanism_delta(2.0, 4, 1.0) == pytest.approx(
            gaussian_mechanism_delta(1.0, 1, 1.0), rel=1e-12
        )

    def test_pipeline_agreement_at_q_one(self):
        grid = Grid(half_width=30.0, size=2 ** 18)
        spec = MechanismSpec(sigma=1.5, q=1.0)
        fast = delta_of_epsilon(CompositionQuery.homogeneous(spec, 10, grid, epsilon=1.0)).value
        exact = gaussian_mechanism_delta(1.5, 10, 1.0)
        assert abs(fast - exact) <= 1e-7


@pytest.mark.parametrize(
    "call",
    [
        lambda: direct_convolution_delta(SPEC, 2, Grid(half_width=12.0, size=1024), math.nan),
        lambda: gaussian_mechanism_delta(1.0, 1, math.nan),
        lambda: gaussian_mechanism_delta(math.nan, 1, 1.0),
        lambda: bisection_epsilon(SPEC, 2, GRID, math.nan),
    ],
    ids=["direct-epsilon", "gaussian-epsilon", "gaussian-sigma", "bisection-delta"],
)
def test_nan_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


class TestBisectionEpsilon:
    def test_self_consistency(self):
        target = delta_of_epsilon(
            CompositionQuery.homogeneous(SPEC, 1000, FINE, epsilon=1.0)
        ).value
        got = bisection_epsilon(SPEC, 1000, FINE, target)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_target_at_zero_returns_zero(self):
        d0 = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 100, FINE, epsilon=0.0)).value
        assert bisection_epsilon(SPEC, 100, FINE, d0) == 0.0

    def test_unreachable_target_rejected(self):
        with pytest.raises(DomainError):
            bisection_epsilon(SPEC, 100, FINE, 0.9999)

    def test_agreement_with_newton(self):
        rng = np.random.default_rng(17)
        d0 = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 500, FINE, epsilon=0.0)).value
        targets = np.exp(rng.uniform(math.log(1e-7), math.log(d0 / 2), size=5))
        for target in targets:
            newton = epsilon_of_delta(
                CompositionQuery.homogeneous(SPEC, 500, FINE, delta=float(target))
            ).value
            bisect = bisection_epsilon(SPEC, 500, FINE, float(target))
            assert abs(newton - bisect) <= 2e-6
