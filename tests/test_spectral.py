"""Transforms and the convolution kernel, checked against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from dpconv import (
    Grid,
    GridMismatchError,
    MechanismSpec,
    Scheme,
    SpectralResidueError,
    convolution_power,
    convolution_product,
    dft,
    discretize,
    half_swap,
    inverse_dft,
)
from dpconv.oracle import direct_dft, direct_inverse_dft
from dpconv.spectral import _spectrum_power

SPEC = MechanismSpec(sigma=1.5, q=0.01)


def poisson_pld(size=2048, half_width=12.0, sigma=1.5, q=0.01):
    return discretize(MechanismSpec(sigma=sigma, q=q), Grid(half_width=half_width, size=size))


class TestTransforms:
    def test_impulse_to_constant(self):
        np.testing.assert_allclose(dft(np.array([1.0, 0, 0, 0])), np.ones(4), atol=1e-15)

    def test_constant_to_dc(self):
        np.testing.assert_allclose(dft(np.ones(4)), [4.0, 0, 0, 0], atol=1e-14)

    def test_inverse_of_dc(self):
        np.testing.assert_allclose(inverse_dft(np.array([4.0, 0, 0, 0])), np.ones(4), atol=1e-14)

    def test_round_trip(self):
        v = np.random.default_rng(1).normal(size=1024)
        np.testing.assert_allclose(inverse_dft(dft(v)), v, atol=1e-12)

    def test_non_power_of_two_matches_direct_sum(self):
        v = np.random.default_rng(2).normal(size=1000)
        got = dft(v)
        want = direct_dft(v)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(inverse_dft(got), direct_inverse_dft(want), atol=1e-12)

    def test_parseval(self):
        v = np.random.default_rng(4).normal(size=512)
        spectrum = dft(v)
        assert np.sum(np.abs(v) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2) / len(v), rel=1e-10
        )


class TestConvolutionPower:
    def test_identity_at_k_one(self):
        # Round-off is absolute at the density's scale, so the 1e-12 agreement
        # is in max-norm; deep-tail samples near 1e-130 have no relative digits
        # to preserve through a transform round trip.
        pld = poisson_pld()
        conv = convolution_power(pld, 1)
        scale = float(np.max(pld.samples))
        assert np.max(np.abs(conv.samples - pld.samples)) <= 1e-12 * scale

    def test_boxcar_self_convolution_stays_flat(self):
        grid = Grid(half_width=6.0, size=256)
        from dpconv.discretization import DiscretePld

        flat = DiscretePld(grid=grid, samples=np.full(256, 1.0 / 12.0), spec=None)
        conv = convolution_power(flat, 2)
        np.testing.assert_allclose(conv.samples, 1.0 / 12.0, rtol=1e-12)

    def test_mass_preserved_under_powers(self):
        pld = poisson_pld(size=4096)
        for k in (2, 7, 32):
            conv = convolution_power(pld, k)
            assert conv.mass == pytest.approx(pld.mass ** k, rel=1e-9)

    def test_rejects_bad_k(self):
        with pytest.raises(Exception):
            convolution_power(poisson_pld(size=64), 0)

    def test_residue_guard_trips_on_asymmetric_spectrum(self):
        # Real inputs keep their spectra conjugate-symmetric under elementwise
        # powers, so the guard is exercised on a hand-broken spectrum instead.
        from dpconv.spectral import _finish

        spectrum = np.zeros(8, dtype=complex)
        spectrum[1] = 1.0
        with pytest.raises(SpectralResidueError):
            _finish(spectrum, Grid(half_width=4.0, size=8), 1)

    def test_spectrum_power_matches_builtin(self):
        rng = np.random.default_rng(9)
        radius = rng.uniform(0.2, 1.0, size=33)
        z = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=33))
        for k in (1, 2, 13, 1024):
            np.testing.assert_allclose(_spectrum_power(z, k), z ** k, rtol=1e-10, atol=1e-300)

    def test_in_place_power_matches_out_of_place_loop_bitwise(self):
        def out_of_place(spectrum, k):
            result, base = None, spectrum
            while k:
                if k & 1:
                    result = base.copy() if result is None else result * base
                k >>= 1
                if k:
                    base = base * base
            return result

        samples = poisson_pld(size=4096).samples
        spectrum = np.fft.fft(half_swap(samples) / samples.sum())
        before = spectrum.copy()
        for k in (1, 2, 3, 10_000):
            powered = _spectrum_power(spectrum, k)
            assert np.array_equal(spectrum, before)
            assert powered is not spectrum
            assert np.array_equal(powered, out_of_place(before, k))


class TestConvolutionProduct:
    def test_pair_equals_power(self):
        pld = poisson_pld()
        prod = convolution_product([pld, pld])
        power = convolution_power(pld, 2)
        np.testing.assert_allclose(prod.samples, power.samples, atol=1e-12)
        assert prod.k == 2

    def test_singleton_is_identity(self):
        pld = poisson_pld()
        prod = convolution_product([pld])
        np.testing.assert_allclose(prod.samples, pld.samples, atol=1e-12)

    def test_commutative(self):
        a = poisson_pld(sigma=1.5, q=0.01)
        b = poisson_pld(sigma=2.0, q=0.02)
        ab = convolution_product([a, b]).samples
        ba = convolution_product([b, a]).samples
        np.testing.assert_array_equal(ab, ba)

    def test_counts_expand_to_repetition(self):
        pld = poisson_pld(size=512)
        with_counts = convolution_product([pld], counts=[3])
        repeated = convolution_power(pld, 3)
        np.testing.assert_allclose(with_counts.samples, repeated.samples, atol=1e-13)

    def test_grid_mismatch_rejected(self):
        a = poisson_pld(size=512)
        b = poisson_pld(size=1024)
        with pytest.raises(GridMismatchError):
            convolution_product([a, b])

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            convolution_product([])


def test_two_fold_poisson_matches_quadratic_oracle():
    """FFT route against the O(n^2) periodic convolution at n=2048."""
    from dpconv.oracle import direct_convolution_combine

    pld = poisson_pld(size=2048)
    fast = convolution_power(pld, 2)
    slow = direct_convolution_combine(pld, pld)
    scale = np.max(np.abs(slow.samples))
    np.testing.assert_allclose(fast.samples / scale, slow.samples / scale, atol=1e-10)


def test_heterogeneous_pair_matches_quadratic_oracle():
    from dpconv.oracle import direct_convolution_combine

    a = poisson_pld(size=2048, sigma=1.5, q=0.01)
    b = poisson_pld(size=2048, sigma=2.0, q=0.02)
    fast = convolution_product([a, b])
    slow = direct_convolution_combine(a, b)
    scale = np.max(np.abs(slow.samples))
    np.testing.assert_allclose(fast.samples / scale, slow.samples / scale, atol=1e-10)
