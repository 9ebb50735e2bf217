"""Transforms and the convolution kernel, checked against brute-force oracles."""

from __future__ import annotations

import itertools
import os
import signal
import sys
import threading

import numpy as np
import pytest
from scipy import fft

from dpconv import (
    CompositionQuery,
    Direction,
    Grid,
    MechanismSpec,
    Scheme,
    SpectralResidueError,
    discretize,
)
from dpconv import spectral
from dpconv.accountant import convolutions
from dpconv.discretization import blocks
from dpconv.spectral import (
    _factor_spectrum,
    _inverse,
    _product,
    _spectrum_power,
    convolve_factors,
)

from oracle import (
    direct_convolution_combine,
    direct_dft,
    direct_inverse_dft,
    half_swap,
)

SPEC = MechanismSpec(sigma=1.5, q=0.01)


def poisson_pld(size=2048, half_width=12.0, sigma=1.5, q=0.01):
    return discretize(MechanismSpec(sigma=sigma, q=q), Grid(half_width=half_width, size=size))


def power(size=2048, k=1, half_width=12.0):
    """The k-fold convolution of SPEC's density on one grid."""
    grid = Grid(half_width=half_width, size=size)
    return convolve_factors([(SPEC, k)], (Direction.X_OVER_Y,), grid)[0]


def convolve_samples(samples, grid, k):
    """The k-fold convolution of arbitrary samples, through the pipeline's kernel."""
    spectrum, _mass = _factor_spectrum(
        np.zeros(grid.size, dtype=complex),
        ((block, samples[block]) for block in blocks(grid.size)),
        grid.dx,
        k,
    )
    return _inverse(spectrum, np.empty(grid.size), grid)


def forward(values):
    """The pipeline's forward transform: in place on a complex buffer."""
    return fft.fft(np.array(values, dtype=complex), overwrite_x=True)


def inverse(values):
    """The pipeline's inverse transform, in place on a complex buffer."""
    return fft.ifft(np.array(values, dtype=complex), overwrite_x=True)


def power_by_squaring(spectrum, k):
    """Out-of-place repeated squaring, the reference for _spectrum_power."""
    result, base = None, spectrum
    while k:
        if k & 1:
            result = base.copy() if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


class TestTransforms:
    """The sum-convention forward and 1/n inverse transforms the pipeline uses."""

    def test_impulse_to_constant(self):
        impulse = np.array([1.0, 0, 0, 0])
        np.testing.assert_allclose(forward(impulse), np.ones(4), atol=1e-15)
        np.testing.assert_allclose(forward(impulse), direct_dft(impulse), atol=1e-15)

    def test_constant_to_dc(self):
        np.testing.assert_allclose(forward(np.ones(4)), [4.0, 0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(forward(np.ones(4)), direct_dft(np.ones(4)), atol=1e-14)

    def test_inverse_of_dc(self):
        dc = np.array([4.0, 0, 0, 0])
        np.testing.assert_allclose(inverse(dc), np.ones(4), atol=1e-14)
        np.testing.assert_allclose(inverse(dc), direct_inverse_dft(dc), atol=1e-14)

    def test_round_trip(self):
        v = np.random.default_rng(1).normal(size=1024)
        np.testing.assert_allclose(inverse(forward(v)), v, atol=1e-12)

    def test_non_power_of_two_matches_direct_sum(self):
        v = np.random.default_rng(2).normal(size=1000)
        got = forward(v)
        want = direct_dft(v)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(inverse(got), direct_inverse_dft(want), atol=1e-12)

    def test_parseval(self):
        v = np.random.default_rng(4).normal(size=512)
        spectrum = forward(v)
        assert np.sum(np.abs(v) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2) / len(v), rel=1e-10
        )
        np.testing.assert_allclose(spectrum, direct_dft(v), rtol=1e-10, atol=1e-10)

    def test_complex_buffer_matches_numpy_transform_of_real_samples_bitwise(self):
        v = np.random.default_rng(5).random(2 ** 12 + 6)
        assert np.array_equal(forward(v), np.fft.fft(v))
        assert np.array_equal(inverse(np.fft.fft(v)), np.fft.ifft(np.fft.fft(v)))


class TestConvolutionPower:
    def test_identity_at_k_one(self):
        # Round-off is absolute at the density's scale, so the 1e-12 agreement
        # is in max-norm; deep-tail samples near 1e-130 have no relative digits
        # to preserve through a transform round trip.
        pld = poisson_pld()
        conv = power(k=1)
        scale = float(np.max(pld.samples))
        assert np.max(np.abs(conv.samples - pld.samples)) <= 1e-12 * scale

    def test_boxcar_self_convolution_stays_flat(self):
        grid = Grid(half_width=6.0, size=256)
        conv = convolve_samples(np.full(256, 1.0 / 12.0), grid, 2)
        np.testing.assert_allclose(conv.samples, 1.0 / 12.0, rtol=1e-12)

    def test_mass_preserved_under_powers(self):
        pld = poisson_pld(size=4096)
        for k in (2, 7, 32):
            conv = power(size=4096, k=k)
            assert conv.mass == pytest.approx(pld.mass ** k, rel=1e-9)

    def test_residue_guard_trips_on_asymmetric_spectrum(self):
        # Real inputs keep their spectra conjugate-symmetric under elementwise
        # powers, so the guard is exercised on a hand-broken spectrum instead.
        spectrum = np.zeros(8, dtype=complex)
        spectrum[1] = 1.0
        with pytest.raises(SpectralResidueError):
            _inverse(spectrum, np.empty(8), Grid(half_width=4.0, size=8))

    def test_non_finite_density_is_an_error_not_a_nan(self):
        pld = poisson_pld(size=64)
        pld.samples[5] = np.nan
        with pytest.raises(SpectralResidueError, match="not finite"):
            convolve_samples(pld.samples, pld.grid, 3)

    def test_overflowing_power_and_product_reach_the_finite_check_silently(self):
        # On a grid that under-resolves a density, spectral entries can exceed
        # modulus one. Their powers and products overflow with no warning (the
        # suite turns warnings into errors), and _inverse reports the result.
        big = np.full(8, 1e200 + 0j)
        assert not np.isfinite(_spectrum_power(big, 3)).any()
        product = _product([big.copy(), big.copy()], [True, True])
        assert not np.isfinite(product).any()
        with pytest.raises(SpectralResidueError, match="not finite"):
            _inverse(product, np.empty(8), Grid(half_width=4.0, size=8))

    def test_spectrum_power_matches_builtin(self):
        rng = np.random.default_rng(9)
        radius = rng.uniform(0.2, 1.0, size=33)
        z = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=33))
        for k in (1, 2, 13, 1024):
            np.testing.assert_allclose(_spectrum_power(z, k), z ** k, rtol=1e-10, atol=1e-300)

    def test_in_place_power_matches_out_of_place_loop_bitwise(self):
        samples = poisson_pld(size=4096).samples
        spectrum = np.fft.fft(half_swap(samples) / samples.sum())
        before = spectrum.copy()
        for k in (1, 2, 3, 10_000):
            powered = _spectrum_power(spectrum, k)
            assert np.array_equal(spectrum, before)
            assert powered is not spectrum
            assert np.array_equal(powered, power_by_squaring(before, k))


class TestConvolutionProduct:
    def test_pair_equals_power(self):
        grid = Grid(half_width=12.0, size=2048)
        prod = convolve_factors([(SPEC, 1), (SPEC, 1)], (Direction.X_OVER_Y,), grid)[0]
        np.testing.assert_allclose(prod.samples, power(k=2).samples, atol=1e-12)

    def test_counts_expand_to_repetition(self):
        grid = Grid(half_width=12.0, size=512)
        split = convolve_factors([(SPEC, 2), (SPEC, 1)], (Direction.X_OVER_Y,), grid)[0]
        np.testing.assert_allclose(split.samples, power(size=512, k=3).samples, atol=1e-13)


def test_two_fold_poisson_matches_quadratic_oracle():
    """FFT route against the O(n^2) periodic convolution at n=2048."""
    pld = poisson_pld(size=2048)
    fast = power(k=2)
    slow = direct_convolution_combine(pld, pld)
    scale = np.max(np.abs(slow.samples))
    np.testing.assert_allclose(fast.samples / scale, slow.samples / scale, atol=1e-10)


def test_heterogeneous_pair_matches_quadratic_oracle():
    a = poisson_pld(size=2048, sigma=1.5, q=0.01)
    b = poisson_pld(size=2048, sigma=2.0, q=0.02)
    other = MechanismSpec(sigma=2.0, q=0.02)
    fast = convolve_factors([(SPEC, 1), (other, 1)], (Direction.X_OVER_Y,), a.grid)[0]
    slow = direct_convolution_combine(a, b)
    scale = np.max(np.abs(slow.samples))
    np.testing.assert_allclose(fast.samples / scale, slow.samples / scale, atol=1e-10)


def referenceconvolutions(query):
    """Each needed direction's convolved density by the direct formula.

    Every factor is sampled over the full grid in one call, transformed by
    numpy as a real array and powered by squaring; the spectra multiply in
    the order of the (spec, count) factors' reprs, starting from ones.
    """
    grid = query.grid
    groups = {}
    for spec, count in zip(query.specs, query.counts):
        groups[spec] = groups.get(spec, 0) + count
    convolutions = []
    for direction in query.evaluated_directions:
        spectrum = np.ones(grid.size, dtype=complex)
        for spec, count in sorted(groups.items(), key=repr):
            samples = spec.density(grid.points(), direction)
            spectrum *= power_by_squaring(np.fft.fft(half_swap(samples) * grid.dx), count)
        raw = half_swap(np.fft.ifft(spectrum)).real / grid.dx
        convolutions.append(np.maximum(raw, 0.0))
    return convolutions


WOR = MechanismSpec(sigma=1.5, q=0.01, scheme=Scheme.WITHOUT_REPLACEMENT)
WR = MechanismSpec(sigma=1.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=64, dataset_size=6400)
PIPELINE_CASES = {
    # Sizes below one block, and ones that are no multiple of it.
    "poisson-8": ((SPEC,), (3,), Grid(half_width=4.0, size=8)),
    "poisson-2^14+2": ((SPEC,), (100,), Grid(half_width=12.0, size=2 ** 14 + 2)),
    "poisson-2^15+6": ((SPEC,), (10_000,), Grid(half_width=12.0, size=2 ** 15 + 6)),
    # The without-replacement factor is shared by both directions.
    "poisson+wor": ((SPEC, WOR), (50, 50), Grid(half_width=12.0, size=2 ** 15 + 6)),
    # Four Poisson factors, two per direction, put in repr order.
    "poisson+poisson": (
        (SPEC, MechanismSpec(sigma=2.0, q=0.02)), (60, 40), Grid(half_width=12.0, size=2 ** 14 + 2)
    ),
    "wor": ((WOR,), (100,), Grid(half_width=12.0, size=2 ** 14 + 2)),
    # Evaluated in one call over the grid, then split into four blocks.
    "with-replacement": ((WR,), (1000,), Grid(half_width=12.0, size=2 ** 16)),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_matches_direct_formula_bitwise(case):
    specs, counts, grid = PIPELINE_CASES[case]
    query = CompositionQuery(specs=specs, counts=counts, grid=grid)
    got = convolutions(query)
    want = referenceconvolutions(query)
    assert tuple(d for d, _conv in got) == query.evaluated_directions
    for (_direction, conv), samples in zip(got, want):
        assert np.array_equal(conv.samples, samples)


def test_factor_order_does_not_change_the_product():
    # Every order of two Poisson factors, and of one factor of each scheme.
    other = MechanismSpec(sigma=2.0, q=0.02)
    cases = [
        ([(SPEC, 6), (other, 4)], Grid(half_width=12.0, size=2 ** 14 + 2)),
        ([(SPEC, 30), (WOR, 20), (WR, 10)], Grid(half_width=12.0, size=2 ** 12)),
    ]
    for factors, grid in cases:
        results = []
        for order in itertools.permutations(factors):
            specs, counts = zip(*order)
            got = convolutions(CompositionQuery(specs=specs, counts=counts, grid=grid))
            results.append([conv.samples for _direction, conv in got])
        for result in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(result, results[0]))


class TestWorkerThreads:
    def threads(self, monkeypatch):
        """Records (stage, thread name) for every factor build and inverse transform."""
        used = []
        for stage in ("_factor_spectrum", "_inverse"):
            original = getattr(spectral, stage)

            def recorded(*args, _original=original, _stage=stage):
                used.append((_stage, threading.current_thread().name))
                return _original(*args)

            monkeypatch.setattr(spectral, stage, recorded)
        return used

    def test_single_direction_single_factor_starts_no_thread(self, monkeypatch):
        used = self.threads(monkeypatch)
        grid = Grid(half_width=12.0, size=2 ** 12)
        restricted = CompositionQuery(
            specs=(SPEC,), counts=(10,), grid=grid, directions=(Direction.X_OVER_Y,)
        )
        substitute = CompositionQuery.homogeneous(WR, 10, grid)
        for query in (restricted, substitute):
            assert len(convolutions(query)) == 1
        assert {thread for _stage, thread in used} == {threading.main_thread().name}

    def test_both_directions_run_on_the_pool(self, monkeypatch):
        used = self.threads(monkeypatch)
        query = CompositionQuery.homogeneous(SPEC, 10, Grid(half_width=12.0, size=2 ** 12))
        convolutions(query)
        first = sorted(used)
        used.clear()
        convolutions(query)
        # Two factors, then two directions; a single CPU runs both inline.
        # The threads are kept, so a second call runs on the same two.
        assert sorted(used) == first
        threads = {thread for _stage, thread in first}
        if spectral._usable_cpus() == 1:
            assert threads == {threading.main_thread().name}
        else:
            assert len(threads) == 2 and threading.main_thread().name not in threads
            stages = ("_factor_spectrum", "_inverse")
            assert first == sorted((stage, thread) for stage in stages for thread in threads)

    def test_support_checked_per_distinct_spec_before_any_buffer(self, monkeypatch):
        events = []
        check = spectral.check_support

        def recorded(spec, grid):
            events.append(("support", spec, threading.current_thread().name))
            check(spec, grid)

        zeros = np.zeros
        monkeypatch.setattr(spectral, "check_support", recorded)
        monkeypatch.setattr(
            spectral.np, "zeros", lambda *args, **kw: events.append(("buffer",)) or zeros(*args, **kw)
        )
        query = CompositionQuery(
            specs=(SPEC, WOR), counts=(5, 5), grid=Grid(half_width=12.0, size=2 ** 12)
        )
        convolutions(query)
        monkeypatch.undo()
        made = [event[1:] for event in events if event[0] == "support"]
        main = threading.current_thread().name
        # A spec's support is checked once, whichever directions are read.
        assert made == [(SPEC, main), (WOR, main)]
        assert events[2:] and all(event == ("buffer",) for event in events[2:])

    def test_heterogeneous_product_samples_no_density_in_the_caller(self, monkeypatch):
        # Ordering the factors looks at no sample, so every density,
        # the with-replacement one too, is sampled in its factor's build.
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        sampled = []
        density = MechanismSpec.density

        def recorded(self, s, direction):
            sampled.append(((self, direction), threading.current_thread().name))
            return density(self, s, direction)

        monkeypatch.setattr(MechanismSpec, "density", recorded)
        query = CompositionQuery(
            specs=(SPEC, WOR, WR), counts=(5, 5, 5), grid=Grid(half_width=12.0, size=2 ** 12)
        )
        convolutions(query)
        monkeypatch.undo()
        # The self-dual factors are sampled oriented x-over-y only.
        oriented = {(SPEC, Direction.X_OVER_Y), (SPEC, Direction.Y_OVER_X),
                    (WOR, Direction.X_OVER_Y), (WR, Direction.X_OVER_Y)}
        assert {spec for spec, _thread in sampled} == oriented
        assert threading.current_thread().name not in {thread for _spec, thread in sampled}

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch, count, usable):
        # Platforms without CPU affinity count every CPU, and at least one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert spectral._usable_cpus() == usable

    def test_item_i_of_every_wave_runs_on_slot_i(self, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)

        def where(item):
            return item, threading.current_thread().name

        first = spectral._map(where, list(range(5)))
        assert [item for item, _thread in first] == list(range(5))
        slot0, slot1 = first[0][1], first[1][1]
        assert slot0 != slot1 and threading.main_thread().name not in (slot0, slot1)
        assert [thread for _item, thread in first] == [slot0, slot1, slot0, slot1, slot0]
        assert spectral._map(where, list(range(5))) == first

    def test_slot_0_builds_each_small_plan_once_before_the_factors(self, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spectral, "_PLANNED", set())
        query = CompositionQuery.homogeneous(SPEC, 10, Grid(half_width=12.0, size=2 ** 12))
        want = referenceconvolutions(query)
        calls = []
        original = fft.fft

        def recorded(x, *args, **kwargs):
            calls.append((threading.current_thread().name, bool(np.any(x))))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(fft, "fft", recorded)
        runs = []
        for _ in range(2):
            calls.clear()
            got = convolutions(query)
            # The zeroed buffer comes back zeroed, so the results keep their bits.
            assert all(np.array_equal(c.samples, w) for (_d, c), w in zip(got, want))
            runs.append(list(calls))
        (plan_thread, plan_nonzero), *factors = runs[0]
        assert plan_thread.startswith("dpconv-spectral-0") and not plan_nonzero
        assert len(factors) == 2 and all(nonzero for _thread, nonzero in factors)
        assert len(runs[1]) == 2
        # A plan too large for an arena is left to the first transform.
        monkeypatch.setattr(spectral, "_ARENA_LIMIT_BYTES", 16 * 2 ** 12 - 1)
        monkeypatch.setattr(spectral, "_PLANNED", set())
        calls.clear()
        convolutions(query)
        assert len(calls) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_threads(self, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        assert spectral._map(len, [[1], [2, 3]]) == [1, 2]  # the parent's threads exist
        pid = os.fork()
        if pid == 0:
            # The parent's threads do not exist here; a wave sent to them
            # would never end, so the child is stopped after 30 s.
            signal.alarm(30)
            code = 1
            try:
                code = 0 if spectral._map(len, [[1], [2, 3], [4]]) == [1, 2, 1] else 1
            finally:
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_shared_factor_survives_contended_workers(self, monkeypatch):
        # More workers than cores and a short switch interval: a product
        # written into a buffer that another direction still reads would
        # change that direction's result.
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 4)
        grid = Grid(half_width=12.0, size=2 ** 12)
        other_wor = MechanismSpec(sigma=2.0, q=0.02, scheme=Scheme.WITHOUT_REPLACEMENT)
        queries = [
            CompositionQuery(
                specs=(SPEC, WOR, MechanismSpec(sigma=2.0, q=0.02)), counts=(50, 50, 20), grid=grid
            ),
            # Both directions named: every factor is shared by both products.
            CompositionQuery(
                specs=(WOR, other_wor), counts=(50, 20), grid=grid, directions=tuple(Direction)
            ),
        ]
        wanted = [referenceconvolutions(query) for query in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                for query, want in zip(queries, wanted):
                    got = convolutions(query)
                    assert all(np.array_equal(c.samples, w) for (_d, c), w in zip(got, want))
        finally:
            sys.setswitchinterval(interval)

    def test_residue_error_propagates_unchanged_from_workers(self, monkeypatch):
        monkeypatch.setattr(spectral, "_IMAG_RESIDUE_TOL", -1.0)
        query = CompositionQuery.homogeneous(SPEC, 10, Grid(half_width=12.0, size=2 ** 12))
        with pytest.raises(SpectralResidueError, match="^imaginary residue .* exceeds -1e"):
            convolutions(query)

    def test_workers_see_the_callers_numpy_error_state(self):
        # The 1000th power of a spectrum underflows in its smallest entries;
        # raising on underflow is the caller's choice, and the threads that
        # build the two directions' factors must honour it.
        query = CompositionQuery.homogeneous(SPEC, 1000, Grid(half_width=12.0, size=2 ** 12))
        assert len(convolutions(query)) == 2
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            convolutions(query)
