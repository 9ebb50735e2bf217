"""Acceptance suite: golden reference digits and end-to-end properties.

Each test computes one acceptance item at its stated tolerance and records a
one-line PASS/FAIL verdict, printed in the summary section after the run.
Reference digits are frozen external values for the subsampled Gaussian
composition at sigma=1.5, q=0.01, k=10^4, epsilon=1.0.

Two items need a reading of their references, which each test states: the
reference err column quotes its rows in two estimator conventions, relative
in the pre-asymptotic rows and absolute once the estimate reaches roundoff,
so item 3 checks every row in the convention the reference deltas assign it;
and the stated moment-bound envelope of ~9.5 is the envelope formula at the
tables' sigma=1.5 (9.449), not at sigma=2 (4 ln 50 = 15.648), so item 8a
checks each value at the sigma it belongs to.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import record_criterion

from dpconv import (
    CompositionQuery,
    Direction,
    Grid,
    MechanismSpec,
    Scheme,
    alpha_bound,
    alpha_lambda_limit,
    analytic_lambda_limit,
    delta_of_epsilon,
    delta_of_epsilons,
    discretization_estimate,
    discretize,
    epsilon_of_delta,
    tail_estimate,
)
from dpconv.accountant import convolutions
from dpconv.mechanisms import (
    loss_inverse_poisson,
    loss_inverse_with_replacement,
    loss_inverse_without_replacement,
    pld_density_poisson,
    pld_density_with_replacement,
    pld_density_without_replacement,
)

from oracle import (
    bisection_epsilon,
    direct_convolution_combine,
    direct_convolution_delta,
    gaussian_mechanism_delta,
)

SPEC = MechanismSpec(sigma=1.5, q=0.01)

REFERENCE_DELTAS_BY_SIZE = {
    50_000: 0.0491228786423,
    100_000: 0.0496089458356,
    200_000: 0.0496013846114,
    400_000: 0.0496014103882,
    800_000: 0.0496014103252,
    1_600_000: 0.0496014103146,
    3_200_000: 0.0496014103163,
}

REFERENCE_ERR_BY_SIZE = {
    50_000: 2.01e-2,
    100_000: 3.12e-4,
    200_000: 1.06e-6,
    400_000: 1.71e-9,
    800_000: 2.66e-11,
    1_600_000: 8.88e-12,
    3_200_000: 2.22e-12,
}

REFERENCE_BY_RADIUS = {
    2.0: (0.0422160172923, 3.32e-1),
    4.0: (0.0496008932869, 4.96e-3),
    6.0: (0.0496014103158, 3.32e-6),
    8.0: (0.0496014103134, 1.00e-10),
    10.0: (0.0496014103134, 1.36e-16),
    12.0: (0.0496014103163, 8.30e-24),
}


def reference_query(size: int, half_width: float = 12.0) -> CompositionQuery:
    return CompositionQuery.homogeneous(
        SPEC, 10 ** 4, Grid(half_width=half_width, size=size), epsilon=1.0
    )


def reference_delta(size: int, half_width: float = 12.0) -> float:
    return delta_of_epsilon(reference_query(size, half_width)).value


@pytest.fixture(scope="module")
def size_sweep():
    """The delta result at every reference size, and the time the sweep took."""
    results = {}
    start = time.perf_counter()
    for size in sorted(REFERENCE_DELTAS_BY_SIZE):
        results[size] = delta_of_epsilon(reference_query(size))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_acceptance_1_reference_deltas(size_sweep):
    results, elapsed = size_sweep
    values = {size: result.value for size, result in results.items()}
    failures = []
    for size, reference in REFERENCE_DELTAS_BY_SIZE.items():
        tolerance = 5e-10 if size >= 400_000 else 5e-7
        if abs(values[size] - reference) > tolerance:
            failures.append(f"n={size}: {values[size]!r} vs {reference}")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds two minutes")
    ok = not failures
    record_criterion(
        "acceptance 1 (delta across grid sizes)",
        ok,
        f"7 sizes, worst diff {max(abs(values[s] - p) for s, p in REFERENCE_DELTAS_BY_SIZE.items()):.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok, failures


def test_acceptance_2_reference_radii():
    failures = []
    worst_delta = 0.0
    worst_ratio = 1.0
    for half_width, (expected_delta, expected_tail) in REFERENCE_BY_RADIUS.items():
        value = reference_delta(3_200_000, half_width=half_width)
        worst_delta = max(worst_delta, abs(value - expected_delta))
        if abs(value - expected_delta) > 5e-10:
            failures.append(f"L={half_width}: delta {value!r} vs {expected_delta}")
        tail = tail_estimate(
            CompositionQuery.homogeneous(SPEC, 10 ** 4, Grid(half_width=half_width, size=2))
        ).value
        ratio = tail / expected_tail
        worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
        if not (1 / 1.5 <= ratio <= 1.5):
            failures.append(f"L={half_width}: tail {tail:.3e} vs {expected_tail:.3e}")
    ok = not failures
    record_criterion(
        "acceptance 2 (delta and tail across radii)",
        ok,
        f"worst delta diff {worst_delta:.2e}, worst tail ratio {worst_ratio:.3f}",
    )
    assert ok, failures


def reference_err_conventions() -> dict[int, tuple[bool, bool] | None]:
    """Estimator convention of each reference err row: (relative, derived).

    A row whose doubled size also has a reference delta is settled by the
    reference table alone: of the absolute estimate 2|I_n - I_2n| and the
    relative one 2|I_n - I_2n| / I_n, both formed from
    REFERENCE_DELTAS_BY_SIZE, exactly one lands within a factor of 3 of the
    row. That gives relative for n=5e4..4e5 (ratios 0.985, 0.977, 0.981,
    1.486; the absolute form gives 0.048..0.074) and absolute for n=8e5 and
    1.6e6 (ratios 0.797, 0.383; the relative form gives 16.1 and 7.7). The
    table holds no delta at 6.4e6, so the last row is not settled by it; it
    is assumed absolute, the regime of the two rows before it, and marked
    as not derived. None is returned for a settled row that fits both forms
    or neither.
    """
    conventions = {}
    for size, reference in REFERENCE_ERR_BY_SIZE.items():
        if 2 * size not in REFERENCE_DELTAS_BY_SIZE:
            conventions[size] = (False, False)
            continue
        coarse = REFERENCE_DELTAS_BY_SIZE[size]
        absolute = 2.0 * abs(coarse - REFERENCE_DELTAS_BY_SIZE[2 * size])
        fitting = [
            relative
            for relative, estimate in ((False, absolute), (True, absolute / coarse))
            if 1 / 3 <= estimate / reference <= 3
        ]
        conventions[size] = (fitting[0], True) if len(fitting) == 1 else None
    return conventions


def test_acceptance_3_err_column(size_sweep):
    """discretization_estimate against every reference err row, within a
    factor of 3, in the convention the reference table itself assigns the
    row (see reference_err_conventions): relative for the first four rows,
    absolute for the last three, the last by assumption.

    Rows n=8e5 upward compare differences at the FFT's roundoff floor, about
    1e-12 on a delta of 0.0496, so their ratios move between machines and
    runs (0.45 to 0.49 observed); the factor-3 tolerance holds them all.
    I_2n comes from the size sweep wherever it holds the doubled size, which
    is every row but the last.
    """
    results, _ = size_sweep
    conventions = reference_err_conventions()
    row_results = []
    failures = []
    for size, reference in REFERENCE_ERR_BY_SIZE.items():
        if conventions[size] is None:
            failures.append(f"n={size}: reference digits fit no single convention")
            continue
        relative, derived = conventions[size]
        base = results[size].value
        estimate = discretization_estimate(results[size], results.get(2 * size)).value
        if relative:
            estimate = estimate / base if base > 0.0 else (math.inf if estimate > 0.0 else 0.0)
        ratio = estimate / reference
        form = ("relative" if relative else "absolute") + ("" if derived else ", assumed")
        row_results.append(f"n={size}: {form} {estimate:.2e} ratio {ratio:.3f}")
        if not 1 / 3 <= ratio <= 3:
            failures.append(f"n={size}: ratio {ratio:.3f} outside [1/3, 3]")
    ok = not failures
    record_criterion(
        "acceptance 3 (discretisation err column, per-row convention)",
        ok,
        "; ".join(row_results) if ok else "; ".join(failures),
    )
    assert ok, "\n".join(failures + row_results)


def test_acceptance_4_oracle_equivalence():
    grid = Grid(half_width=12.0, size=4096)
    cases = [
        MechanismSpec(sigma=0.7, q=0.3),
        MechanismSpec(sigma=0.8, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.3),
        MechanismSpec(sigma=0.8, scheme=Scheme.WITH_REPLACEMENT, batch_size=5, dataset_size=10),
    ]
    worst = 0.0
    for spec in cases:
        fast = delta_of_epsilon(CompositionQuery.homogeneous(spec, 2, grid, epsilon=1.0)).value
        slow = direct_convolution_delta(spec, 2, grid, 1.0)
        worst = max(worst, abs(fast - slow) / slow)
    ok = worst <= 1e-10
    record_criterion(
        "acceptance 4 (FFT vs direct convolution, three schemes)",
        ok,
        f"worst relative diff {worst:.2e}",
    )
    assert ok


def test_acceptance_5_gaussian_cross_check():
    """Pipeline at q=1 against the closed-form Gaussian delta.

    The stated bound uses tail_estimate, which is infinite at q=1 (the moment
    lemma needs q < 1), so it holds vacuously for every cell. A strict
    supplement replaces it with the exact Gaussian tail mass beyond the
    truncation radius, which is finite and keeps the comparison honest: at
    k=100 the composed loss mean k/(2 sigma^2) = 22.2 sits near the radius 30
    and truncation genuinely removes ~0.12 of mass.
    """
    sigma = 1.5
    grid = Grid(half_width=30.0, size=2 ** 22)
    spec = MechanismSpec(sigma=sigma, q=1.0)
    failures = []
    worst_slack = math.inf
    for k in (1, 10, 100):
        for eps in (0.5, 1.0, 2.0):
            query = CompositionQuery.homogeneous(spec, k, grid, epsilon=eps)
            result = delta_of_epsilon(query)
            exact = gaussian_mechanism_delta(sigma, k, eps)
            diff = abs(result.value - exact)
            disc = discretization_estimate(result).value
            stated_bound = tail_estimate(query).value + disc + 1e-9
            if not diff <= stated_bound:
                failures.append(f"k={k} eps={eps}: diff {diff:.3e} above stated bound")
            exact_tail = stats.norm.sf(
                (grid.half_width - k / (2 * sigma ** 2)) * sigma / math.sqrt(k)
            )
            strict_bound = exact_tail + disc + 1e-9
            worst_slack = min(worst_slack, strict_bound - diff)
            if not diff <= strict_bound:
                failures.append(f"k={k} eps={eps}: diff {diff:.3e} above strict bound")
    # At a radius clear of the composed mean the agreement is sharp.
    wide = CompositionQuery.homogeneous(
        spec, 100, Grid(half_width=60.0, size=2 ** 22), epsilon=1.0
    )
    sharp_diff = abs(delta_of_epsilon(wide).value - gaussian_mechanism_delta(sigma, 100, 1.0))
    if not sharp_diff <= 2e-8:
        failures.append(f"L=60 k=100: diff {sharp_diff:.3e} above 2e-8")
    ok = not failures
    record_criterion(
        "acceptance 5 (q=1 Gaussian cross-check)",
        ok,
        f"9 cells, strict-bound slack >= {worst_slack:.2e}; wide-radius diff {sharp_diff:.2e}",
    )
    assert ok, failures


def test_acceptance_6_newton_inversion():
    grid = Grid(half_width=12.0, size=2 ** 17)
    k = 10 ** 4
    at_zero = delta_of_epsilon(CompositionQuery.homogeneous(SPEC, k, grid, epsilon=0.0)).value
    rng = np.random.default_rng(7)
    targets = np.exp(rng.uniform(math.log(1e-8), math.log(at_zero / 2), size=20))
    worst_residual = 0.0
    worst_disagreement = 0.0
    for target in targets:
        result = epsilon_of_delta(
            CompositionQuery.homogeneous(SPEC, k, grid, delta=float(target))
        )
        achieved = delta_of_epsilon(
            CompositionQuery.homogeneous(SPEC, k, grid, epsilon=result.value)
        ).value
        worst_residual = max(worst_residual, abs(achieved - float(target)))
        reference = bisection_epsilon(SPEC, k, grid, float(target))
        worst_disagreement = max(worst_disagreement, abs(result.value - reference))
    ok = worst_residual <= 1e-10 and worst_disagreement <= 2e-6
    record_criterion(
        "acceptance 6 (epsilon inversion)",
        ok,
        f"20 targets: worst residual {worst_residual:.2e}, "
        f"worst inverse-bisection gap {worst_disagreement:.2e}",
    )
    assert ok


def test_acceptance_7_property_suite():
    failures = []

    # Normalisation on the reference grids.
    for half_width, size in ((12.0, 10 ** 6), (2.0, 3_200_000)):
        mass = Grid(half_width=half_width, size=size).dx * discretize(
            SPEC, Grid(half_width=half_width, size=size)
        ).samples.sum()
        if abs(mass - 1.0) > 1e-7:
            failures.append(f"normalisation at L={half_width}, n={size}: {mass!r}")

    # Dual relation on 1000 sampled points.
    rng = np.random.default_rng(23)
    s = rng.uniform(math.log(0.99) + 1e-3, 8.0, size=1000)
    fwd = pld_density_poisson(SPEC, s)
    rev = SPEC.density(-s, Direction.Y_OVER_X)
    dual_err = np.max(np.abs(fwd - np.exp(s) * rev) / np.maximum(np.abs(fwd), 1e-300))
    if dual_err > 1e-12:
        failures.append(f"dual relation error {dual_err:.2e}")

    # Monotone delta in epsilon and in k.
    grid = Grid(half_width=12.0, size=2 ** 14)
    sweep = [
        delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 100, grid, epsilon=e)).value
        for e in np.linspace(0.0, 3.0, 50)
    ]
    if not all(a >= b for a, b in zip(sweep, sweep[1:])):
        failures.append("delta not nonincreasing in epsilon")
    in_k = [
        delta_of_epsilon(CompositionQuery.homogeneous(SPEC, 2 ** j, grid, epsilon=1.0)).value
        for j in range(11)
    ]
    if not all(b >= a - 1e-15 for a, b in zip(in_k, in_k[1:])):
        failures.append("delta not nondecreasing in k")

    # Strictly increasing loss inverses for all three schemes.
    s_axis = np.linspace(-6.0, 6.0, 500)
    wor = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.1)
    wr = MechanismSpec(sigma=2.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=5, dataset_size=100)
    poisson_s = s_axis[s_axis > math.log(0.99)]
    if not np.all(np.diff(loss_inverse_poisson(SPEC, poisson_s)) > 0):
        failures.append("poisson loss inverse not strictly increasing")
    if not np.all(np.diff(loss_inverse_without_replacement(wor, s_axis)) > 0):
        failures.append("without-replacement loss inverse not strictly increasing")
    if not np.all(np.diff(loss_inverse_with_replacement(wr, s_axis)) > 0):
        failures.append("with-replacement loss inverse not strictly increasing")

    # Single-draw equivalence of the two substitute schemes.
    single = MechanismSpec(
        sigma=2.0, scheme=Scheme.WITH_REPLACEMENT, batch_size=1, dataset_size=100
    )
    matched = MechanismSpec(sigma=2.0, scheme=Scheme.WITHOUT_REPLACEMENT, q=0.01)
    gap = np.max(
        np.abs(
            pld_density_with_replacement(single, s_axis)
            - pld_density_without_replacement(matched, s_axis)
        )
    )
    if gap > 1e-10:
        failures.append(f"single-draw equivalence gap {gap:.2e}")

    ok = not failures
    record_criterion(
        "acceptance 7 (property suite)",
        ok,
        f"dual {dual_err:.1e}, single-draw gap {gap:.1e}" if ok else "; ".join(failures),
    )
    assert ok, failures


def test_acceptance_8a_moment_bound_envelope():
    """The moment-bound envelope sigma^2 ln(1/(q sigma)) at q=0.01.

    The stated ~9.5 is the envelope at sigma=1.5, the noise scale of every
    other reference in this file (9.449). At sigma=2 the same formula gives
    4 ln 50 = 15.648, the value the unit suite and the error-budget demo
    pin, so that case is checked against the closed form. Each limit must
    also be the boundary alpha_bound enforces: the last integer order below
    it is valid and the first above it is rejected by the lambda gate.
    """
    at_reference_sigma = alpha_lambda_limit(1.5, 0.01)
    at_two = alpha_lambda_limit(2.0, 0.01)
    failures = []
    if abs(at_reference_sigma - 9.5) > 0.2:
        failures.append(f"sigma=1.5: envelope {at_reference_sigma:.4f} vs 9.5+-0.2")
    if not math.isclose(at_two, 4.0 * math.log(50.0), rel_tol=1e-14):
        failures.append(f"sigma=2: envelope {at_two!r} vs 4 ln 50")
    for sigma, inside, outside in ((1.5, 9.0, 10.0), (2.0, 15.0, 16.0)):
        if not alpha_bound(sigma, 0.01, inside).valid:
            failures.append(f"sigma={sigma}: lambda={inside:g} rejected")
        beyond = alpha_bound(sigma, 0.01, outside)
        if beyond.valid or not any("lambda" in v for v in beyond.violated):
            failures.append(f"sigma={sigma}: lambda={outside:g} not rejected by the lambda gate")
    ok = not failures
    record_criterion(
        "acceptance 8a (moment-bound envelope at sigma=1.5 and sigma=2)",
        ok,
        f"sigma=1.5: {at_reference_sigma:.3f} vs 9.5+-0.2; "
        f"sigma=2: {at_two:.3f} = 4 ln 50; alpha_bound gates at 9|10 and 15|16"
        if ok
        else "; ".join(failures),
    )
    assert ok, failures


def test_acceptance_8b_analytic_bound_envelope():
    limit = analytic_lambda_limit(4.0, 0.01)
    ok = abs(limit - 14.3) <= 0.2
    record_criterion(
        "acceptance 8b (rigorous-bound envelope at sigma=4)",
        ok,
        f"lambda limit {limit:.3f} vs 14.3+-0.2",
    )
    assert ok, limit


def test_acceptance_9_heterogeneous_composition():
    grid = Grid(half_width=12.0, size=2 ** 16)
    homogeneous = delta_of_epsilon(
        CompositionQuery.homogeneous(SPEC, 100, grid, epsilon=1.0)
    ).value
    split = delta_of_epsilon(
        CompositionQuery(specs=(SPEC, SPEC), counts=(60, 40), grid=grid, epsilon=1.0)
    ).value
    duplicate_gap = abs(split - homogeneous)

    # Mixed noise scales against the quadratic-time oracle. At eps = 1 delta
    # is about 4e-14, at the transform's rounding floor, so only the
    # absolute bound applies there; at eps = 0.1 delta is 7.33e-3 and the
    # two agree to 1.0e-12 relative.
    other = MechanismSpec(sigma=2.0, q=0.01)
    fast = delta_of_epsilons(
        CompositionQuery(specs=(SPEC, other), counts=(100, 100), grid=grid), (1.0, 0.1)
    )
    slow = [0.0, 0.0]
    for (_d, a), (_e, b) in zip(
        convolutions(CompositionQuery.homogeneous(SPEC, 100, grid)),
        convolutions(CompositionQuery.homogeneous(other, 100, grid)),
    ):
        combined = direct_convolution_combine(a, b, allow_large=True)
        slow = [max(s, combined.delta(eps)) for s, eps in zip(slow, (1.0, 0.1))]
    mixed_gap = abs(fast[0].value - slow[0])
    relative_gap = abs(fast[1].value - slow[1]) / slow[1]

    ok = duplicate_gap <= 1e-12 and mixed_gap <= 1e-8 and relative_gap <= 1e-10
    record_criterion(
        "acceptance 9 (heterogeneous composition)",
        ok,
        f"duplicate gap {duplicate_gap:.2e}, mixed-vs-oracle gap {mixed_gap:.2e} at eps=1, "
        f"relative {relative_gap:.2e} at eps=0.1",
    )
    assert ok, (duplicate_gap, mixed_gap, relative_gap)
