"""Workload definitions: frozen input tables, request lists and output checks.

Each workload is a fixed list of requests that one client sends in a closed
loop: the next request goes out only when the previous one has returned.
The seed picks one row from each of the workload's small input tables; every
row of a table costs the same work (same mechanism sizes, grid and
composition count), so runs with different seeds measure the same load.

Reference outputs were computed once with dpconv at the commit that
introduced this benchmark and are stored here, next to the inputs they
belong to. They are compared with tolerances that admit the rounding
differences a faster but equivalent algorithm produces (for example real
FFTs, or an exact inverse in place of Newton's method) and nothing larger.

This module is plain Python so that the harness and its self-tests can
build and check requests without importing dpconv.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Tolerances for comparing outputs with the frozen references.
DELTA_REL_TOL = 1e-9
# Rounding noise in the convolved density's far tail, summed over the grid,
# is of order 1e-16; small deltas are compared to this absolute floor.
DELTA_ABS_TOL = 1e-13
EPSILON_ABS_TOL = 1e-8
# 2|I_n - I_2n| is a difference of two close deltas, so its own last digits
# move with any change in rounding; only its magnitude is checked.
ESTIMATE_REL_TOL = 1e-2
ESTIMATE_ABS_TOL = 1e-15

POISSON = {"scheme": "poisson", "sigma": 1.5, "q": 0.01, "k": 10_000}
WITH_REPLACEMENT = {
    "scheme": "with-replacement",
    "sigma": 1.0,
    "batch_size": 64,
    "dataset_size": 6400,
    "k": 1000,
}

# poisson-delta: epsilon -> tight delta at L=12, n=2^22. The eps=1 row is the
# acceptance suite's headline value 0.0496014103...
POISSON_DELTA_GRID = {"L": 12.0, "n": 2 ** 22}
POISSON_DELTA_TABLE = {
    0.5: 0.1386634376317418,
    0.75: 0.08619178036138031,
    1.0: 0.049601410314778285,
    1.25: 0.026327901056227208,
    1.5: 0.012850340741206546,
    2.0: 0.0023587726342872797,
}

# wr-delta: epsilon -> tight delta at L=12, n=2^14.
WR_DELTA_GRID = {"L": 12.0, "n": 2 ** 14}
WR_DELTA_TABLE = {
    0.5: 0.11307676724306515,
    1.0: 0.03360662249480356,
    1.5: 0.006706863346331599,
    2.0: 0.0008853256726425824,
}

# cli-report, at L=12 and n=2^20 for every command.
CLI_GRID = ["--L", "12", "--n", str(2 ** 20)]
CLI_FLAT_MECH = ["--sigma", "1.5", "--q", "0.01", "--k", "10000"]
CLI_MIXED_MECH = [
    "--mech", "scheme=poisson,sigma=1.5,q=0.01,count=5000",
    "--mech", "scheme=without-replacement,sigma=1.5,q=0.01,count=5000",
]
# epsilon --delta D -> (epsilon, discretization_estimate)
CLI_EPSILON_TABLE = {
    1e-6: (3.5843528171216095, 1.683998895224989e-13),
    3e-6: (3.3991551084029052, 1.6552332116439358e-13),
    1e-5: (3.185584924527376, 1.5574032271063395e-13),
    1e-4: (2.7384362866673424, 2.282308185757448e-13),
}
# sweep --over eps --start A --stop B --count 10 -> delta per row
CLI_SWEEP_TABLE = {
    (0.25, 4.5): [
        0.20747206498845688, 0.09120736825434306, 0.030524637373619316,
        0.007594250227133027, 0.0013828156175535115, 0.00018253842603153995,
        1.737705865240879e-05, 1.1902422324816995e-06, 5.864382298924869e-08,
        2.0807632727907494e-09,
    ],
    (0.5, 5.0): [
        0.13866343763886935, 0.04960141031949978, 0.01285034073565209,
        0.0023587726349604816, 0.0003026819986189874, 2.6952110399658662e-05,
        1.6597659439971714e-06, 7.064521496640803e-08, 2.0807632727907494e-09,
        4.245542553938053e-11,
    ],
    (0.75, 5.5): [
        0.0861917803438137, 0.024413215455851137, 0.004755752583433701,
        0.00062479329897185, 5.4751634071967e-05, 3.1836534661134745e-06,
        1.226597239810728e-07, 3.134640945932314e-09, 5.321851679066438e-11,
        5.765985395536295e-13,
    ],
}
# heterogeneous delta --eps E -> (delta, discretization_estimate)
CLI_MIXED_TABLE = {
    0.5: (0.2746047815663345, 7.898570686393214e-12),
    1.0: (0.1600178251918247, 7.386202760528704e-12),
    1.5: (0.08077621293704348, 1.701680463206401e-11),
    2.0: (0.034896465087349525, 3.3842512126014412e-12),
}
CLI_SWEEP_COUNT = 10


@dataclass(frozen=True)
class Request:
    """One call the client makes.

    kind is "delta" for a library delta_of_epsilon call, whose params hold
    the mechanism, composition count, grid and epsilon, or "cli" for an
    in-process dpconv.cli.main call on argv. name labels the request in
    per-request timings; reference is the frozen expected output.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    argv: tuple[str, ...] = ()
    reference: object = None


@dataclass(frozen=True)
class Workload:
    build: object  # Callable[[random.Random], list[Request]]
    # Largest array the pipeline allocates for this workload, in bytes, to
    # set against the last-level cache size in the environment record.
    largest_operand_bytes: int


def _poisson_delta(rng: random.Random) -> list[Request]:
    eps = rng.choice(sorted(POISSON_DELTA_TABLE))
    params = {**POISSON, **POISSON_DELTA_GRID, "eps": eps}
    return [Request("delta", "delta", params=params, reference=POISSON_DELTA_TABLE[eps])]


def _wr_delta(rng: random.Random) -> list[Request]:
    eps = rng.choice(sorted(WR_DELTA_TABLE))
    params = {**WITH_REPLACEMENT, **WR_DELTA_GRID, "eps": eps}
    return [Request("delta", "delta", params=params, reference=WR_DELTA_TABLE[eps])]


def _cli_report(rng: random.Random) -> list[Request]:
    target = rng.choice(sorted(CLI_EPSILON_TABLE))
    start, stop = rng.choice(sorted(CLI_SWEEP_TABLE))
    eps = rng.choice(sorted(CLI_MIXED_TABLE))
    return [
        Request(
            "epsilon", "cli",
            argv=("epsilon", "--delta", repr(target), *CLI_FLAT_MECH, *CLI_GRID),
            reference=CLI_EPSILON_TABLE[target],
        ),
        Request(
            "sweep", "cli",
            argv=(
                "sweep", "--over", "eps", "--start", repr(start), "--stop", repr(stop),
                "--count", str(CLI_SWEEP_COUNT), *CLI_FLAT_MECH, *CLI_GRID,
            ),
            reference=CLI_SWEEP_TABLE[(start, stop)],
        ),
        Request(
            "mixed", "cli",
            argv=("delta", "--eps", repr(eps), *CLI_MIXED_MECH, *CLI_GRID),
            reference=CLI_MIXED_TABLE[eps],
        ),
    ]


# Why each workload is here is stated in BENCHMARK.json. In short:
# poisson-delta is the headline query and spends most of its time in the
# spectral layer on operands near the last-level cache size; cli-report asks
# many questions per composition (Newton inversion, a sweep, error estimates)
# on cache-sized operands; wr-delta spends nearly all of its time in the
# with-replacement root finder and bypasses the spectral layer.
WORKLOADS = {
    "poisson-delta": Workload(_poisson_delta, largest_operand_bytes=16 * POISSON_DELTA_GRID["n"]),
    # discretization_estimate re-runs the pipeline on the doubled grid.
    "cli-report": Workload(_cli_report, largest_operand_bytes=16 * 2 * 2 ** 20),
    # The root finder evaluates the loss on an (n, batch_size + 1) array.
    "wr-delta": Workload(
        _wr_delta,
        largest_operand_bytes=8 * WR_DELTA_GRID["n"] * (WITH_REPLACEMENT["batch_size"] + 1),
    ),
}


def build_requests(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload].build(random.Random(seed))


def _close(value, reference: float, rel: float, abs_: float = 0.0) -> bool:
    """Whether value is a finite real number within tolerance of reference.

    Anything else, such as the strings "nan" and "inf" the CLI writes for
    values that are not finite, or None, is not close.
    """
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and abs(value - reference) <= max(rel * abs(reference), abs_)
    )


def check(request: Request, output) -> str | None:
    """Compares one request's output with its reference.

    output is the value of a library call, or (exit code, stdout) of a CLI
    call. Returns None when it matches and a one-line reason otherwise,
    whatever the output holds.
    """
    if request.kind == "delta":
        if not _close(output, request.reference, DELTA_REL_TOL, DELTA_ABS_TOL):
            return f"delta {output!r} differs from reference {request.reference!r}"
        return None
    code, text = output
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if request.name == "sweep":
        return _check_sweep(report, request.reference)
    if not isinstance(report, dict):
        return f"{request.name} output is not a JSON object"
    value, estimate = request.reference
    if request.name == "epsilon":
        ok = _close(report.get("value"), value, 0.0, EPSILON_ABS_TOL)
    else:
        ok = _close(report.get("value"), value, DELTA_REL_TOL, DELTA_ABS_TOL)
    if not ok:
        return f"{request.name} value {report.get('value')!r} differs from reference {value!r}"
    if not _close(report.get("discretization_estimate"), estimate, ESTIMATE_REL_TOL, ESTIMATE_ABS_TOL):
        return (
            f"{request.name} discretization_estimate {report.get('discretization_estimate')!r}"
            f" differs from reference {estimate!r}"
        )
    return None


def _check_sweep(rows, reference: list[float]) -> str | None:
    if not isinstance(rows, list) or len(rows) != len(reference):
        return f"sweep returned {len(rows) if isinstance(rows, list) else 1} rows, expected {len(reference)}"
    for i, (row, value) in enumerate(zip(rows, reference)):
        if not isinstance(row, dict):
            return f"sweep row {i} is not a JSON object: {row!r}"
        if not _close(row.get("value"), value, DELTA_REL_TOL, DELTA_ABS_TOL):
            return f"sweep row {i} value {row.get('value')!r} differs from reference {value!r}"
    return None
