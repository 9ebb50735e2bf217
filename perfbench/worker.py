"""The workload process: one client sending one workload's requests in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

perfbench/run.py starts it with src/ on PYTHONPATH and the BLAS and OpenMP
thread counts capped. It first makes one warm-up pass, whose outputs are
checked but whose time is not reported, then starts passes over the request
list until the time budget, which includes the warm-up, is spent; the last
pass may end after the budget. It prints one JSON object with the pass
timings, the failures and the peak resident memory. Outputs are checked
after the last pass, outside the timed region.

With --trace 1 the measured passes alternate untraced and traced, starting
and ending untraced, so each traced pass lies between two untraced ones.
Traced passes run with the hooks from tracing.py installed and must give
outputs identical bit for bit to the warm-up pass's. With --setup-only it
prints "ready" and the monotonic clock once dpconv is imported and the
requests are built, and exits: run.py times this for setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _library_call(dpconv, params: dict):
    """A zero-argument call of delta_of_epsilon on a query built now.

    The function is looked up on its module at call time, so installed
    trace hooks take effect.
    """
    scheme = dpconv.Scheme(params["scheme"])
    spec = dpconv.MechanismSpec(
        sigma=params["sigma"],
        scheme=scheme,
        q=params.get("q"),
        batch_size=params.get("batch_size"),
        dataset_size=params.get("dataset_size"),
    )
    grid = dpconv.Grid(half_width=params["L"], size=params["n"])
    query = dpconv.CompositionQuery.homogeneous(spec, k=params["k"], grid=grid, epsilon=params["eps"])

    def call():
        result = dpconv.accountant.delta_of_epsilon(query)
        fingerprint = repr((result.value, result.per_direction, result.ell_eps, result.warnings))
        return result.value, fingerprint

    return call


def _cli_call(dpconv, argv: tuple[str, ...]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = dpconv.cli.main(list(argv))
            except SystemExit as exc:  # argparse exits on flag errors
                code = exc.code if isinstance(exc.code, int) else 1
        output = (code, out.getvalue())
        return output, repr(output)

    return call


def _run_pass(calls, recorder: tracing.Recorder | None) -> dict:
    """Sends every request once; returns timings, outputs and errors."""
    seconds, outputs, errors = [], [], []
    start = time.perf_counter()
    for index, call in enumerate(calls):
        if recorder is not None:
            recorder.request = index
        t0 = time.perf_counter()
        try:
            output, fingerprint = call()
            error = None
        except Exception as exc:  # a raising request is a failure, not a crash
            output, fingerprint, error = None, None, f"raised {type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - t0)
        outputs.append((output, fingerprint))
        errors.append(error)
    return {"seconds": time.perf_counter() - start, "request_s": seconds,
            "outputs": outputs, "errors": errors}


def count_failures(requests, passes) -> tuple[int, list[str]]:
    """Returns (requests attempted, one reason per failed request).

    A request fails when it raised, when its output misses the reference,
    or, in a traced pass, when its output differs from the first pass's,
    which is the untraced warm-up.
    """
    attempted, failures = 0, []
    first = passes[0]["outputs"]
    for result in passes:
        for request, (output, fingerprint), error, (_, untraced) in zip(
            requests, result["outputs"], result["errors"], first
        ):
            attempted += 1
            if error is None:
                error = workloads.check(request, output)
            if error is None and result["traced"] and fingerprint != untraced:
                error = "traced output differs from the untraced output"
            if error is not None:
                failures.append(f"{request.name}: {error}")
    return attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required unless --setup-only is given")

    import dpconv
    import dpconv.cli

    src = (ROOT / "src").resolve()
    if src not in Path(dpconv.__file__).resolve().parents:
        print(f"error: imported dpconv from {dpconv.__file__}, not from {src}", file=sys.stderr)
        return 2
    requests = workloads.build_requests(args.workload, args.seed)
    calls = [
        _library_call(dpconv, r.params) if r.kind == "delta" else _cli_call(dpconv, r.argv)
        for r in requests
    ]
    if args.setup_only:
        print(f"ready {time.monotonic()!r}")
        return 0

    recorder = tracing.Recorder() if args.trace else None
    hooked, missing = [], []
    passes = []
    loop_start = time.perf_counter()
    while True:
        # Pass 0 is the warm-up; with tracing, the even passes after it are traced.
        traced = bool(args.trace) and len(passes) > 0 and len(passes) % 2 == 0
        swaps = []
        if traced:
            hooked, missing, swaps = tracing.install(recorder)
        try:
            result = _run_pass(calls, recorder if traced else None)
        finally:
            tracing.remove(swaps)
        result["traced"] = traced
        result["warmup"] = not passes
        if traced:
            result["layers"] = tracing.layer_metrics(recorder.take(), result["seconds"])
        passes.append(result)
        # Stop after an untraced pass once the budget is spent and there is
        # at least one measured pass, or one traced pass between two untraced.
        enough = len(passes) >= (4 if args.trace else 2) and not traced
        if enough and time.perf_counter() - loop_start >= args.seconds:
            break

    attempted, failures = count_failures(requests, passes)

    import numpy
    import scipy

    report = {
        "requests": [r.name for r in requests],
        "passes": [
            {key: p[key] for key in ("warmup", "traced", "seconds", "request_s", "layers") if key in p}
            for p in passes
        ],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "hooked": hooked,
        "missing": missing,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
