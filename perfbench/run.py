"""dpconv benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see workloads.py and
BENCHMARK.json): poisson-delta, cli-report, wr-delta. Each is one client
sending a fixed, seed-chosen request list in a closed loop inside one
workload process (worker.py), with every output checked against a frozen
reference. Workload processes import dpconv from src/ and have their BLAS
and OpenMP thread counts capped at the number of usable CPUs.

--trace 0 reports the end-to-end metrics, measured without hooks:
  setup_s      median over fresh processes of the time from process start
               to the first request ready (importing dpconv, building inputs);
               half of them start before the workload process, half after it
  pass_s       median wall time of one pass over the request list, after a
               warm-up pass that is not counted
  peak_rss_mb  peak resident memory of the workload process
--trace 1 reports the per-layer metrics from a run alternating untraced and
traced passes; trace.overhead_s is the median over traced passes of the
traced pass time minus the mean of the two untraced passes around it, so
that a drift in machine speed cancels.

Every metric the run measured is printed by name with its unit, and one
"report" line holds the full record (environment, sample counts, per-command
times, failures) as JSON. The last line is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A request that raises, exits non-zero or misses its reference counts as
failed; the run still exits 0. Without the dpconv sources under src/ the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 60
# The worker measures for --seconds; this allows for one pass that overruns
# its budget on a slow machine before the run is abandoned.
WORKER_GRACE_S = 120
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Reported but not gated: per-command times exist on cli-report only, and
# failed_frac is zero when all is well. The gated metrics and their units
# are the ones BENCHMARK.json lists.
REPORT_UNITS = {
    "epsilon_cmd_s": "s",
    "sweep_cmd_s": "s",
    "mixed_cmd_s": "s",
    "failed_frac": "fraction",
}


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _environment(nproc: int) -> dict:
    env = {"nproc": nproc, "python": sys.version.split()[0], "cpu_model": None, "llc_bytes": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for index in caches.glob("index*"):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            levels.append((level, int(size.rstrip("KM")) * scale))
        env["llc_bytes"] = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return env


def _worker_command(args) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]


def _communicate(command: list[str], env: dict, timeout: float) -> str | None:
    """Runs a process to its end; returns its stdout, or None if it failed.

    Whatever ends the wait early (timeout, interrupt, termination) kills the
    process and waits for it before passing on.
    """
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    return stdout if proc.returncode == 0 else None


def _setup_seconds(args, env, count: int) -> list[float]:
    """Times count fresh workload processes from their start to the moment
    they are ready, read from the system-wide monotonic clock they print."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        stdout = _communicate(_worker_command(args) + ["--setup-only"], env, SETUP_TIMEOUT_S)
        word, _, ready = (stdout or "").strip().partition(" ")
        if word != "ready":
            raise RuntimeError("a workload process failed to set up")
        samples.append(float(ready) - start)
    return samples


def _median(values):
    return statistics.median(values) if values else None


def _summarise(args, env_record, setup, worker, units) -> tuple[dict, dict]:
    """Returns (metrics for the result line, full report).

    units maps the metric names the result line must hold to their units.
    """
    passes = [p for p in worker["passes"] if not p["warmup"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    untraced_s = [p["seconds"] for p in untraced]
    per_request = {
        name: [p["request_s"][i] for p in untraced]
        for i, name in enumerate(worker["requests"])
    }
    measured = {
        "setup_s": _median(setup),
        "pass_s": _median(untraced_s),
        "peak_rss_mb": worker["peak_rss_mb"],
        "failed_frac": worker["failed"] / worker["attempted"],
    }
    for name in ("epsilon", "sweep", "mixed"):
        if name in per_request:
            measured[f"{name}_cmd_s"] = _median(per_request[name])
    overheads = []
    if args.trace:
        # Measured passes run untraced, traced, untraced, ..., untraced.
        overheads = [
            passes[i]["seconds"] - (passes[i - 1]["seconds"] + passes[i + 1]["seconds"]) / 2
            for i in range(1, len(passes) - 1, 2)
        ]
        layers = {
            key: _median([p["layers"][key] for p in traced]) for key in traced[0]["layers"]
        }
        layers["trace.pass_s"] = _median([p["seconds"] for p in traced])
        layers["trace.overhead_s"] = _median(overheads)
        metrics = {name: layers[name] for name in units}
    else:
        metrics = {name: measured[name] for name in units}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**env_record, "numpy": worker["numpy"], "scipy": worker["scipy"]},
        "requests": worker["requests"],
        "samples": {
            "setup": len(setup), "untraced_passes": len(untraced), "traced_passes": len(traced),
            "overhead_pairs": len(overheads),
        },
        "measured": measured,
        "setup_s_samples": setup,
        "warmup_pass_s": worker["passes"][0]["seconds"],
        "pass_s_samples": untraced_s,
        "overhead_s_samples": overheads,
        "request_s_samples": per_request,
        "failures": worker["failures"],
        "hooked": worker["hooked"],
        "missing_targets": worker["missing"],
    }
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Termination unwinds like an interrupt, so the workload process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dpconv" / "__init__.py").is_file():
        print(f"error: no dpconv sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({name: str(nproc) for name in THREAD_VARIABLES})
    env_record = _environment(nproc)
    env_record["largest_operand_bytes"] = workloads.WORKLOADS[args.workload].largest_operand_bytes

    end_to_end_units, per_layer_units = metric_units()
    units = per_layer_units if args.trace else end_to_end_units

    # Setup samples are taken on both sides of the workload process, so that
    # their median spans the run rather than only its first seconds.
    setup = _setup_seconds(args, env, SETUP_SAMPLES // 2)
    command = _worker_command(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        stdout = _communicate(command, env, timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        print("error: the workload process overran its time budget", file=sys.stderr)
        return 1
    if stdout is None:
        print("error: the workload process failed", file=sys.stderr)
        return 1
    setup += _setup_seconds(args, env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    worker = json.loads(stdout.strip().splitlines()[-1])

    metrics, report = _summarise(args, env_record, setup, worker, units)
    all_units = {**end_to_end_units, **REPORT_UNITS, **per_layer_units}
    shown = {**report["measured"], **{k: v["value"] for k, v in metrics.items()}}
    for name, value in shown.items():
        print(f"{args.workload:14s} {name:34s} {value!r:>24} {all_units[name]}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
