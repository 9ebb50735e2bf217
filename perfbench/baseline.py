"""Runs every workload over several seeds and tabulates medians and spreads.

    python3 perfbench/baseline.py [--out FILE]

Run from the repository root. For every workload of BENCHMARK.json it makes
RUNS untraced and TRACED_RUNS traced runs, each one `perfbench/run.py`
process with its own seed (1, 2, ...) and the run length BENCHMARK.json
sets. For every end-to-end metric, including the ones reported but not
gated (per-command times, failed_frac), it prints the median over runs, the
first and third quartiles, and the spread (q3 - q1) / median next to the
metric's bound. The traced runs give the per-layer table, as medians. With
--out the whole record is written as JSON; perfbench/baseline.json is
`python3 perfbench/baseline.py --out perfbench/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import REPORT_UNITS, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED_RUNS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Returns (result line, report) of one run.py process."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), report


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {**metric_units()[0], **REPORT_UNITS}
    record = {"run_seconds": spec["run_seconds"], "runs": RUNS, "traced_runs": TRACED_RUNS,
              "workloads": {}}
    print(f"{'workload':14s} {'metric':32s} {'unit':11s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end, failed, attempted = {}, 0, 0
        for seed in range(1, RUNS + 1):
            result, report = _run(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, value in report["measured"].items():
                end_to_end.setdefault(name, []).append(value)
        rows = {}
        for name, values in end_to_end.items():
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            unit = units[name]
            rows[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": values}
            bound = f"{bounds[name]:.2f}" if name in bounds else "-"
            print(f"{workload:14s} {name:32s} {unit:11s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bound:>6s}")
        layers = {}
        for seed in range(1, TRACED_RUNS + 1):
            result, _report = _run(workload, seed, spec["run_seconds"], 1)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                layers.setdefault(name, {"unit": metric["unit"], "values": []})
                layers[name]["values"].append(metric["value"])
        for name, layer in layers.items():
            layer["median"] = statistics.median(layer["values"])
            print(f"{workload:14s} {name:32s} {layer['unit']:11s} {layer['median']:12.6g}")
        print(f"{workload:14s} {'requests failed':32s} {failed} of {attempted}")
        record["workloads"][workload] = {
            "end_to_end": rows, "per_layer": layers,
            "failed": failed, "attempted": attempted,
            "environment": report["environment"],
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
