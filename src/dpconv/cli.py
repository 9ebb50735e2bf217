"""Command line front-end for one-shot queries, sweeps, and convergence tables.

Four subcommands:

* delta: tight delta at a given epsilon.
* epsilon: the exact inverse, the smallest epsilon meeting a delta target.
* sweep: delta along a range of epsilon values (one convolution for all of
  them) or a list of composition counts.
* converge: a doubling schedule over the grid size (or truncation radius)
  with the first-order error estimate per row.

Mechanisms come either from the flat flags (--scheme --sigma --q ... --k) or
from one --mech group per distinct mechanism for heterogeneous compositions,
e.g. --mech scheme=poisson,sigma=1.5,q=0.01,count=100. --direction restricts
every subcommand to one likelihood-ratio direction, error estimates included.

Reports are serialized as JSON (one object, stable key order), CSV
(RFC 4180), or an aligned text table; numbers use shortest round-trip
formatting. Exit codes: 0 success, 2 flag errors (malformed numbers and an
unwritable --out included), 3 domain errors (and running out of memory), 4
non-convergence of a loss inverse root finder. Each command checks all
its flags in one CompositionQuery; a row of a k sweep or a convergence
table replaces the query's counts or grid.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import error_bounds
from .accountant import (
    CompositionQuery,
    DeltaResult,
    delta_of_epsilon,
    delta_of_epsilons,
    epsilon_of_delta,
)
from .discretization import Grid
from .errors import AccountingError, DomainError, NonConvergenceError
from .mechanisms import Direction, MechanismSpec, Scheme

_DEFAULT_HALF_WIDTH = 20.0
_DEFAULT_SIZE = 2 ** 22
_MAX_SWEEP_COUNT = 10 ** 6

_EXIT_FLAGS = 2
_EXIT_DOMAIN = 3
_EXIT_NONCONVERGENCE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpconv",
        description="Tight (epsilon, delta) accounting for subsampled Gaussian mechanisms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    mech = common.add_argument_group("mechanism")
    mech.add_argument("--scheme", choices=[s.value for s in Scheme], help="default poisson")
    mech.add_argument("--sigma", type=float, help="noise scale, at most 1e50")
    mech.add_argument("--q", type=float, help="sampling fraction (poisson, without-replacement)")
    mech.add_argument("--batch-size", type=int, help="draw count (with-replacement)")
    mech.add_argument("--dataset-size", type=int, help="record count (with-replacement)")
    mech.add_argument(
        "--direction",
        choices=[d.value for d in Direction],
        default=None,
        help="restrict to one likelihood-ratio direction instead of the tight max",
    )
    mech.add_argument("--k", type=int, help="number of compositions, default 1")
    mech.add_argument(
        "--mech",
        action="append",
        metavar="KEY=VAL,...",
        help="one heterogeneous mechanism group, e.g. scheme=poisson,sigma=1.5,q=0.01,count=10;"
        " repeat per distinct mechanism (not with the flat mechanism flags)",
    )
    num = common.add_argument_group("numerics")
    num.add_argument(
        "--L", type=float, default=_DEFAULT_HALF_WIDTH, help="truncation radius, at most 700"
    )
    num.add_argument("--n", type=int, default=_DEFAULT_SIZE, help="grid size (even)")
    out = common.add_argument_group("output")
    out.add_argument("--format", choices=["json", "csv", "table"], default="json")
    out.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    p_delta = sub.add_parser("delta", parents=[common], help="delta at a given epsilon")
    p_delta.add_argument("--eps", type=float, required=True)

    p_eps = sub.add_parser("epsilon", parents=[common], help="epsilon for a given delta target")
    p_eps.add_argument("--delta", type=float, required=True)

    p_sweep = sub.add_parser("sweep", parents=[common], help="delta along a parameter range")
    p_sweep.add_argument("--over", choices=["eps", "k"], default="eps")
    p_sweep.add_argument("--start", type=float, help="first epsilon (eps sweeps)")
    p_sweep.add_argument("--stop", type=float, help="last epsilon (eps sweeps)")
    p_sweep.add_argument("--count", type=int, help=f"eps rows, 2 to {_MAX_SWEEP_COUNT}; default 10")
    p_sweep.add_argument("--values", help="comma-separated composition counts (k sweeps)")
    p_sweep.add_argument("--eps", type=float, help="fixed epsilon (k sweeps)")

    p_conv = sub.add_parser(
        "converge", parents=[common], help="doubling schedule over n or L with error estimates"
    )
    p_conv.add_argument("--over", choices=["n", "L"], default="n")
    p_conv.add_argument("--start", type=float, required=True, help="first n (or L)")
    p_conv.add_argument("--doublings", type=int, required=True)
    p_conv.add_argument("--eps", type=float, required=True)
    return parser


def _parse_number(text: str, kind, name: str, parser: argparse.ArgumentParser):
    """kind(text), or a flag error (exit 2) naming the malformed value."""
    try:
        return kind(text)
    except ValueError:
        parser.error(f"{name} must be {'an integer' if kind is int else 'a number'}, got {text!r}")


_MECH_NUMBERS = (("sigma", float), ("q", float), ("batch_size", int), ("dataset_size", int))


def _parse_mech_group(text: str, parser: argparse.ArgumentParser) -> tuple[MechanismSpec, int]:
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            parser.error(f"--mech entries are KEY=VAL pairs, got {item!r}")
        key, _, val = item.partition("=")
        if key.strip() in fields:
            parser.error(f"--mech group repeats key {key.strip()!r}")
        fields[key.strip()] = val.strip()
    count = _parse_number(fields.pop("count", "1"), int, "--mech count", parser)
    if "sigma" not in fields:
        parser.error("--mech group lacks required key 'sigma'")
    schemes = [s.value for s in Scheme]
    scheme_name = fields.pop("scheme", Scheme.POISSON.value)
    if scheme_name not in schemes:
        parser.error(f"--mech scheme must be one of {schemes}, got {scheme_name!r}")
    numbers = {
        key: _parse_number(fields.pop(key), kind, f"--mech {key}", parser)
        for key, kind in _MECH_NUMBERS
        if key in fields
    }
    if fields:
        parser.error(f"--mech group has unknown keys {sorted(fields)}")
    return MechanismSpec(scheme=Scheme(scheme_name), **numbers), count


def _build_query(args, parser, epsilon=None, delta=None) -> CompositionQuery:
    if args.n % 2:
        parser.error(f"--n must be even, got {args.n}")
    grid = Grid(half_width=args.L, size=args.n)
    flat = {key: getattr(args, key) for key in ("scheme", *dict(_MECH_NUMBERS), "k")}
    if args.mech:
        given = [f"--{key.replace('_', '-')}" for key, value in flat.items() if value is not None]
        if given:
            parser.error(f"--mech does not take the flat mechanism flags {', '.join(given)}")
        specs, counts = zip(*(_parse_mech_group(g, parser) for g in args.mech))
    else:
        if args.sigma is None:
            parser.error("--sigma is required (or use --mech groups)")
        scheme, k = Scheme(flat.pop("scheme") or Scheme.POISSON.value), flat.pop("k")
        specs, counts = (MechanismSpec(scheme=scheme, **flat),), (1 if k is None else k,)
    return CompositionQuery(
        specs=tuple(specs),
        counts=tuple(counts),
        grid=grid,
        epsilon=epsilon,
        delta=delta,
        directions=(Direction(args.direction),) if args.direction else None,
    )


def _report_dict(result: DeltaResult) -> dict:
    query = result.query
    specs, counts = query.specs, query.counts
    single = len(specs) == 1
    # The keys a --mech group takes, each left out if no spec sets it.
    fields = {"scheme": [spec.scheme.value for spec in specs]}
    fields.update({key: [getattr(spec, key) for spec in specs] for key, _kind in _MECH_NUMBERS})
    fields = {key: v[0] if single else v for key, v in fields.items() if set(v) != {None}}
    tail = error_bounds.tail_estimate(query)
    report = {
        "value": result.value,
        "kind": result.kind,
        "tail_estimate": tail.value,
        "tail_estimate_valid": tail.valid,
    }
    analytic = error_bounds.analytic_tail_bound(query)
    if analytic.valid:
        report["analytic_tail_bound"] = analytic.value
    estimate = error_bounds.discretization_estimate(result)
    report["discretization_estimate"] = estimate.value
    report.update(
        {
            "L": query.grid.half_width,
            "n": query.grid.size,
            "k": query.k,
            **fields,
            "directions": [name for name, _value in result.per_direction],
            "warnings": [*result.warnings, *estimate.violated],
        }
    )
    if not single:
        report["counts"] = list(counts)
    return report


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(_format_cell(v) for v in value)
    return str(value)


def _render(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        return json.dumps(_json_safe(payload), indent=2) + "\n"
    keys = list(rows[0].keys())
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_format_cell(row.get(key, "")) for key in keys])
        return buffer.getvalue()
    cells = [keys] + [[_format_cell(row.get(key, "")) for key in keys] for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(keys))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in cells]
    return "\n".join(lines) + "\n"


def _run_delta(args, parser) -> list[dict]:
    query = _build_query(args, parser, epsilon=args.eps)
    return [_report_dict(delta_of_epsilon(query))]


def _run_epsilon(args, parser) -> list[dict]:
    query = _build_query(args, parser, delta=args.delta)
    return [_report_dict(epsilon_of_delta(query))]


def _sweep_row(key: str, x, result: DeltaResult) -> dict:
    warnings = list(result.warnings)
    return {key: x, "value": result.value, "ell_eps": result.ell_eps, "warnings": warnings}


def _run_sweep(args, parser) -> list[dict]:
    # The flags of the other mode would be ignored.
    foreign = ("eps", "values") if args.over == "eps" else ("start", "stop", "count")
    given = [f"--{name}" for name in foreign if getattr(args, name) is not None]
    if given:
        parser.error(f"sweep --over {args.over} does not take {', '.join(given)}")
    if args.over == "eps":
        if args.start is None or args.stop is None:
            parser.error("sweep --over eps needs --start and --stop")
        count = 10 if args.count is None else args.count
        if not 2 <= count <= _MAX_SWEEP_COUNT:
            parser.error(f"sweep --count must be from 2 to {_MAX_SWEEP_COUNT}, got {count}")
        step = (args.stop - args.start) / (count - 1)
        if not math.isfinite(step):
            raise DomainError(
                f"sweep --start {args.start!r} and --stop {args.stop!r} must be finite epsilons"
                f" a finite distance apart, got the step {step!r}"
            )
        epsilons = [args.start + i * step for i in range(count)]
        results = delta_of_epsilons(_build_query(args, parser), epsilons)
        return [_sweep_row("eps", eps, result) for eps, result in zip(epsilons, results)]
    if not args.values:
        parser.error("sweep --over k needs --values, e.g. --values 1,2,4,8")
    if args.eps is None:
        parser.error("sweep --over k needs a fixed --eps")
    if args.mech:
        parser.error("sweep --over k takes the flat mechanism flags, not --mech")
    counts = [_parse_number(text, int, "--values entry", parser) for text in args.values.split(",")]
    query = _build_query(args, parser, epsilon=args.eps)
    queries = [dataclasses.replace(query, counts=(k,)) for k in counts]
    return [_sweep_row("k", row.k, delta_of_epsilon(row)) for row in queries]


def _run_converge(args, parser) -> list[dict]:
    if args.doublings < 0:
        parser.error("--doublings must be nonnegative")
    query = _build_query(args, parser, epsilon=args.eps)
    if args.over == "L":
        # ldexp doubles exactly; Grid rejects L > 700 before ldexp could overflow.
        grids = [Grid(math.ldexp(args.start, i), args.n) for i in range(args.doublings + 1)]
        results = [delta_of_epsilon(dataclasses.replace(query, grid=grid)) for grid in grids]
        tails = [error_bounds.tail_estimate(result.query) for result in results]
        return [
            {
                "L": result.query.grid.half_width,
                "value": result.value,
                "tail_estimate": tail.value,
                "tail_estimate_valid": tail.valid,
                "warnings": list(result.warnings),
            }
            for result, tail in zip(results, tails)
        ]
    if not args.start.is_integer() or args.start % 2:
        parser.error(f"converge --over n needs an even integer --start, got {args.start!r}")
    # One grid more than rows: the last row's estimate needs the doubled grid.
    grids = [Grid(args.L, int(args.start) * 2 ** i) for i in range(args.doublings + 2)]
    results = [delta_of_epsilon(dataclasses.replace(query, grid=grid)) for grid in grids]
    rows = []
    for result, refined in zip(results, results[1:]):
        value = result.value
        err = error_bounds.discretization_estimate(result, refined)
        rows.append(
            {
                "n": result.query.grid.size,
                "value": value,
                "err": err.value,
                "err_rel": err.value / value if value > 0 else math.inf,
                "warnings": [*result.warnings, *err.violated],
            }
        )
    return rows


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "delta": _run_delta,
        "epsilon": _run_epsilon,
        "sweep": _run_sweep,
        "converge": _run_converge,
    }
    try:
        rows = runners[args.subcommand](args, parser)
    except (AccountingError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError) else _EXIT_DOMAIN
    text = _render(rows, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return _EXIT_FLAGS
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
