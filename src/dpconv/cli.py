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
unwritable --out included), 3 domain errors, 4 non-convergence of a loss
inverse root finder.
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
from .errors import AccountingError, NonConvergenceError
from .mechanisms import Direction, MechanismSpec, Scheme

_DEFAULT_HALF_WIDTH = 20.0
_DEFAULT_SIZE = 2 ** 22

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
    mech.add_argument("--scheme", choices=[s.value for s in Scheme], default=Scheme.POISSON.value)
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
    mech.add_argument("--k", type=int, default=1, help="number of compositions")
    mech.add_argument(
        "--mech",
        action="append",
        metavar="KEY=VAL,...",
        help="one heterogeneous mechanism group, e.g. scheme=poisson,sigma=1.5,q=0.01,count=10;"
        " repeat per distinct mechanism (overrides the flat mechanism flags)",
    )
    num = common.add_argument_group("numerics")
    num.add_argument(
        "--L", type=float, default=_DEFAULT_HALF_WIDTH, help="truncation radius, at most 700"
    )
    num.add_argument("--n", type=int, default=_DEFAULT_SIZE, help="grid size (even)")
    num.add_argument(
        "--newton-tol",
        type=float,
        default=1e-10,
        help="absolute delta tolerance of the epsilon inversion: a target this close to"
        " delta(0) gives epsilon 0, and the delta at the returned epsilon must lie this"
        " close to the target",
    )
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
    p_sweep.add_argument("--count", type=int, default=10, help="number of rows (eps sweeps)")
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
    if args.mech:
        specs, counts = zip(*(_parse_mech_group(g, parser) for g in args.mech))
    else:
        if args.sigma is None:
            parser.error("--sigma is required (or use --mech groups)")
        spec = MechanismSpec(
            sigma=args.sigma,
            scheme=Scheme(args.scheme),
            q=args.q,
            batch_size=args.batch_size,
            dataset_size=args.dataset_size,
        )
        specs, counts = (spec,), (args.k,)
    return CompositionQuery(
        specs=tuple(specs),
        counts=tuple(counts),
        grid=grid,
        epsilon=epsilon,
        delta=delta,
        newton_tolerance=args.newton_tol,
        directions=(Direction(args.direction),) if args.direction else None,
    )


def _report_dict(result: DeltaResult, include_estimates: bool = True) -> dict:
    query = result.query
    specs, counts = query.specs, query.counts
    single = len(specs) == 1

    def field(getter):
        values = [getter(s) for s in specs]
        return values[0] if single else values

    report = {
        "value": result.value,
        "kind": result.kind,
        "tail_estimate": result.tail_estimate,
        "tail_estimate_valid": result.tail_estimate_valid,
    }
    if include_estimates:
        analytic = error_bounds.analytic_tail_bound(query)
        if analytic.valid:
            report["analytic_tail_bound"] = analytic.value
        base_query = query
        if query.epsilon is None:
            base_query = dataclasses.replace(query, epsilon=result.epsilon, delta=None)
        report["discretization_estimate"] = error_bounds.discretization_estimate(
            base_query, value=result.delta
        )
    report.update(
        {
            "L": query.grid.half_width,
            "n": query.grid.size,
            "k": query.k,
            "scheme": field(lambda s: s.scheme.value),
            "sigma": field(lambda s: s.sigma),
            "q": field(lambda s: s.q if s.q is not None else s.draw_probability),
            "directions": [name for name, _value in result.per_direction],
            "warnings": list(result.warnings),
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


def _run_sweep(args, parser) -> list[dict]:
    rows = []
    if args.over == "eps":
        if args.start is None or args.stop is None:
            parser.error("sweep --over eps needs --start and --stop")
        if args.count < 2:
            parser.error("sweep --count must be at least 2")
        step = (args.stop - args.start) / (args.count - 1)
        epsilons = [args.start + i * step for i in range(args.count)]
        results = delta_of_epsilons(_build_query(args, parser), epsilons)
        for eps, result in zip(epsilons, results):
            rows.append(
                {
                    "eps": eps,
                    "value": result.value,
                    "ell_eps": result.ell_eps,
                    "warnings": list(result.warnings),
                }
            )
    else:
        if not args.values:
            parser.error("sweep --over k needs --values, e.g. --values 1,2,4,8")
        if args.eps is None:
            parser.error("sweep --over k needs a fixed --eps")
        if args.mech:
            parser.error("sweep --over k applies to the flat mechanism flags only")
        counts = [
            _parse_number(text, int, "--values entry", parser) for text in args.values.split(",")
        ]
        for k in counts:
            probe = argparse.Namespace(**vars(args))
            probe.k = k
            query = _build_query(probe, parser, epsilon=args.eps)
            result = delta_of_epsilon(query)
            rows.append(
                {
                    "k": k,
                    "value": result.value,
                    "ell_eps": result.ell_eps,
                    "warnings": list(result.warnings),
                }
            )
    return rows


def _run_converge(args, parser) -> list[dict]:
    if args.doublings < 0:
        parser.error("--doublings must be nonnegative")
    rows = []
    if args.over == "n":
        if not args.start.is_integer():
            parser.error(f"converge --over n needs an integer --start, got {args.start!r}")
        start = int(args.start)
        sizes = [start * 2 ** i for i in range(args.doublings + 1)]
        queries, values = {}, {}
        for size in sizes + [sizes[-1] * 2]:
            probe = argparse.Namespace(**vars(args))
            probe.n = size
            queries[size] = _build_query(probe, parser, epsilon=args.eps)
            values[size] = delta_of_epsilon(queries[size]).value
        for size in sizes:
            err = error_bounds.discretization_estimate(
                queries[size], value=values[size], refined=values[size * 2]
            )
            rows.append(
                {
                    "n": size,
                    "value": values[size],
                    "err": err,
                    "err_rel": err / values[size] if values[size] > 0 else math.inf,
                }
            )
    else:
        for i in range(args.doublings + 1):
            half = args.start * 2 ** i
            probe = argparse.Namespace(**vars(args))
            probe.L = half
            query = _build_query(probe, parser, epsilon=args.eps)
            result = delta_of_epsilon(query)
            rows.append(
                {
                    "L": half,
                    "value": result.value,
                    "tail_estimate": result.tail_estimate,
                    "tail_estimate_valid": result.tail_estimate_valid,
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
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NONCONVERGENCE
    except AccountingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
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
