"""The command-line front-end: parsing, serialization, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconv import (
    CompositionQuery,
    Direction,
    Grid,
    GridTooSmallError,
    MechanismSpec,
    NonConvergenceError,
    delta_of_epsilon,
    discretization_estimate,
    discretize,
    epsilon_of_delta,
    spectral,
)
import dpconv.mechanisms
from dpconv.accountant import delta_of_epsilons
from dpconv.cli import build_parser, main

BASE = [
    "--scheme",
    "poisson",
    "--sigma",
    "1.5",
    "--q",
    "0.01",
    "--k",
    "100",
    "--L",
    "12",
    "--n",
    "16384",
]


WR_FLAT = [
    "--scheme", "with-replacement", "--sigma", "1", "--batch-size", "64",
    "--dataset-size", "6400", "--k", "10",
]
WR_GRID = ["--L", "12", "--n", "4096"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def library_delta(eps=1.0, k=100, size=16384, sigma=1.5, q=0.01, half_width=12.0):
    spec = MechanismSpec(sigma=sigma, q=q)
    grid = Grid(half_width=half_width, size=size)
    return delta_of_epsilon(CompositionQuery.homogeneous(spec, k, grid, epsilon=eps))


def restricted_query(direction="y-over-x", k=100, size=16384, **target):
    """The flat-flag composition of BASE, restricted to one direction."""
    return CompositionQuery(
        specs=(MechanismSpec(sigma=1.5, q=0.01),),
        counts=(k,),
        grid=Grid(half_width=12.0, size=size),
        directions=(Direction(direction),),
        **target,
    )


class TestDeltaSubcommand:
    def test_json_report_matches_library(self, capsys):
        code, out, err = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["value"] == library_delta().value
        assert report["kind"] == "delta"
        assert report["L"] == 12.0 and report["n"] == 16384 and report["k"] == 100
        assert report["scheme"] == "poisson"
        assert report["directions"] == ["x-over-y", "y-over-x"]
        # BASE's grid composes each direction to mass 0.98, which is named.
        assert report["warnings"] == list(library_delta().warnings)
        assert len(report["warnings"]) == 2
        assert all("falls short of 1" in warning for warning in report["warnings"])
        assert report["tail_estimate_valid"] is True
        assert report["discretization_estimate"] >= 0.0

    def test_key_order_is_stable(self, capsys):
        _, out, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        keys = list(json.loads(out).keys())
        assert keys == [
            "value",
            "kind",
            "tail_estimate",
            "tail_estimate_valid",
            "discretization_estimate",
            "L",
            "n",
            "k",
            "scheme",
            "sigma",
            "q",
            "directions",
            "warnings",
        ]

    def test_deterministic_rerun(self, capsys):
        _, first, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        _, second, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        assert first == second

    def test_csv_carries_identical_numbers(self, capsys):
        _, json_out, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        _, csv_out, _ = run_cli(["delta", *BASE, "--eps", "1.0", "--format", "csv"], capsys)
        report = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == 1
        assert float(rows[0]["value"]) == report["value"]
        assert float(rows[0]["tail_estimate"]) == report["tail_estimate"]

    def test_table_format_renders(self, capsys):
        code, out, _ = run_cli(["delta", *BASE, "--eps", "1.0", "--format", "table"], capsys)
        assert code == 0
        header, row = out.splitlines()[:2]
        assert "value" in header and "tail_estimate" in header

    def test_empty_sum_warning(self, capsys):
        code, out, _ = run_cli(["delta", *BASE, "--eps", "15.0"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 0.0
        composed = list(library_delta().warnings)
        assert report["warnings"] == sorted([*composed, "epsilon exceeds truncation radius"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(["delta", *BASE, "--eps", "1.0", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["kind"] == "delta"

    @pytest.mark.parametrize("target", ["", "missing/report.json"], ids=["directory", "missing"])
    def test_unwritable_out_is_two(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(["delta", *BASE, "--eps", "1.0", "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_direction_flag_restricts(self, capsys):
        _, out, _ = run_cli(
            ["delta", *BASE, "--eps", "1.0", "--direction", "y-over-x"], capsys
        )
        report = json.loads(out)
        assert report["directions"] == ["y-over-x"]
        _, full, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        assert report["value"] <= json.loads(full)["value"]

    def test_heterogeneous_groups_match_flat_flags(self, capsys):
        _, flat, _ = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        _, grouped, _ = run_cli(
            [
                "delta",
                "--mech",
                "scheme=poisson,sigma=1.5,q=0.01,count=60",
                "--mech",
                "scheme=poisson,sigma=1.5,q=0.01,count=40",
                "--eps",
                "1.0",
                "--L",
                "12",
                "--n",
                "16384",
            ],
            capsys,
        )
        flat_value = json.loads(flat)["value"]
        report = json.loads(grouped)
        assert report["k"] == 100
        assert report["counts"] == [60, 40]
        assert report["value"] == pytest.approx(flat_value, abs=1e-12)

    def test_with_replacement_report_feeds_back_as_a_mech_group(self, capsys):
        _, out, _ = run_cli(["delta", *WR_FLAT, *WR_GRID, "--eps", "1"], capsys)
        report = json.loads(out)
        assert "q" not in report
        assert (report["batch_size"], report["dataset_size"]) == (64, 6400)
        keys = ("scheme", "sigma", "batch_size", "dataset_size")
        mech = ",".join(f"{key}={report[key]}" for key in keys) + f",count={report['k']}"
        _, again, _ = run_cli(["delta", "--mech", mech, *WR_GRID, "--eps", "1"], capsys)
        assert json.loads(again)["value"] == report["value"]

    def test_mixed_report_leaves_a_field_one_mechanism_lacks_empty(self, capsys):
        groups = [
            "--mech", "scheme=poisson,sigma=1.5,q=0.01,count=5",
            "--mech", "scheme=with-replacement,sigma=1,batch_size=64,dataset_size=6400,count=5",
        ]
        argv = ["delta", *groups, *WR_GRID, "--eps", "1"]
        _, out, _ = run_cli(argv, capsys)
        report = json.loads(out)
        assert report["scheme"] == ["poisson", "with-replacement"]
        assert report["q"] == [0.01, None]
        assert report["batch_size"] == [None, 64]
        assert report["dataset_size"] == [None, 6400]
        _, csv_out, _ = run_cli([*argv, "--format", "csv"], capsys)
        row = next(csv.DictReader(io.StringIO(csv_out)))
        assert (row["q"], row["batch_size"], row["dataset_size"]) == ("0.01;", ";64", ";6400")
        # The doubled grid behind discretization_estimate, n = 8192, names no
        # factor but composes to 0.944 in both directions.
        _, out, _ = run_cli(["delta", *groups, "--L", "12", "--n", "8192", "--eps", "1"], capsys)
        wr = "5 x mechanism (sigma=1.0, scheme=with-replacement, batch_size=64, dataset_size=6400)"
        doubled = json.loads(out)["warnings"]
        assert doubled == [
            f"composed mass {mass} of {wr} + 5 x mechanism (sigma=1.5, scheme=poisson, q=0.01, "
            f"direction={direction}) falls short of 1: the grid under-resolves or truncates the "
            "composition"
            for mass, direction in (("0.943754", "y-over-x"), ("0.944228", "x-over-y"))
        ]
        # The n = 4096 report, whose estimate rests on that run, names them
        # after its own two sampled-mass warnings.
        assert report["warnings"][2:] == [f"n=8192: {w}" for w in doubled]
        assert all(w.startswith("sampled mass") for w in report["warnings"][:2])


class TestAnalyticBound:
    """The rigorous tail bound is printed only inside its envelope."""

    GRID = ["--L", "20", "--n", "65536", "--eps", "1"]

    def report(self, mechanism, capsys):
        code, out, _ = run_cli(["delta", *mechanism, *self.GRID], capsys)
        assert code == 0
        return json.loads(out)

    def test_inside_the_envelope(self, capsys):
        report = self.report(["--sigma", "4", "--q", "0.01", "--k", "1000"], capsys)
        assert report["analytic_tail_bound"] == 5.468250028726255e-87

    def test_mixed_groups_multiply_their_growth_factors(self, capsys):
        groups = [
            "--mech", "scheme=poisson,sigma=4,q=0.01,count=500",
            "--mech", "scheme=poisson,sigma=5,q=0.02,count=300",
        ]
        report = self.report(groups, capsys)
        growth = [2.0 * q * q * 11.0 * 10.0 / (s * s) for s, q in ((4.0, 0.01), (5.0, 0.02))]
        want = (1 + growth[0]) ** 500 * (1 + growth[1]) ** 300 * np.exp(-200.0)
        assert report["analytic_tail_bound"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "mechanism",
        [
            ["--sigma", "1.5", "--q", "0.01", "--k", "100"],
            ["--scheme", "with-replacement", "--sigma", "4", "--batch-size", "8",
             "--dataset-size", "6400", "--k", "10"],
            ["--mech", "scheme=poisson,sigma=4,q=0.01,count=5", "--mech",
             "scheme=poisson,sigma=3,q=0.01,count=5"],
        ],
        ids=["sigma-below-4", "with-replacement", "one-group-outside"],
    )
    def test_omitted_outside_the_envelope(self, mechanism, capsys):
        assert "analytic_tail_bound" not in self.report(mechanism, capsys)

    def test_beyond_the_double_range_prints_inf(self, capsys):
        # exp(709) is the largest power of e a double holds; the library
        # returns inf above it, and so does the report.
        code, out, _ = run_cli(
            ["delta", "--sigma", "4", "--q", "0.2", "--k", "100000", "--L", "8", "--n", "65536",
             "--eps", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["analytic_tail_bound"] == "inf"


class TestEpsilonSubcommand:
    def test_round_trip(self, capsys):
        target = library_delta(eps=0.8).value
        code, out, _ = run_cli(["epsilon", *BASE, "--delta", repr(target)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "epsilon"
        assert report["value"] == pytest.approx(0.8, abs=1e-6)

    def test_estimate_reuses_achieved_delta_bitwise(self, capsys):
        _, out, _ = run_cli(["epsilon", *BASE, "--delta", "1e-5"], capsys)
        report = json.loads(out)
        query = CompositionQuery.homogeneous(
            MechanismSpec(sigma=1.5, q=0.01), 100, Grid(half_width=12.0, size=16384),
            epsilon=report["value"],
        )
        # The forward pipeline, run again at that epsilon, gives the same I_n.
        estimate = discretization_estimate(delta_of_epsilon(query))
        assert report["discretization_estimate"] == estimate.value


class TestSweepSubcommand:
    def test_eps_sweep_monotone(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *BASE, "--over", "eps", "--start", "0.2", "--stop", "1.4", "--count", "4"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["eps"] for r in rows] == [0.2, 0.6, 1.0, 1.4]
        values = [r["value"] for r in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_eps_sweep_defaults_to_ten_rows(self, capsys):
        code, out, _ = run_cli(["sweep", *BASE, "--start", "0", "--stop", "0.9"], capsys)
        assert code == 0
        assert [row["eps"] for row in json.loads(out)] == [i * 0.1 for i in range(10)]

    def test_eps_sweep_convolves_once_per_direction(self, capsys, monkeypatch):
        # One forward transform per distinct factor (the Poisson density in
        # each direction) and one inverse per direction, for all four rows.
        calls = []

        def counting(name, original):
            def transform(buffer, **kwargs):
                calls.append((name, buffer.size))
                return original(buffer, **kwargs)

            return transform

        for name in ("fft", "ifft"):
            monkeypatch.setattr(scipy.fft, name, counting(name, getattr(scipy.fft, name)))
        code, out, _ = run_cli(
            ["sweep", *BASE, "--over", "eps", "--start", "0.2", "--stop", "1.4", "--count", "4"],
            capsys,
        )
        assert code == 0
        assert sorted(calls) == [("fft", 16384)] * 2 + [("ifft", 16384)] * 2
        monkeypatch.undo()
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [library_delta(eps=r["eps"]).value for r in rows]

    def test_k_sweep(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *BASE, "--over", "k", "--values", "1,2,4", "--eps", "0.5"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["k"] for r in rows] == [1, 2, 4]
        assert all(r["value"] >= 0 for r in rows)


class TestConvergeSubcommand:
    def test_doubling_schedule_over_n(self, capsys):
        code, out, _ = run_cli(
            [
                "converge",
                *BASE,
                "--over",
                "n",
                "--start",
                "4096",
                "--doublings",
                "2",
                "--eps",
                "1.0",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [4096, 8192, 16384]
        for row in rows:
            i_n = library_delta(size=row["n"]).value
            i_2n = library_delta(size=2 * row["n"]).value
            assert row["value"] == i_n
            assert row["err"] == pytest.approx(2.0 * abs(i_n - i_2n), rel=1e-12)

    def test_with_replacement_over_n_builds_one_loss_table(self, capsys, fresh_wr_tables):
        # Five grids of radius 12, the last for the last row's estimate: the
        # loss table is built for the first and kept for the other four.
        argv = ["converge", *WR_FLAT, "--L", "12", "--eps", "1", "--over", "n",
                "--start", "1024", "--doublings", "3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(json.loads(out)) == 4
        info = dpconv.mechanisms._wr_loss_table.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_doubling_schedule_over_half_width(self, capsys):
        code, out, _ = run_cli(
            [
                "converge",
                "--scheme",
                "poisson",
                "--sigma",
                "1.5",
                "--q",
                "0.01",
                "--k",
                "100",
                "--n",
                "16384",
                "--over",
                "L",
                "--start",
                "6",
                "--doublings",
                "1",
                "--eps",
                "1.0",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["L"] for r in rows] == [6.0, 12.0]
        assert rows[1]["tail_estimate"] < rows[0]["tail_estimate"]


class TestRowsAreTheirOwnCommands:
    """Each row of a k sweep or a convergence table equals, bit for bit, the
    delta command that sets that row's flag; the later flag wins."""

    def delta_report(self, capsys, *flags):
        code, out, _ = run_cli(["delta", *BASE, *flags], capsys)
        assert code == 0
        return json.loads(out)

    def test_k_sweep(self, capsys):
        argv = ["sweep", *BASE, "--over", "k", "--values", "1,3,7", "--eps", "0.5"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for row in json.loads(out):
            report = self.delta_report(capsys, "--k", str(row["k"]), "--eps", "0.5")
            assert (row["value"], row["warnings"]) == (report["value"], report["warnings"])

    def test_converge_over_n(self, capsys):
        argv = ["converge", *BASE, "--over", "n", "--start", "2048", "--doublings", "2",
                "--eps", "1.0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [2048, 4096, 8192]
        for row in rows:
            report = self.delta_report(capsys, "--n", str(row["n"]), "--eps", "1.0")
            i_n, warnings = report["value"], report["warnings"]
            i_2n = self.delta_report(capsys, "--n", str(2 * row["n"]), "--eps", "1.0")["value"]
            assert (row["value"], row["warnings"]) == (i_n, warnings)
            assert row["err"] == 2.0 * abs(i_n - i_2n)
        # At n = 4096 each direction's sampled mass exceeds 1 and is named; at
        # 2048, 8192 and 16384 each direction's composed mass falls short of 1.
        # A row names its doubled grid's warnings after its own.
        kinds = [[w.split(" mass ")[0] for w in row["warnings"]] for row in rows]
        assert kinds == [
            ["composed"] * 2 + ["n=4096: sampled"] * 2,
            ["sampled"] * 2 + ["n=8192: composed"] * 2,
            ["composed"] * 2 + ["n=16384: composed"] * 2,
        ]

    def test_converge_over_half_width(self, capsys):
        argv = ["converge", *BASE, "--over", "L", "--start", "3", "--doublings", "2",
                "--eps", "1.0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["L"] for r in rows] == [3.0, 6.0, 12.0]
        for row in rows:
            report = self.delta_report(capsys, "--L", repr(row["L"]), "--eps", "1.0")
            assert (row["value"], row["tail_estimate"], row["warnings"]) == (
                report["value"], report["tail_estimate"], report["warnings"]
            )


class TestDirectionFlag:
    """--direction restricts every subcommand, error estimates included."""

    Y = ["--direction", "y-over-x"]

    def test_delta_estimate_is_that_directions_own_gap(self, capsys):
        flags = [*BASE[:7], "1000", "--L", "12", "--n", "65536", *self.Y]
        _, out, _ = run_cli(["delta", *flags, "--eps", "1.0"], capsys)
        report = json.loads(out)
        i_n = delta_of_epsilon(restricted_query(k=1000, size=65536, epsilon=1.0)).value
        i_2n = delta_of_epsilon(restricted_query(k=1000, size=131072, epsilon=1.0)).value
        assert report["directions"] == ["y-over-x"]
        assert report["value"] == i_n
        assert report["discretization_estimate"] == 2.0 * abs(i_n - i_2n)
        # The two directions' deltas differ by about 5e-6 here, so an estimate
        # mixing them could not meet this bound.
        assert report["discretization_estimate"] < 1e-8

    def test_epsilon(self, capsys):
        _, out, _ = run_cli(["epsilon", *BASE, *self.Y, "--delta", "1e-5"], capsys)
        report = json.loads(out)
        assert report["directions"] == ["y-over-x"]
        assert report["value"] == epsilon_of_delta(restricted_query(delta=1e-5)).value
        _, full, _ = run_cli(["epsilon", *BASE, "--delta", "1e-5"], capsys)
        assert report["value"] < json.loads(full)["value"]

    def test_sweep_over_eps_and_k(self, capsys):
        _, out, _ = run_cli(
            ["sweep", *BASE, *self.Y, "--over", "eps", "--start", "0.2", "--stop", "1.4",
             "--count", "4"],
            capsys,
        )
        rows = json.loads(out)
        expected = delta_of_epsilons(restricted_query(), [r["eps"] for r in rows])
        assert [r["value"] for r in rows] == [e.value for e in expected]
        _, out, _ = run_cli(
            ["sweep", *BASE, *self.Y, "--over", "k", "--values", "1,4", "--eps", "0.5"], capsys
        )
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [
            delta_of_epsilon(restricted_query(k=k, epsilon=0.5)).value for k in (1, 4)
        ]

    def test_converge(self, capsys):
        _, out, _ = run_cli(
            ["converge", *BASE, *self.Y, "--over", "n", "--start", "8192", "--doublings", "1",
             "--eps", "1.0"],
            capsys,
        )
        rows = json.loads(out)
        values = [
            delta_of_epsilon(restricted_query(size=size, epsilon=1.0)).value
            for size in (8192, 16384, 32768)
        ]
        assert [r["value"] for r in rows] == values[:2]
        assert [r["err"] for r in rows] == [2.0 * abs(a - b) for a, b in zip(values, values[1:])]


SMALL = ["--L", "8", "--n", "1024"]
WR_FIELDS = {"batch_size": "2", "dataset_size": "10"}
POISSON_FIELDS = {"sigma": "1.5", "q": "0.01", "count": "2"}


def numeric_argv(slot: str, token: str) -> list[str]:
    """A small delta (or k-sweep) command with token in one numeric slot."""
    if slot == "values":
        return ["sweep", "--sigma", "1.5", "--q", "0.01", *SMALL, "--over", "k",
                "--values", f"1,{token}", "--eps", "1"]
    if slot in WR_FIELDS:
        fields = {"scheme": "with-replacement", "sigma": "1", **WR_FIELDS, slot: token}
    else:
        fields = {"scheme": "poisson", **POISSON_FIELDS, slot: token}
    mech = ",".join(f"{key}={value}" for key, value in fields.items())
    return ["delta", "--mech", mech, *SMALL, "--eps", "1"]


SLOTS = ["count", "sigma", "q", "batch_size", "dataset_size", "values"]


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "slot, token",
        [("count", "abc"), ("sigma", "x"), ("q", ""), ("batch_size", ""),
         ("dataset_size", ""), ("values", "x")],
    )
    def test_flag_error_not_traceback(self, slot, token, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(numeric_argv(slot, token))
        assert excinfo.value.code == 2
        assert repr(token) in capsys.readouterr().err

    @settings(max_examples=50, deadline=None)
    @given(slot=st.sampled_from(SLOTS), token=st.text(alphabet="0123456789.eE+-_x ", max_size=6))
    def test_any_token_ends_in_a_documented_exit_code(self, slot, token):
        sink = io.StringIO()
        # Well-formed extremes such as sigma=1e-150 overflow squares inside the
        # density, which numpy reports as warnings; only the exit code is checked.
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), np.errstate(
            all="ignore"
        ):
            try:
                code = main(numeric_argv(slot, token))
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4)


class TestExitCodes:
    def test_flag_error_is_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["delta", *BASE[:-1], "16383", "--eps", "1.0"])  # odd n
        assert excinfo.value.code == 2

    def test_missing_sigma_is_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["delta", "--q", "0.01", "--eps", "1.0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["delta", "--mech", "sigma1.5", "--eps", "1"], "--mech"),
            (["delta", "--mech", "q=0.01", "--eps", "1"], "--mech"),
            (["delta", "--mech", "scheme=gaussian,sigma=1", "--eps", "1"], "--mech"),
            (["delta", "--mech", "sigma=1,q=0.01,noise=2", "--eps", "1"], "--mech"),
            (["sweep", *BASE, "--over", "eps", "--start", "0"], "--stop"),
            (["sweep", *BASE, "--over", "k", "--eps", "1"], "--values"),
            (["sweep", *BASE, "--over", "k", "--values", "1,2"], "--eps"),
            (["sweep", "--mech", "sigma=1.5,q=0.01", "--over", "k", "--values", "1,2",
              "--eps", "1"], "--mech"),
            (["converge", *BASE, "--start", "2048", "--doublings", "-1", "--eps", "1"],
             "--doublings"),
            (["epsilon", *BASE, "--delta", "1e-5", "--newton-tol", "1e-10"], "--newton-tol"),
            # Each of these was once dropped silently: the last repeated key
            # won, and a sweep ignored the other mode's flags.
            (["delta", "--mech", "sigma=1.5,q=0.01,count=5,count=9", "--eps", "1"],
             "--mech group repeats key 'count'"),
            (["delta", "--mech", "sigma=1.5, sigma =2,q=0.01", "--eps", "1"],
             "--mech group repeats key 'sigma'"),
            (["sweep", *BASE, "--over", "eps", "--start", "0", "--stop", "1", "--eps", "9",
              "--values", "3"], "sweep --over eps does not take --eps, --values"),
            (["sweep", *BASE, "--start", "0", "--stop", "1", "--values", "3"],
             "sweep --over eps does not take --values"),
            (["sweep", *BASE, "--over", "k", "--values", "1,2", "--eps", "1", "--start", "4",
              "--stop", "5", "--count", "3"], "sweep --over k does not take --start, --stop, --count"),
            (["sweep", *BASE, "--over", "k", "--values", "1,2", "--eps", "1", "--count", "10"],
             "sweep --over k does not take --count"),
        ],
        ids=["mech-no-equals", "mech-no-sigma", "mech-unknown-scheme", "mech-unknown-key",
             "sweep-eps-no-stop", "sweep-k-no-values", "sweep-k-no-eps", "sweep-k-mech",
             "converge-negative-doublings", "newton-tol-unknown", "mech-repeated-key",
             "mech-repeated-spaced-key", "sweep-eps-with-k-flags", "sweep-default-with-values",
             "sweep-k-with-eps-flags", "sweep-k-with-default-count"],
    )
    def test_flag_error_names_its_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and flag in errors[0]

    def test_domain_error_is_three(self, capsys):
        code, out, err = run_cli(["delta", *BASE, "--eps", "-1.0"], capsys)
        assert code == 3
        assert out == "" and "epsilon" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--eps", "nan"],
            ["sweep", "--over", "eps", "--start", "nan", "--stop", "1.0"],
            ["sweep", "--over", "k", "--values", "1,2", "--eps", "nan"],
        ],
        ids=["delta", "sweep-eps", "sweep-k"],
    )
    def test_nan_epsilon_is_three(self, capsys, argv):
        code, out, err = run_cli([*argv, *BASE], capsys)
        assert code == 3
        assert out == "" and "epsilon" in err

    @pytest.mark.parametrize(
        "bounds",
        [["--start", "1", "--stop", "inf"], ["--start=-1e308", "--stop", "1e308"]],
        ids=["infinite-stop", "overflowing-span"],
    )
    def test_infinite_eps_step_is_three_and_names_the_flags(self, capsys, bounds):
        code, out, err = run_cli(["sweep", "--over", "eps", *bounds, *BASE], capsys)
        assert code == 3 and out == ""
        assert "--start" in err and "--stop" in err and "epsilon" in err
        assert "nan" not in err

    def test_overflowing_grid_spacing_is_three(self, capsys):
        flags = ["--sigma", "1.5", "--q", "0.01", "--k", "10", "--n", "1024", "--L", "1e308"]
        code, out, err = run_cli(["delta", "--eps", "1", *flags], capsys)
        assert code == 3
        assert out == "" and "grid spacing" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--sigma", "1e200", "--L", "8", "--n", "1024", "--eps", "1"],
            ["delta", "--sigma", "1.5", "--L", "800", "--n", "4096", "--eps", "1"],
            ["epsilon", "--sigma", "1.5", "--L", "800", "--n", "4096", "--delta", "1e-5"],
        ],
        ids=["sigma", "delta-L", "epsilon-L"],
    )
    def test_overflowing_sigma_or_half_width_is_three(self, capsys, argv):
        # Each would overflow the density arithmetic into a NaN result.
        code, out, err = run_cli([*argv, "--q", "0.01", "--k", "2"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid_too_small_is_three_from_the_calling_thread(self, capsys, monkeypatch):
        # log(1 - q) = -11.5 lies outside [-10, 10) in both directions. The
        # support is checked in the calling thread before any factor builds,
        # so the x-over-y check fails there first and nothing is transformed.
        failed, built = [], []
        check = spectral.check_support

        def recorded(spec, grid):
            try:
                check(spec, grid)
            except GridTooSmallError:
                failed.append((spec.direction, threading.current_thread().name))
                raise

        monkeypatch.setattr(spectral, "check_support", recorded)
        monkeypatch.setattr(spectral, "_factor_spectrum", lambda *args: built.append(args))
        flags = ["--sigma", "1.5", "--q", "0.99999", "--L", "10", "--n", "4096", "--k", "10"]
        code, out, err = run_cli(["delta", *flags, "--eps", "1.0"], capsys)
        assert code == 3 and out == ""
        with pytest.raises(GridTooSmallError) as expected:
            discretize(MechanismSpec(sigma=1.5, q=0.99999), Grid(half_width=10.0, size=4096))
        assert err == f"error: {expected.value}\n"
        assert failed == [(Direction.X_OVER_Y, threading.current_thread().name)]
        assert built == []

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sweep", "--over", "k", "--values", "1,2", "--eps", "1", "--k", "0"], 3),
            (["converge", "--over", "n", "--start", "2048", "--doublings", "1", "--eps", "1",
              "--n", "3"], 2),
            (["converge", "--over", "n", "--start", "2047", "--doublings", "1", "--eps", "1"], 2),
            (["converge", "--over", "L", "--start", "6", "--doublings", "1", "--eps", "1",
              "--L", "800"], 3),
        ],
        ids=["sweep-k-zero", "converge-odd-n", "converge-odd-start", "converge-wide-L"],
    )
    def test_flags_a_row_overrides_are_still_checked(self, capsys, argv, code):
        flags = ["--sigma", "1.5", "--q", "0.01", "--L", "12", "--n", "4096"]
        try:
            got, out, err = run_cli([*argv[:1], *flags, *argv[1:]], capsys)
        except SystemExit as exc:
            got, out, err = exc.code, "", capsys.readouterr().err
        assert (got, out) == (code, "")
        assert err.count("error: ") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--n", "1" + "0" * 30, "--eps", "1"],
            ["converge", "--over", "n", "--start", "1e300", "--doublings", "1", "--eps", "1"],
            ["converge", "--over", "n", "--start", "4096", "--doublings", "2000", "--eps", "1"],
        ],
        ids=["delta-n", "converge-start", "converge-doublings"],
    )
    def test_unaddressable_grid_is_three_before_any_pipeline(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("dpconv.cli.delta_of_epsilon", pytest.fail)
        flags = ["--sigma", "1.5", "--q", "0.01", "--L", "12"]
        code, out, err = run_cli([*argv[:1], *flags, *argv[1:]], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: size ") and err.count("\n") == 1

    def test_sweep_count_above_its_bound_is_two(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "2 to 1000000" in " ".join(capsys.readouterr().out.split())
        argv = ["sweep", *BASE, "--over", "eps", "--start", "0", "--stop", "1", "--count"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "1000001"])
        assert excinfo.value.code == 2
        assert "--count must be from 2 to 1000000, got 1000001" in capsys.readouterr().err

    def test_without_replacement_beyond_s_355_is_finite(self, capsys):
        argv = ["delta", "--scheme", "without-replacement", "--sigma", "1", "--q", "0.5",
                "--L", "400", "--n", "4096", "--eps", "1"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        value = json.loads(out)["value"]
        assert isinstance(value, float) and 0.0 < value < 1.0

    def test_without_replacement_at_tiny_sigma_ends_in_one_error_line(self, capsys):
        # c = q exp(-1/(2 sigma^2)) is 0: the density is a point mass at s = 0.
        argv = ["delta", "--scheme", "without-replacement", "--sigma", "1e-3", "--q", "0.5",
                "--L", "12", "--n", "4096", "--eps", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 3)
        if code == 3:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raised, message",
        [(MemoryError("Unable to allocate 256. GiB"), "Unable to allocate 256. GiB"),
         (MemoryError(), "out of memory")],
    )
    def test_memory_error_is_three(self, capsys, monkeypatch, raised, message):
        def exhaust(query):
            raise raised

        monkeypatch.setattr("dpconv.cli.delta_of_epsilon", exhaust)
        code, out, err = run_cli(["delta", *BASE, "--eps", "1"], capsys)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_huge_sizes_under_an_address_space_limit(self):
        # In a child process capped at 3 GiB of address space: a 256 GiB
        # buffer, and a sweep count that once filled memory with epsilons.
        script = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            "from dpconv.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        flags = ["--sigma", "1.5", "--q", "0.01", "--L", "12"]
        cases = [
            (["delta", *flags, "--n", str(2 ** 34), "--eps", "1"], 3),
            (["sweep", *flags, "--n", "4096", "--over", "eps", "--start", "0", "--stop", "1",
              "--count", "1" + "0" * 20], 2),
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv, code in cases:
            child = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert child.returncode == code, child.stderr
            assert child.stdout == "" and child.stderr.count("error: ") == 1
            assert "Traceback" not in child.stderr

    @pytest.mark.parametrize(
        "mechanism",
        [
            ["--sigma", "4", "--q", "5e-324"],
            ["--mech", "scheme=without-replacement,sigma=4,q=5e-324,count=1"],
        ],
        ids=["poisson", "without-replacement"],
    )
    def test_subnormal_q_is_three_without_a_warning(self, mechanism):
        # In a child process with numpy's warnings shown, as a user sees them.
        script = "import sys; from dpconv.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["delta", *mechanism, "--L", "3", "--n", "1024", "--eps", "1"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 3 and child.stdout == ""
        assert child.stderr.count("error: ") == 1 and child.stderr.startswith("error: q must")
        assert "RuntimeWarning" not in child.stderr

    def test_residue_error_from_workers_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_IMAG_RESIDUE_TOL", -1.0)
        code, out, err = run_cli(["delta", *BASE, "--eps", "1.0"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: imaginary residue ")

    def test_under_resolved_grid_is_three(self, capsys):
        # At n = 4096 the sampled density's mass exceeds 1, and its 10^4-th
        # power overflows in the spectral layer.
        flags = ["--sigma", "1.5", "--q", "0.01", "--k", "10000", "--L", "12", "--n", "4096"]
        code, out, err = run_cli(["delta", *flags, "--eps", "1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: the convolved density is not finite")
        assert err.count("\n") == 1

    def test_flat_with_replacement_loss_is_three_without_a_warning(self, capsys):
        # At sigma 0.001 the loss is flat to rounding near s = 0: the root
        # finder's slope there underflows to 0 and the density is 0/0, which
        # the spectral layer reports as its one error line.
        flags = ["--scheme", "with-replacement", "--sigma", "0.001", "--batch-size", "2",
                 "--dataset-size", "4", "--k", "1", "--L", "0.5", "--n", "10000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["delta", *flags, "--eps", "0.1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: the convolved density is not finite")
        assert err.count("\n") == 1

    def test_unreachable_delta_is_three(self, capsys):
        code, _, err = run_cli(["epsilon", *BASE, "--delta", "0.9999"], capsys)
        assert code == 3
        assert "target delta" in err

    def test_non_convergence_is_four(self, capsys, monkeypatch):
        def explode(query):
            raise NonConvergenceError("injected")

        monkeypatch.setattr("dpconv.cli.epsilon_of_delta", explode)
        code, _, err = run_cli(["epsilon", *BASE, "--delta", "1e-6"], capsys)
        assert code == 4
        assert "injected" in err

    def test_loss_inverse_iteration_cap_is_four(self, capsys, monkeypatch, fresh_wr_tables):
        # The table's quintic start meets the tolerance at once on this grid,
        # so the cap is reached with a table of one cell.
        monkeypatch.setattr("dpconv.mechanisms._LOSS_INVERSE_MAX_ITER", 1)
        monkeypatch.setattr("dpconv.mechanisms._LOSS_TABLE_CELLS", 1)
        code, out, err = run_cli(["delta", *WR_FLAT, *WR_GRID, "--eps", "1"], capsys)
        assert code == 4 and out == ""
        assert "did not reach" in err


def test_default_grid_flags():
    args = build_parser().parse_args(["delta", "--sigma", "1.5", "--q", "0.01", "--eps", "1"])
    assert args.L == 20.0
    assert args.n == 2 ** 22
    assert args.format == "json"
