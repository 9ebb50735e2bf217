"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(layer, parent, start, end, **counts):
    return tracing.Span(layer, layer, parent, 0, start, end, counts)


def test_self_times_subtract_children_once():
    # cli [0, 10] -> accountant [1, 9] -> spectral [2, 5] and mechanisms [6, 8];
    # a second root accountant [11, 12] outside the cli span.
    spans = [
        _span("cli", None, 0.0, 10.0),
        _span("accountant", 0, 1.0, 9.0),
        _span("spectral", 1, 2.0, 5.0),
        _span("mechanisms", 1, 6.0, 8.0, points=100, loss_evals=1700),
        _span("accountant", None, 11.0, 12.0),
    ]
    own = tracing.self_times(spans)
    assert own["cli"] == pytest.approx(2.0)
    assert own["accountant"] == pytest.approx(3.0 + 1.0)
    assert own["spectral"] == pytest.approx(3.0)
    assert own["mechanisms"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(11.0)

    metrics = tracing.layer_metrics(spans, pass_s=12.5)
    assert metrics["trace.unattributed_s"] == pytest.approx(1.5)
    assert metrics["cli.convolutions_per_command"] == 1.0
    assert metrics["mechanisms.loss_evals_per_point"] == 17.0
    assert metrics["accountant.calls"] == 2


def test_recorder_nests_spans():
    recorder = tracing.Recorder()
    outer = recorder.wrap("accountant", "outer", lambda: inner() + 1)
    inner = recorder.wrap("spectral", "inner", lambda: 41)
    assert outer() == 42
    spans = recorder.take()
    assert [(s.layer, s.parent) for s in spans] == [("accountant", None), ("spectral", 0)]
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end
    assert recorder.spans == []


def test_install_reports_missing_targets(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", (("spectral", "dpconv_absent.spectral", ("nothing",)),))
    hooked, missing, swaps = tracing.install(tracing.Recorder())
    assert (hooked, swaps) == ([], [])
    assert missing == ["dpconv_absent.spectral.nothing"]


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build_requests(name, 7) == workloads.build_requests(name, 7)
    seen = {
        tuple(r.argv for r in workloads.build_requests("cli-report", seed)) for seed in range(20)
    }
    assert len(seen) > 1


def test_every_table_row_has_a_reference_that_passes_its_own_check():
    for name in ("poisson-delta", "wr-delta"):
        for seed in range(20):
            (request,) = workloads.build_requests(name, seed)
            assert workloads.check(request, request.reference) is None
    for seed in range(20):
        epsilon, sweep, mixed = workloads.build_requests("cli-report", seed)
        for request in (epsilon, mixed):
            value, estimate = request.reference
            text = json.dumps({"value": value, "discretization_estimate": estimate})
            assert workloads.check(request, (0, text)) is None
        rows = json.dumps([{"value": v} for v in sweep.reference])
        assert workloads.check(sweep, (0, rows)) is None


def test_wrong_values_and_exit_codes_are_failures():
    (request,) = workloads.build_requests("poisson-delta", 0)
    assert workloads.check(request, request.reference * (1 + 1e-6)) is not None
    epsilon, sweep, _mixed = workloads.build_requests("cli-report", 0)
    value, estimate = epsilon.reference
    good = json.dumps({"value": value, "discretization_estimate": estimate})
    assert workloads.check(epsilon, (3, good)) == "exit code 3"
    bad = json.dumps({"value": value + 1e-6, "discretization_estimate": estimate})
    assert workloads.check(epsilon, (0, bad)) is not None
    assert workloads.check(sweep, (0, "[]")) is not None
    assert workloads.check(sweep, (0, "not json")) is not None


def test_malformed_outputs_are_failures_not_crashes():
    # The CLI writes values that are not finite as the strings "nan" and "inf".
    (request,) = workloads.build_requests("poisson-delta", 0)
    for output in (None, "nan", float("nan")):
        assert workloads.check(request, output) is not None
    epsilon, sweep, mixed = workloads.build_requests("cli-report", 0)
    value, estimate = epsilon.reference
    for report in (
        {"value": "nan", "discretization_estimate": estimate},
        {"value": value, "discretization_estimate": "inf"},
        {"value": None},
        {},
        [1.0, 2.0],
        "text",
    ):
        assert workloads.check(epsilon, (0, json.dumps(report))) is not None
        assert workloads.check(mixed, (0, json.dumps(report))) is not None
    rows = [1.0, 2.0] + [{"value": v} for v in sweep.reference[2:]]
    for output in (rows, {"value": 1.0}, [{"value": "nan"}] * len(sweep.reference)):
        assert workloads.check(sweep, (0, json.dumps(output))) is not None


def test_raising_and_wrong_valued_requests_are_counted_as_failures():
    (request,) = workloads.build_requests("poisson-delta", 0)
    reference = request.reference

    def raises():
        raise ValueError("boom")

    calls = (
        raises,
        lambda: (reference * 2, repr(reference * 2)),
        lambda: (reference, repr(reference)),
    )
    passes = []
    for call in calls:
        result = worker._run_pass([call], None)
        result["traced"] = False
        passes.append(result)
    assert passes[0]["errors"] == ["raised ValueError: boom"]
    attempted, failures = worker.count_failures([request], passes)
    assert attempted == 3
    assert len(failures) == 2
    assert "raised ValueError: boom" in failures[0]
    assert "differs from reference" in failures[1]


def test_traced_output_must_equal_untraced_output_bit_for_bit():
    (request,) = workloads.build_requests("poisson-delta", 0)
    value = request.reference
    nudged = value * (1 + 1e-15)
    passes = [
        {"outputs": [(value, repr(value))], "errors": [None], "traced": False},
        {"outputs": [(nudged, repr(nudged))], "errors": [None], "traced": True},
    ]
    attempted, failures = worker.count_failures([request], passes)
    assert attempted == 2
    assert failures == ["delta: traced output differs from the untraced output"]


def test_cli_exit_codes_are_captured():
    class FakeCli:
        @staticmethod
        def main(argv):
            if argv == ["flags"]:
                raise SystemExit(2)
            print("{}")
            return 3

    fake = type("dpconv", (), {"cli": FakeCli})
    assert worker._cli_call(fake, ("flags",))()[0] == (2, "")
    assert worker._cli_call(fake, ("domain",))()[0] == (3, "{}\n")


def test_hooks_find_every_target_and_leave_outputs_unchanged():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import dpconv
    import dpconv.cli

    query = dpconv.CompositionQuery.homogeneous(
        dpconv.MechanismSpec(sigma=1.5, q=0.01), k=10_000,
        grid=dpconv.Grid(half_width=12.0, size=2 ** 16), epsilon=1.0,
    )
    cli = worker._cli_call(dpconv, ("epsilon", "--delta", "1e-5", "--sigma", "1.5", "--q",
                                    "0.01", "--k", "10000", "--L", "12", "--n", "65536"))
    untraced = (repr(dpconv.accountant.delta_of_epsilon(query)), cli())
    recorder = tracing.Recorder()
    hooked, missing, swaps = tracing.install(recorder)
    try:
        traced = (repr(dpconv.accountant.delta_of_epsilon(query)), cli())
    finally:
        tracing.remove(swaps)
    assert missing == []
    assert len(hooked) == 11
    assert untraced[1][0][0] == 0
    assert traced == untraced
    metrics = tracing.layer_metrics(recorder.take(), pass_s=0.0)
    # The library call convolves once per direction; the epsilon command
    # does so for the Newton solve, for I_n and for I_2n.
    assert metrics["spectral.calls"] == 2 + 6
    assert metrics["cli.calls"] == 1
    assert metrics["accountant.newton_iterations"] > 0
    assert dpconv.accountant.delta_of_epsilon.__name__ == "delta_of_epsilon"
    assert not hasattr(dpconv.accountant.delta_of_epsilon, "__wrapped__")


def test_trace_overhead_pairs_each_traced_pass_with_its_neighbours():
    # The machine slows by 1 s per pass; tracing costs 0.25 s per pass.
    passes = [{"warmup": True, "traced": False, "seconds": 50.0, "request_s": [50.0]}]
    for i in range(1, 6):
        traced = i % 2 == 0
        seconds = 10.0 + i + (0.25 if traced else 0.0)
        layers = {"spectral.calls": 1} if traced else None
        passes.append({"warmup": False, "traced": traced, "seconds": seconds,
                       "request_s": [seconds], "layers": layers})
    worker_record = {"passes": passes, "requests": ["delta"], "peak_rss_mb": 1.0,
                     "attempted": 6, "failed": 0, "failures": [], "hooked": [],
                     "missing": [], "numpy": "", "scipy": ""}
    args = type("Args", (), {"workload": "w", "seed": 0, "seconds": 1.0, "trace": 1})
    units = {"trace.overhead_s": "s", "trace.pass_s": "s"}
    metrics, report = run._summarise(args, {}, [0.5], worker_record, units)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.25)
    assert report["samples"]["overhead_pairs"] == 2
    # The warm-up pass is not measured.
    assert report["measured"]["pass_s"] == pytest.approx(13.0)
