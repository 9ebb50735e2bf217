"""Spans around the calls into each dpconv module, installed from outside.

The hooks replace a module's public functions by timing wrappers, in every
dpconv module namespace that holds a reference to them, so calls made
through `from .spectral import convolution_power` are seen as well. Spans
stay in memory; per-layer metrics are computed from them after each pass.

A layer's self time is the time its spans cover minus the part their child
spans cover. Summed over all layers, the self times of a pass equal the
time its outermost spans cover; the rest of the pass is harness time
outside any layer, reported as unattributed.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, module, function name patterns). oracle and errors are left out:
# the oracle is on no request path and errors does no work.
TARGETS = (
    ("mechanisms", "dpconv.mechanisms", ("pld_density_*", "loss_with_replacement")),
    ("discretization", "dpconv.discretization", ("discretize",)),
    ("spectral", "dpconv.spectral", ("convolution_power", "convolution_product")),
    ("accountant", "dpconv.accountant", ("delta_of_epsilon", "epsilon_of_delta")),
    ("error_bounds", "dpconv.error_bounds", ("discretization_estimate",)),
    ("cli", "dpconv.cli", ("main",)),
)
LAYERS = tuple(layer for layer, _module, _patterns in TARGETS)


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; request is the id the next spans are tagged with."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(layer, name, parent, self.request, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Returns the spans recorded so far and starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def _counts(name: str, args, result) -> dict:
    # The density and loss functions take (spec, points).
    if name.startswith("pld_density_") and len(args) > 1:
        return {"points": int(np.size(args[1]))}
    if name == "loss_with_replacement" and len(args) > 1:
        return {"loss_evals": int(np.size(args[1]))}
    if name == "epsilon_of_delta":
        return {"newton_iterations": int(getattr(result, "newton_iterations", 0) or 0)}
    return {}


def install(recorder: Recorder) -> tuple[list[str], list[str], list[tuple]]:
    """Wraps every target function.

    Returns the hooked and the missing target names, and the replacements
    made, which remove() undoes. A target that no longer exists is reported
    missing rather than failing, so the benchmark keeps working when
    wrappers are removed from dpconv.
    """
    hooked, missing, swaps = [], [], []
    modules = [m for key, m in sys.modules.items() if key == "dpconv" or key.startswith("dpconv.")]
    for layer, module_name, patterns in TARGETS:
        module = sys.modules.get(module_name)
        for pattern in patterns:
            names = [] if module is None else sorted(
                name for name, value in vars(module).items()
                if fnmatch.fnmatchcase(name, pattern)
                and callable(value)
                and getattr(value, "__module__", None) == module_name
            )
            if not names:
                missing.append(f"{module_name}.{pattern}")
            for name in names:
                original = getattr(module, name)
                wrapper = recorder.wrap(layer, name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            swaps.append((holder, key, original))
                hooked.append(f"{module_name}.{name}")
    return hooked, missing, swaps


def remove(swaps: list[tuple]) -> None:
    """Puts back the functions install() replaced."""
    for holder, key, original in swaps:
        setattr(holder, key, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span durations minus their children's."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.duration
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent].layer
            totals[parent] -= span.duration
    return totals


def _has_ancestor(spans: list[Span], span: Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Span parents are indices into spans, which must be the complete list a
    Recorder produced for the pass.
    """
    own = self_times(spans)
    calls = {layer: 0 for layer in LAYERS}
    for span in spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    points = sum(s.counts.get("points", 0) for s in spans)
    loss_evals = sum(s.counts.get("loss_evals", 0) for s in spans)
    cli_convolutions = sum(
        1 for s in spans if s.layer == "spectral" and _has_ancestor(spans, s, "cli")
    )
    error_bounds_total = sum(
        s.duration for s in spans
        if s.layer == "error_bounds" and not _has_ancestor(spans, s, "error_bounds")
    ) + 0.0
    return {
        "spectral.calls": calls["spectral"],
        "spectral.self_s": own["spectral"],
        "mechanisms.density_s": own["mechanisms"],
        "mechanisms.points": points,
        "mechanisms.loss_evals": loss_evals,
        "mechanisms.loss_evals_per_point": loss_evals / points if points else 0.0,
        "discretization.calls": calls["discretization"],
        "discretization.self_s": own["discretization"],
        "accountant.calls": calls["accountant"],
        "accountant.self_s": own["accountant"],
        "accountant.newton_iterations": sum(s.counts.get("newton_iterations", 0) for s in spans),
        "cli.convolutions_per_command": cli_convolutions / calls["cli"] if calls["cli"] else 0.0,
        "error_bounds.calls": calls["error_bounds"],
        "error_bounds.total_s": error_bounds_total,
        "error_bounds.self_s": own["error_bounds"],
        "cli.calls": calls["cli"],
        "cli.self_s": own["cli"],
        "trace.unattributed_s": pass_s - sum(own.values()),
        "trace.spans": len(spans),
    }
