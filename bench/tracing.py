"""Span recording from outside the library, and the per-layer metrics of a pass.

``Tracer.installed()`` replaces every public library function of the layers
``catalog``, ``channel``, ``subproduct``, ``dilation``, ``dequantization`` and
``linalg`` by a span-recording wrapper, on every name a caller looks it up by:
the attribute of each ``krausfock`` module that holds it, for example
``krausfock.cli.build_subproduct``, ``krausfock.dequantization.dequantize``
and ``krausfock.subproduct.orthonormal_range``.  The ``cli`` layer is one
span per command, opened by the benchmark around ``krausfock.cli.main``.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the pass ends.  A span's self time is its duration
minus the durations of its direct children.  With ``memory=True`` each span
also records the tracemalloc peak reached inside it, above the memory in use
when it started; that mode is for a pass of its own, never a timed one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import krausfock

LAYERS = ("cli", "catalog", "channel", "subproduct", "dilation", "dequantization", "linalg")
LIBRARY_LAYERS = LAYERS[1:]
UNTRACED = {"as_matrix"}  # coercion helper called inside nearly every function
LEVEL_SPANS = {"dequantization.correlation_matrix": "m"}
BUILD_SPAN = "subproduct.build_subproduct"

INCLUSIVE = {
    "subproduct.build_s": ("subproduct.build_subproduct",),
    "subproduct.residual_s": ("subproduct.subproduct_residual",),
    "subproduct.shift_s": ("subproduct.shift_left", "subproduct.shift_right"),
    "dequantization.correlations_s": ("dequantization.correlations",),
    "dequantization.symmetry_s": ("dequantization.phi_symmetry_residual",),
    "dequantization.dequantize_s": ("dequantization.dequantize",),
    "dequantization.convergence_s": ("dequantization.convergence_report",),
    "dequantization.normal_ordering_s": ("dequantization.normal_ordering_residual",),
    "dilation.stinespring_s": ("dilation.stinespring_isometry",),
    "dilation.unitary_s": ("dilation.unitary_dilation",),
    "dilation.covariant_symbol_s": ("dilation.covariant_symbol",),
    "dilation.complementary_s": (
        "dilation.complementary_state",
        "dilation.complementary_state_via_dilation",
    ),
    "channel.validate_s": ("channel.validate",),
    "channel.minimal_kraus_s": ("channel.minimal_kraus",),
    "catalog.build_s": ("catalog.build_catalog",),
    "linalg.orthonormal_range_s": ("linalg.orthonormal_range",),
    "linalg.psd_inverse_s": ("linalg.psd_inverse",),
    "linalg.operator_norm_s": ("linalg.operator_norm",),
    "linalg.kron_power_apply_s": ("linalg.kron_power_apply",),
}
CALLS = {
    "subproduct.residual_calls": "subproduct.subproduct_residual",
    "dequantization.dequantize_calls": "dequantization.dequantize",
    "channel.validate_calls": "channel.validate",
    "linalg.orthonormal_range_calls": "linalg.orthonormal_range",
    "linalg.operator_norm_calls": "linalg.operator_norm",
}
PEAKS = {
    "subproduct.build_peak_mb": "subproduct.build_subproduct",
    "dequantization.correlations_peak_mb": "dequantization.correlations",
}
TOP_BUCKETS = ("top", "top-1", "top-2", "top-3", "top-4", "rest")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    info: object = None
    peak: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def level_bucket(top: int, m: int | None) -> str:
    """Name of a level relative to the top level of its document."""
    if m is None or not 0 <= top - m <= 4:
        return "rest"
    return "top" if m == top else f"top-{top - m}"


def system_stats(system) -> tuple[int, int]:
    """Words spanned by the materialised levels (sum of n^m) and bytes of arrays held."""
    built = len(system.bases) - 1 if hasattr(system, "bases") else system.max_level
    words = sum(system.n**m for m in range(1, built + 1))
    nbytes = 0
    for value in vars(system).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        nbytes += sum(item.nbytes for item in items if isinstance(item, np.ndarray))
    return words, nbytes


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.op: int | None = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []

    def _enter(self, name: str) -> Span:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._peaks:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, high = self._peaks.pop()
            high = max(high, peak)
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], high)
            span.peak = high - base

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        self.op = op
        record = self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit
        level_param = LEVEL_SPANS.get(name)
        params = list(inspect.signature(fn).parameters)
        level_index = params.index(level_param) if level_param in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span)
            if level_index is not None:
                span.info = args[level_index] if len(args) > level_index else kwargs.get(level_param)
            elif name == BUILD_SPAN:
                span.info = system_stats(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library functions on every module attribute that holds them."""
        modules = [krausfock] + [importlib.import_module(f"krausfock.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LIBRARY_LAYERS:
            module = importlib.import_module(f"krausfock.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and attr not in UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        patches = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patches.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.seconds
    return [span.seconds - child for span, child in zip(spans, children)]


def pass_metrics(spans: list[Span], tops: list[int], wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and detail by level and by caller.

    ``tops[op]`` is the top level of the document operation ``op`` works on;
    correlation matrices are grouped by their level relative to it.
    """
    by_name = defaultdict(float)
    calls = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    buckets = dict.fromkeys(TOP_BUCKETS, 0.0)
    levels = defaultdict(float)
    linalg_callers = defaultdict(float)
    words = stack_bytes = commands = 0
    covered = 0.0
    for span, own in zip(spans, self_times(spans)):
        seconds = span.seconds
        by_name[span.name] += seconds
        calls[span.name] += 1
        layer_self[span.name.split(".", 1)[0]] += own
        if span.parent < 0:
            covered += seconds
        elif span.name.startswith("linalg.") and not spans[span.parent].name.startswith("linalg."):
            linalg_callers[spans[span.parent].name.split(".", 1)[0]] += seconds
        if span.name.startswith("cli."):
            commands += 1
        elif span.name == BUILD_SPAN and span.info is not None:
            words += span.info[0]
            stack_bytes = max(stack_bytes, span.info[1])
        elif span.name in LEVEL_SPANS:
            buckets[level_bucket(tops[span.op], span.info)] += seconds
            if isinstance(span.info, int):
                levels[f"m{span.info:02d}"] += seconds
    metrics = {name: sum(by_name[n] for n in names) for name, names in INCLUSIVE.items()}
    metrics.update({name: calls[n] for name, n in CALLS.items()})
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    metrics["cli.commands"] = commands
    metrics["subproduct.words"] = words
    metrics["subproduct.stack_mb"] = stack_bytes / 1e6
    for bucket, seconds in buckets.items():
        metrics[f"dequantization.correlation_matrix.{bucket}_s"] = seconds
    metrics["trace.uncovered_frac"] = (wall - covered) / wall
    detail = {
        "dequantization.correlation_matrix_s by level": dict(sorted(levels.items())),
        "linalg_s by calling layer": dict(sorted(linalg_callers.items())),
    }
    return metrics, detail


def peak_metrics(spans: list[Span]) -> dict:
    """Largest tracemalloc peak of the spans behind each peak metric, in MB."""
    out = {}
    for metric, name in PEAKS.items():
        peaks = [span.peak for span in spans if span.name == name and span.peak is not None]
        out[metric] = max(peaks, default=0) / 1e6
    return out
