"""Per-layer tracing of bochnerkit, installed from outside the package.

`Tracer.installed()` replaces every public function of each layer module
(the names in its ``__all__``) with a timing wrapper, in every module of the
package that bound the same object, and restores the originals on exit.  On
top of that it wraps:

* the ``metric_at``/``J_at`` fields of each chart that ``make_chart`` hands
  to a caller (factor charts of a product stay bare, so a product metric
  evaluation counts once);
* ``CurvTensor.__init__``, so each construction (array copy plus finiteness
  check) is one call of ``multilinear.CurvTensor``;
* each entry of the scenario table, as ``scenarios.<id>``.

Spans are aggregated per name as they close rather than stored one by one: a
single ``bochnerkit all`` makes about 180k metric evaluations.  Inclusive time
(``s``) counts only the outermost active call of a name, so recursion is not
double counted; self time (``self_s``) is inclusive time minus the time of
directly nested wrapped calls.  Everything runs on one thread with no queues,
so no layer ever waits and wait time is zero by construction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("multilinear", "curvature", "bochner", "charts", "scenarios", "serialization", "cli")

METRIC_AT = "charts.metric_at"
SUITES = ("charts.nk_identity_suite", "charts.bianchi_suite")


class SpanStats:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Aggregated spans plus the chart-layer counters the benchmark reports."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.errors: dict[str, list[BaseException]] = {}
        self.bytes = 0  # characters produced by serialization.canonical_json
        self.metric_points_distinct = 0
        self.suite_metric_calls: dict[tuple[str, str], list[int]] = {}
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._unit_points: set[tuple[str, bytes]] = set()
        self._chart_depth = 0

    # -- spans ----------------------------------------------------------------

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_call(args)`` runs just before the span opens; ``on_result`` maps
        the return value (used to count bytes).
        """
        stats = self.stat(name)
        metric = self.stat(METRIC_AT)
        layer = name.split(".", 1)[0]
        is_suite = name in SUITES
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]
            stack.append(frame)
            stats.active += 1
            metric_before = metric.calls
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._record_error(layer, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if stats.active == 0:
                    stats.s += dt
                if stack:
                    stack[-1][0] += dt
            if is_suite:
                key = (name, args[0].label)
                self.suite_metric_calls.setdefault(key, []).append(metric.calls - metric_before)
            return result if on_result is None else on_result(result)

        return wrapped

    def _record_error(self, layer: str, exc: BaseException) -> None:
        # one exception unwinding through several spans of a layer counts once
        seen = self.errors.setdefault(layer, [])
        if not any(e is exc for e in seen):
            seen.append(exc)

    # -- chart instrumentation ------------------------------------------------

    def _instrument_chart(self, chart):
        label = chart.label
        points = self._unit_points

        def note_point(args):
            points.add((label, args[0].tobytes()))

        return dataclasses.replace(
            chart,
            metric_at=self.wrap(METRIC_AT, chart.metric_at, on_call=note_point),
            J_at=self.wrap("charts.J_at", chart.J_at),
        )

    def _make_chart_wrapper(self, make_chart):
        def make_chart_outer(spec):
            self._chart_depth += 1
            try:
                chart = make_chart(spec)
            finally:
                self._chart_depth -= 1
            return chart if self._chart_depth else self._instrument_chart(chart)

        return make_chart_outer

    # -- units ----------------------------------------------------------------

    def end_unit(self) -> None:
        """Close the distinct-point window of ``charts.metric_at.unique_ratio``.

        Whether two stencil paths reach bit-identical points depends on the
        rounding at the sampled point, so the distinct count is not a
        seed-independent count like the call counts.
        """
        self.metric_points_distinct += len(self._unit_points)
        self._unit_points.clear()

    def counts(self) -> dict[str, int]:
        """Every exact count the tracer keeps, for the repeat-exactly check."""
        out = {f"{name}.calls": st.calls for name, st in sorted(self.stats.items())}
        for layer, errs in sorted(self.errors.items()):
            out[f"{layer}.errors"] = len(errs)
        return out

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        modules = [importlib.import_module("bochnerkit")] + [
            importlib.import_module(f"bochnerkit.{layer}") for layer in LAYERS
        ]
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        def count_bytes(text):
            self.bytes += len(text)
            return text

        try:
            for layer in LAYERS:
                module = importlib.import_module(f"bochnerkit.{layer}")
                for fname in module.__all__:
                    fn = getattr(module, fname)
                    if not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{fname}"
                    if name == "charts.make_chart":
                        fn_wrapped = self.wrap(name, self._make_chart_wrapper(fn))
                    elif name == "serialization.canonical_json":
                        fn_wrapped = self.wrap(name, fn, on_result=count_bytes)
                    else:
                        fn_wrapped = self.wrap(name, fn)
                    for target in modules:
                        if getattr(target, fname, None) is fn:
                            patch(target, fname, fn_wrapped)
            multilinear = importlib.import_module("bochnerkit.multilinear")
            curv = multilinear.CurvTensor
            patch(curv, "__init__", self.wrap("multilinear.CurvTensor", curv.__init__))
            table = importlib.import_module("bochnerkit.scenarios")._SCENARIOS
            for sid, fn in list(table.items()):
                patches.append((table, sid, fn))
                table[sid] = self.wrap(f"scenarios.{sid}", fn)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)
