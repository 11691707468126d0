"""Op timing and call spans around proploc's public functions.

The wrappers live here, in the benchmark, and are bound over the package's
own names at run time; nothing in ``src/`` is changed. A function imported
with ``from .core import evaluate`` has a binding in every importing module,
so :meth:`Probe.install` rebinds each binding that holds the original.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs the traced run wraps, in layer order.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("cli", "build_table"),
    ("mechanisms", "build_mechanism"),
    ("mechanisms", "format_mechanism"),
    ("axioms", "run_check"),
    ("axioms", "recheck_witness"),
    ("axioms", "search_manipulation"),
    ("analysis", "expected_distance_to_point"),
    ("analysis", "expected_facility_location"),
    ("analysis", "expected_agent_distances"),
    ("analysis", "uniform_family_expected_distance"),
    ("analysis", "uniform_family_expected_location"),
    ("core", "evaluate"),
    ("core", "outcome_distribution"),
)
RUN_CHECK = "axioms.run_check"
OP = "bench.op"


def _rebind(original, replacement):
    """Point every proploc module binding of ``original`` at ``replacement``."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "proploc" and not module_name.startswith("proploc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class Probe:
    """Times ops and, while recording, keeps a span per wrapped call.

    A span is ``(span_id, parent_id, op_id, name, start, end, self_s, attrs)``;
    ``self_s`` is its duration minus the durations of its direct children,
    which nest inside it because the run is single-threaded.
    """

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []  # (start, end) of each op
        self.spans: list[tuple] = []
        self.passed_checks: list[tuple] = []  # (span_id, axiom, variant, mechanism, dom)
        self.recording = False
        self._stack: list[list] = []  # [span_id, start, children_s]
        self._next_span = 0
        self._ops = 0
        self._op_id = None
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def _enter(self, start):
        self._next_span += 1
        self._stack.append([self._next_span, start, 0.0])
        return self._next_span

    def _exit(self, name, end, attrs=None):
        span_id, start, children = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self._op_id, name, start, end,
             duration - children, attrs)
        )

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) are neither timed nor traced."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    # -- ops ------------------------------------------------------------

    def op(self, fn, *args):
        """Run one op and record its interval; while recording it is a span."""
        self._ops += 1
        recording = self.recording
        if recording:
            self._op_id = self._ops
        start = perf_counter()
        if recording:
            self._enter(start)
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.intervals.append((start, end))
            if recording:
                self._exit(OP, end)
                self._op_id = None

    # -- wrappers -------------------------------------------------------

    def _traced(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = self._enter(perf_counter())
            attrs = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if name == RUN_CHECK:
                    variant = args[3] if len(args) > 3 else kwargs.get("variant", "det")
                    attrs = {"axiom": args[0], "variant": variant}
                self._exit(name, end, attrs)
            if name == RUN_CHECK:
                attrs["status"] = result.status
                if result.status == "pass":
                    self.passed_checks.append((span_id, args[0], variant, args[1], args[2]))
            return result

        return wrapper

    def _as_op(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.op(lambda: fn(*args, **kwargs))

        return wrapper

    def install(self, modules, trace: bool, op_function: str | None = None):
        """Wrap every layer function when ``trace``; always make each call of
        ``op_function`` (``"module.function"``) one op."""
        for module_name, function in LAYER_FUNCTIONS:
            name = f"{module_name}.{function}"
            if not trace and name != op_function:
                continue
            original = getattr(modules[module_name], function)
            replacement = self._traced(name, original) if trace else original
            if name == op_function:
                replacement = self._as_op(replacement)
            self._undo.extend(_rebind(original, replacement))
        self.recording = trace

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        self.recording = False


def metric_key(span) -> str:
    name, attrs = span[3], span[7]
    if name == RUN_CHECK:
        return f"{name}.{attrs['axiom']}.{attrs['variant']}"
    return name


def span_times(spans, duration=lambda start, end: end - start):
    """``{span_id: (total_s, self_s)}``, each span's time taken by ``duration``
    and its self time less its direct children's."""
    totals = {span[0]: duration(span[4], span[5]) for span in spans}
    children = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            children[span[1]] += totals[span[0]]
    return {span_id: (total, total - children[span_id]) for span_id, total in totals.items()}


def layer_totals(spans, times):
    """``{key: [calls, self_s, total_s]}`` from :func:`span_times` output."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        total, self_s = times[span[0]]
        entry = out[metric_key(span)]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += total
    return dict(out)
