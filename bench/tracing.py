"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each reachwarp module and installs
each wrapper at every import site inside the package: the defining module and
every other module (or the package itself) that holds the same function
object under the same name, such as ``warp.growth_metric`` and
``verify.growth_metric``.  Private names are never touched, and a function a
later version no longer defines is skipped, so its metrics are reported as
absent.

Spans nest through a stack: a span's self time is its duration minus the
time of the spans it encloses.  Per-name totals are kept for every traced
operation; the individual spans (name, start, end, parent) are kept only for
the first traced operation, which bounds memory on long runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "config", "linalg", "model", "reach", "warp", "verify")

# public functions whose calls are timed, per defining module
TRACED = {
    "cli": ("main",),
    "config": ("load_config", "parse_config"),
    "linalg": ("mat_exp", "spectrum", "eigvec_residual"),
    "model": ("ball_argmax", "box_polytope", "vertex_polytope"),
    "reach": ("boundary_point", "growth_metric", "zero_input_endpoint",
              "boundary_sweep", "direction_fan"),
    "warp": ("optimize_B", "check_assumptions", "initial_costate"),
    "verify": ("verify_optimality", "sample_ball"),
}


class SpanStats:
    """Totals of one span name: calls, seconds, and seconds in child spans."""

    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class BoundaryPointCounts:
    """Work counts taken at the boundary_point span.

    Reuse is counted within one operation: a call reuses the co-state input
    when its (A, T, d, steps) already occurred earlier in the same
    operation, and the system input when its (A, T, steps) did.
    """

    def __init__(self):
        self.points = 0
        self.steps = 0
        self.vertex_scores = 0
        self.switches = 0
        self.costate_reused = 0
        self.system_reused = 0
        self._costate_keys: set = set()
        self._system_keys: set = set()

    def new_operation(self) -> None:
        self._costate_keys.clear()
        self._system_keys.clear()

    def record(self, sys, U, steps: int, point) -> None:
        system_key = (sys.A.tobytes(), sys.T, int(steps))
        costate_key = system_key + (point.d.tobytes(),)
        self.points += 1
        self.steps += int(steps)
        self.vertex_scores += int(steps) * U.num_vertices
        self.switches += len(point.switch_times)
        self.costate_reused += costate_key in self._costate_keys
        self.system_reused += system_key in self._system_keys
        self._costate_keys.add(costate_key)
        self._system_keys.add(system_key)


class Tracer:
    """Wrap the traced functions; spans are recorded while installed."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.points = BoundaryPointCounts()
        self.operations = 0
        self.first_spans: list[list] = []
        self._stack: list[list] = []
        self._keep_spans = False
        self._swaps: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self._plan()

    def _plan(self) -> None:
        package = importlib.import_module("reachwarp")
        modules = [package] + [importlib.import_module(f"reachwarp.{m}")
                               for m in LAYERS]
        for layer in LAYERS:
            home = importlib.import_module(f"reachwarp.{layer}")
            for name in TRACED[layer]:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._swaps.append((module, name, original, wrapper))

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, SpanStats())
        bind = None
        if span == "reach.boundary_point":
            bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [seconds spent in child spans, index in first_spans or -1]
            frame = [0.0, -1]
            if self._keep_spans:
                parent = self._stack[-1][1] if self._stack else -1
                frame[1] = len(self.first_spans)
                self.first_spans.append([span, 0.0, 0.0, parent])
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                elapsed = end - start
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += frame[0]
                if frame[1] >= 0:
                    self.first_spans[frame[1]][1:3] = [start, end]
            if bind is not None:
                call = bind(*args, **kwargs)
                call.apply_defaults()
                a = call.arguments
                self.points.record(a["sys"], a["U"], a["steps"], result)
            return result

        return wrapper

    def install(self) -> None:
        for module, name, _, wrapper in self._swaps:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._swaps:
            setattr(module, name, original)

    def begin_operation(self) -> None:
        self.install()
        self.points.new_operation()
        self._keep_spans = self.operations == 0

    def end_operation(self) -> None:
        self.uninstall()
        self.operations += 1
        self._keep_spans = False

    def span_tree(self) -> list[dict]:
        """Spans of the first traced operation, start times relative to it."""
        if not self.first_spans:
            return []
        origin = self.first_spans[0][1]
        return [{"name": name, "start_ms": (start - origin) * 1e3,
                 "end_ms": (end - origin) * 1e3, "parent": parent}
                for name, start, end, parent in self.first_spans]
