"""Span tracing at the package's layer boundaries, from outside the package.

The tracer wraps public functions of ``o2i_los`` where their callers look
them up: the benchmark's own call table and the module globals of every
package module that holds the same function object.  Nothing inside the
package is edited.  A function a later refactor renames or removes is
skipped, and its metrics read 0.

Spans are kept in memory (one record per call: name, parent, start, end)
and written out by ``write_spans`` when the run ends.  Self time is a
span's duration minus the durations of its direct child spans.  The
wrapped functions are only ever called from the benchmark's single thread
(the grid oracle's worker threads run unwrapped helpers), so one stack
suffices.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from array import array
from pathlib import Path

MODULES = ("geometry", "diffraction", "los", "coverage", "sweep", "cli")

# (defining module, public name).  The span name is "<module>.<name>".
BOUNDARIES = (
    ("sweep", "parse_config"),
    ("sweep", "run_sweep"),
    ("sweep", "emit_csv"),
    ("geometry", "SceneGeometry"),
    ("los", "p_los_grid"),
    ("los", "p_los_closed"),
    ("los", "p_los_optical"),
    ("los", "critical_frequency"),
    ("los", "evaluate"),
    ("diffraction", "total_path_loss_db"),
    ("diffraction", "fresnel_integrals"),
    ("coverage", "coverage_probability"),
    ("coverage", "reg_upper_gamma"),
    ("coverage", "coverage_mc_oracle"),
)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Stats:
    """Per-boundary totals over the traced interval."""

    __slots__ = ("calls", "self_s", "total_s", "work", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = 0  # grid cells or Monte Carlo trials
        self.peak_bytes = 0


class Tracer:
    def __init__(self, api):
        self.names: list[str] = []
        self.stats: dict[str, Stats] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._targets = []
        package = importlib.import_module("o2i_los")
        holders = [package, api]
        for module in MODULES:
            try:
                holders.append(importlib.import_module(f"o2i_los.{module}"))
            except ImportError:
                continue
        for module, attr in BOUNDARIES:
            name = f"{module}.{attr}"
            self.names.append(name)
            self.stats[name] = Stats()
            try:
                original = getattr(importlib.import_module(f"o2i_los.{module}"), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(len(self.names) - 1, name, original)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._targets.append((holder, attr, original, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._targets:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._targets:
            setattr(holder, attr, original)

    def snapshot(self) -> dict[str, tuple]:
        """Copy of the running totals, for per-round differences."""
        return {
            name: (s.calls, s.self_s, s.total_s, s.work, s.peak_bytes)
            for name, s in self.stats.items()
        }

    def _wrap(self, index: int, name: str, original):
        stats = self.stats[name]
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        measure_alloc = name == "los.p_los_grid"

        def traced(*args, **kwargs):
            span = len(span_start)
            span_start.append(0.0)
            span_end.append(0.0)
            span_name.append(index)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            own_tracemalloc = measure_alloc and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_tracemalloc:
                    stats.peak_bytes = max(stats.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stats.work += _work(name, args, kwargs)
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                span_start[span] = start
                span_end[span] = end

        traced.__wrapped__ = original
        return traced

    def write_spans(self, path: Path) -> None:
        """Write every span kept in memory as CSV, times relative to the first."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as stream:
            stream.write("span,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                stream.write(
                    f"{i},{parent},{self.names[name]},{start - origin:.9f},{end - origin:.9f}\n"
                )


def _work(name, args, kwargs) -> int:
    try:
        if name == "los.p_los_grid":
            return int(_arg(args, kwargs, 2, "grid").n) ** 2
        if name == "coverage.coverage_mc_oracle":
            return int(_arg(args, kwargs, 5, "trials"))
    except (AttributeError, TypeError, ValueError):
        return 0
    return 0
