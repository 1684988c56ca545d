"""Span tracing for the benchmark's traced runs.

The child process wraps numvar's public functions under the names the
calling modules bound them to, so every call a CLI command makes into a
layer is timed as one span.  Spans stay in memory and are handed to the
parent when the child ends; the parent turns them into per-layer
metrics (calls, self time, work counts).

Nothing here changes what a wrapped function computes: the wrapper
records timestamps and a work count taken from the arguments or the
result, then returns the result unchanged.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Callable, Dict, List, Optional


def _n_terms(args, kwargs, result) -> int:
    return len(result)


def _n_points_arg(args, kwargs, result) -> int:
    return len(args[0])


def _mc_centers(args, kwargs, result) -> int:
    return int(args[2] if len(args) > 2 else kwargs["samples"])


def _phase_terms(args, kwargs, result) -> int:
    # pair_correlation_fourier reports bound = 2 N^2 / (pi^2 L M); invert for M
    n = len(args[0])
    L = args[2].L
    m_terms = round(2.0 * n * n / (math.pi**2 * L * result.truncation_bound))
    return m_terms * n


def _pair_sums(args, kwargs, result) -> int:
    return len(args[0]) ** 2


def _pair_diffs(args, kwargs, result) -> int:
    n = len(args[0])
    return n * (n - 1)


# One layer per row: metric prefix, the (module, attribute) bindings that
# are wrapped, and the name and function of its work count (or None).
LAYERS = (
    ("sequences.generate_sequence",
     (("numvar.harness", "generate_sequence"), ("numvar.cli", "generate_sequence")),
     "terms", _n_terms),
    ("sequences.dilate_mod1",
     (("numvar.harness", "dilate_mod1"), ("numvar.cli", "dilate_mod1")),
     "points", _n_terms),
    ("stats.number_variance_exact",
     (("numvar.harness", "number_variance_exact"),),
     "points", _n_points_arg),
    ("stats.number_variance_montecarlo",
     (("numvar.harness", "number_variance_montecarlo"),),
     "centers", _mc_centers),
    ("stats.pair_correlation_direct",
     (("numvar.cli", "pair_correlation_direct"),),
     None, None),
    ("stats.pair_correlation_fourier",
     (("numvar.cli", "pair_correlation_fourier"),),
     "phase_terms", _phase_terms),
    ("energy.additive_energy",
     (("numvar.harness", "additive_energy"),),
     "pair_sums", _pair_sums),
    ("energy.difference_profile",
     (("numvar.harness", "difference_profile"), ("numvar.theory", "difference_profile")),
     "pair_diffs", _pair_diffs),
    ("theory.fourier_coefficient",
     (("numvar.cli", "fourier_coefficient"),),
     None, None),
    ("harness.variance_cell",
     (("numvar.harness", "_variance_cell"),),
     None, None),
    ("harness.run_variance_experiment",
     (("numvar.cli", "run_variance_experiment"),),
     None, None),
    ("harness.run_energy_sweep",
     (("numvar.cli", "run_energy_sweep"),),
     None, None),
    ("harness.emit",
     (("numvar.cli", "rows_to_csv"), ("numvar.cli", "energy_table_to_csv"),
      ("numvar.cli", "summary_to_json"), ("numvar.cli", "_emit")),
     None, None),
)

MAIN_SPAN = "cli.main"


class Tracer:
    """Collects spans (id, name, start, end, thread, parent, work) in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    pool thread with nothing open on that thread takes the innermost
    open span of the thread that created the tracer as its parent, so
    sweep cells hang under the sweep that submitted them.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: List[int] = self._stack()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             count: Optional[Callable] = None):
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        work = count(args, kwargs, result) if count is not None else None
        # list.append is atomic, so pool threads may record concurrently
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "thread": threading.get_ident(), "parent": parent, "work": work,
        })
        return result

    def wrap(self, module, attr: str, name: str, count: Optional[Callable]) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every binding listed in LAYERS (modules must be imported)."""
    import importlib

    for name, bindings, _, count in LAYERS:
        for module_name, attr in bindings:
            tracer.wrap(importlib.import_module(module_name), attr, name, count)


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: List[Dict], workers: int) -> Dict[str, float]:
    """Per-layer calls, self time and work counts from one traced child.

    self_s of a span is its duration minus the union of its children's
    intervals.  harness.pool.busy_frac is the summed duration of the
    sweep cells over workers times the summed sweep duration, or 0 when
    no variance sweep ran.
    """
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: Dict[str, float] = {}
    names = [MAIN_SPAN] + [layer[0] for layer in LAYERS]
    for name in names:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    for name, _, work_name, _ in LAYERS:
        if work_name:
            out["%s.%s" % (name, work_name)] = 0
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - _covered(children.get(s["id"], []), s["start"], s["end"])
        out[s["name"] + ".calls"] += 1
        out[s["name"] + ".self_s"] += own
    for name, _, work_name, _ in LAYERS:
        if work_name:
            out["%s.%s" % (name, work_name)] = sum(
                s["work"] for s in spans if s["name"] == name and s["work"] is not None
            )
    sweep = sum(s["end"] - s["start"] for s in spans
                if s["name"] == "harness.run_variance_experiment")
    cells = sum(s["end"] - s["start"] for s in spans if s["name"] == "harness.variance_cell")
    out["harness.pool.busy_frac"] = cells / (workers * sweep) if sweep > 0 else 0.0
    out["harness.pool.sweep_s"] = sweep
    # largest single N^2 int64 pair table, from array sizes (not measured RSS)
    tables = [s["work"] for s in spans if s["name"] == "energy.additive_energy"]
    out["energy.pair_table_bytes_computed"] = 8 * max(tables, default=0)
    return out
