"""Outside-in span tracer for the femupdate benchmark.

Spans are recorded by rebinding the module attributes that callers look
up (for example ``femupdate.updating.solve_modes`` and
``ModalData.at_coordinates``) to timing wrappers, so the package itself
is not modified. The wrappers are installed only while a traced unit
runs and are removed afterwards, so untraced runs execute the program
exactly as shipped.

Spans are kept in memory as parallel arrays (name, start, end, parent,
unit) and written out once, when the run ends. A unit is one call the
benchmark makes into the program (a scenario build or an update).
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import time
from array import array
from collections import Counter

import numpy as np

# (layer module, attribute) pairs wrapped in a traced run. Every module of
# the package that binds the same function object is rebound too, so the
# span is recorded whichever module the caller looks the name up in.
TRACED_FUNCTIONS = (
    ("beam", "assemble"),
    ("modal", "solve_modes"),
    ("modal", "pair_modes"),
    ("modal", "cost"),
    ("updating", "full_objective"),
    ("updating", "rsm_update"),
    ("updating", "ga_update"),
    ("updating", "sample_design"),
    ("surrogate", "forward"),
    ("surrogate", "train"),
    ("surrogate", "init_net"),
    ("optimizers", "ga_optimize"),
    ("optimizers", "geometric_select"),
    ("optimizers", "arithmetic_crossover"),
    ("optimizers", "nonuniform_mutate"),
    ("scenario", "build_scenario"),
    ("scenario", "h_beam_structure"),
)
TRACED_METHODS = (("modal", "ModalData", "at_coordinates"),)
LAYERS = ("beam", "modal", "updating", "surrogate", "optimizers", "scenario")

# Return values kept per call, for ratios measured where the work happens.
RECORDED_RESULTS = ("updating.full_objective",)

LOW_MAC_MESSAGE = "measured mode %d paired with MAC %.3f < 0.5"
FAILED_EVAL_MESSAGE = "full objective failed for a candidate: %s"


class LogCounter(logging.Handler):
    """Counts package log records by (logger name, message template)."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.counts: Counter = Counter()

    def emit(self, record):
        self.counts[(record.name, record.msg)] += 1

    def low_mac(self) -> int:
        return self.counts[("femupdate.modal", LOW_MAC_MESSAGE)]

    def failed_evals(self) -> int:
        return self.counts[("femupdate.updating", FAILED_EVAL_MESSAGE)]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")   # perf_counter_ns
        self.end = array("q")
        self.parent = array("i")  # span index, -1 for a unit's root span
        self.unit = array("i")    # index into self.units
        self.units: list[str] = []
        self.results: dict[str, list] = {name: [] for name in RECORDED_RESULTS}
        self.raised: Counter = Counter()  # (unit kind, span name, exception type)
        self._stack: list[int] = []

    def _span_name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(len(self.units) - 1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start[i] = time.perf_counter_ns()
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._span_name_id(name)
        sink = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(self.units[-1], name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(i)
            if sink is not None:
                sink.append((len(self.units) - 1, float(out)))
            return out

        return traced

    @contextlib.contextmanager
    def unit_span(self, kind: str):
        """Root span around one call the benchmark makes into the program."""
        self.units.append(kind)
        i = self._open(self._span_name_id(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def installed(self, package):
        """Rebind every traced attribute of ``package`` for the duration."""
        originals = []
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, attr in TRACED_FUNCTIONS:
            fn = getattr(getattr(package, layer), attr)
            traced = self.wrap(f"{layer}.{attr}", fn)
            for ns in namespaces:
                if vars(ns).get(attr) is fn:
                    originals.append((ns, attr, fn))
                    setattr(ns, attr, traced)
        for layer, cls_name, attr in TRACED_METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            fn = vars(cls)[attr]
            originals.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(f"{layer}.{attr}", fn))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
        }

    def save(self, path):
        """Write every span, with the name and unit tables, to an .npz file."""
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names), units=np.array(self.units),
                            **self.arrays())

    def span_stats(self, kind: str) -> tuple[int, dict]:
        """Per-name call count, self time and inclusive durations over units of ``kind``.

        Self time is a span's duration minus the time its child spans
        cover. Returns (number of units of that kind, {name: stats}).
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        unit_ids = [i for i, k in enumerate(self.units) if k == kind]
        in_kind = np.isin(a["unit"], unit_ids)
        stats = {}
        for nid, name in enumerate(self.names):
            sel = in_kind & (a["name_id"] == nid)
            if sel.any():
                stats[name] = {"calls": int(sel.sum()),
                               "self_s": float(self_time[sel].sum()),
                               "durations_s": dur[sel]}
        return len(unit_ids), stats


def reanchor_improved(costs: list[float], n_design: int, iterations: int) -> int:
    """Re-anchor evaluations that lowered the best full-model cost so far.

    ``costs`` are full-model costs in call order: the ``n_design`` design
    points first, then one re-anchor per RSM iteration.
    """
    best = min(costs[:n_design], default=math.inf)
    improved = 0
    for c in costs[n_design:n_design + iterations]:
        if c < best:
            best = c
            improved += 1
    return improved
