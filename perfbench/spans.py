"""Span and count recording around synclouvain's layer boundaries.

The tracer patches the module globals that ``detector.run`` calls through
(graph, forest, quality, rng and the detector's own phase functions), so no
file under ``src/`` changes.  Spans are kept in memory as
``[id, parent, run, name, start, end]`` and written once by the caller.
Only the thread that created the tracer records spans, because there is one
span stack; calls made from pool threads are counted but not timed.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module attribute on the ``synclouvain`` package, global name, span name)
_SPANNED = (
    ("detector", "strengths", "graph.strengths"),
    ("detector", "aggregate", "graph.aggregate"),
    ("detector", "compose_labels", "graph.compose_labels"),
    ("detector", "find_assignment", "detector.find_assignment"),
    ("detector", "positive_correction", "detector.positive_correction"),
    ("detector", "extract_components", "forest.extract_components"),
    ("detector", "reverse_assignment", "forest.reverse_assignment"),
    ("detector", "score", "quality.score"),
    ("detector", "local_gains", "quality.local_gains"),
)
_PLAN_PARAMS = ("graph", "st", "labels", "agg", "lo", "hi")


@dataclass
class Sweep:
    """One maximal-correction sweep as seen from its boundary calls."""

    run: str
    level: int
    sweep: int
    candidates: int = 0
    coin_accepted: int = 0
    gain_switch_calls: int = 0
    applied: int = 0
    plan_s: float = 0.0
    commit_s: float = 0.0
    plan_entries: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sweeps: list[Sweep] = []
        self.union_entries: dict[str, int] = {}
        self.missing: list[str] = []
        self.run = ""
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._sweep: Sweep | None = None
        self._accept_prob = 0.0
        self._plan: int | None = None
        self._commit: int | None = None

    # ------------------------------------------------------------ spans

    def on_owner(self) -> bool:
        return threading.get_ident() == self._thread

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.run, name, time.perf_counter(),
                           None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        span = self.spans[sid]
        span[5] = end
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {span[3]} closed out of order")
        return end - span[4]

    @contextmanager
    def span(self, name: str, run: str | None = None):
        if run is not None:
            self.run = run
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def summary(self, run: str) -> dict:
        """Per span name within one run: calls, total and self seconds.
        Self time is the span's duration minus its direct children's."""
        child = {}
        for sid, parent, r, _, t0, t1 in self.spans:
            if r == run and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, _, r, name, t0, t1 in self.spans:
            if r != run:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def sweeps_of(self, run: str) -> list[Sweep]:
        return [s for s in self.sweeps if s.run == run]

    def dump(self) -> dict:
        names = sorted({s[3] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        runs = sorted({s[2] for s in self.spans})
        return {
            "missing_entry_points": self.missing,
            "span_fields": ["id", "parent", "run", "name", "start_s",
                            "end_s"],
            "span_names": names,
            "spans": [[sid, parent, r, index[n], t0, t1]
                      for sid, parent, r, n, t0, t1 in self.spans],
            "sweeps": [asdict(s) for s in self.sweeps],
            "summary": {r: self.summary(r) for r in runs},
        }

    # ---------------------------------------------------------- patching

    @contextmanager
    def installed(self, sl):
        """Patch synclouvain's layer boundaries for the duration of the
        block; entry points that no longer exist are named in
        ``missing`` and their metrics read as zero."""
        saved = []

        def gone(key):
            if key not in self.missing:
                self.missing.append(key)

        def patch(module, attr, make):
            fn = getattr(module, attr, None)
            if fn is None:
                gone(f"{module.__name__}.{attr}")
                return
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))

        try:
            for mod_name, attr, span_name in _SPANNED:
                patch(getattr(sl, mod_name), attr,
                      functools.partial(self._spanned, span_name))
            patch(sl.detector, "maximal_correction", self._maximal)
            patch(sl.detector, "uniform01", self._coins)
            patch(sl.detector, "gain_switch", self._gain_switch)
            patch(sl.graph, "_build_union", self._union)
            best = getattr(sl.detector, "_best_targets", None)
            if best is not None and tuple(inspect.signature(
                    best).parameters)[:len(_PLAN_PARAMS)] != _PLAN_PARAMS:
                gone("synclouvain.detector._best_targets(signature)")
            else:
                patch(sl.detector, "_best_targets", self._plan_rows)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on_owner():
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def _maximal(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            rec = Sweep(self.run, int(bound["level"]), int(bound["sweep"]))
            self._sweep = rec
            self._accept_prob = bound["config"].accept_prob
            outer = self.open("detector.maximal_correction")
            self._plan = self.open("detector.maximal.plan")
            self._commit = None
            try:
                out = fn(*args, **kwargs)
                rec.applied = int(out[2])
                return out
            finally:
                if self._plan is not None:
                    rec.plan_s = self.close(self._plan)
                if self._commit is not None:
                    rec.commit_s = self.close(self._commit)
                self.close(outer)
                self._sweep = self._plan = self._commit = None
                self.sweeps.append(rec)
        return wrapper

    def _coins(self, fn):
        @functools.wraps(fn)
        def wrapper(seed, parts, ids):
            rec = self._sweep
            if rec is None or self._plan is None:
                return fn(seed, parts, ids)
            rec.plan_s = self.close(self._plan)
            self._plan = None
            sid = self.open("rng.uniform01")
            try:
                out = fn(seed, parts, ids)
            finally:
                self.close(sid)
            rec.candidates += int(out.size)
            rec.coin_accepted += int((out < self._accept_prob).sum())
            self._commit = self.open("detector.maximal.commit")
            return out
        return wrapper

    def _gain_switch(self, fn):
        inner = self._spanned("quality.gain_switch", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._sweep is not None:
                self._sweep.gain_switch_calls += 1
            return inner(*args, **kwargs)
        return wrapper

    def _plan_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(graph, st, labels, agg, lo, hi, *args, **kwargs):
            ptr = graph.neighbor_union().ptr
            entries = int(ptr[hi]) - int(ptr[lo])
            with self._lock:
                if self._sweep is not None:
                    self._sweep.plan_entries += entries
            return fn(graph, st, labels, agg, lo, hi, *args, **kwargs)
        return wrapper

    def _union(self, fn):
        inner = self._spanned("graph.union", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            with self._lock:
                self.union_entries[self.run] = (
                    self.union_entries.get(self.run, 0) + int(out.nbr.size))
            return out
        return wrapper
