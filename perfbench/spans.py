"""Span tracing for the benchmark's traced runs.

Every wrapper lives here: :func:`installed` patches the public entry
points listed in :data:`ENTRY_POINTS` for the duration of a ``with``
block and restores the originals afterwards, so untraced runs execute
the unmodified program.  Spans are kept in memory by a
:class:`SpanRecorder` and written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

SPAN = "span"
COUNT = "count"

#: (span name, module, qualified name, kind).  Several entry points may
#: share one span name; a layer's time sums the *outermost* spans of its
#: name so nested calls (``analyze_all`` → ``analyze_constraint``) are
#: not counted twice.  ``RowSlots.find_group`` is only counted: it runs
#: ~128k times on X1P1, where a span per call would distort the run.
ENTRY_POINTS = (
    ("bench.make_dataset", "repro.bench.circuits", "make_dataset", SPAN),
    ("timing.build", "repro.timing.delay_graph", "GlobalDelayGraph.build", SPAN),
    ("timing.build", "repro.timing.constraint", "build_constraint_graph", SPAN),
    ("timing.sta", "repro.timing.sta", "StaticTimingAnalyzer.analyze_constraint", SPAN),
    ("timing.sta", "repro.timing.sta", "StaticTimingAnalyzer.analyze_all", SPAN),
    ("layout.assign", "repro.layout.feedthrough", "FeedthroughPlanner.assign_all", SPAN),
    ("layout.assign", "repro.layout.feedthrough", "FeedthroughPlanner.assign_net", SPAN),
    ("layout.assign", "repro.layout.feedcell", "FeedCellInserter.ensure_assignment", SPAN),
    ("layout.find_group", "repro.layout.feedthrough", "RowSlots.find_group", COUNT),
    ("routegraph.build", "repro.routegraph.build", "build_routing_graph", SPAN),
    ("routegraph.reclassify", "repro.routegraph.graph", "RoutingGraph.delete", SPAN),
    ("routegraph.tree_eval", "repro.routegraph.tree_engine", "FullTreeEngine.evaluate_many", SPAN),
    ("routegraph.tree_eval", "repro.routegraph.tree_engine", "IncrementalTreeEngine.evaluate_many", SPAN),
    ("core.density", "repro.core.density", "DensityEngine.add_edge", SPAN),
    ("core.density", "repro.core.density", "DensityEngine.remove_edge", SPAN),
    ("core.select", "repro.core.candidates", "CandidateEngine.select", SPAN),
    ("core.criteria", "repro.core.criteria", "evaluate_delay_criteria_batch", SPAN),
    ("core.reroute", "repro.core.router", "GlobalRouter.reroute_net", SPAN),
    ("core.verify", "repro.core.verify", "verify_routing", SPAN),
    ("channelrouter.route", "repro.channelrouter.leftedge", "route_channels", SPAN),
    ("analysis.signoff", "repro.analysis.signoff", "sign_off", SPAN),
    ("engines.prepare", "repro.core.router", "GlobalRouter.prepare", SPAN),
    ("exec.cache_get", "repro.exec.cache", "ResultCache.get_record", SPAN),
    ("exec.cache_put", "repro.exec.cache", "ResultCache.put", SPAN),
    ("service.drain", "repro.service.server", "ServiceThread.stop", SPAN),
)


class Span:
    """One timed call: ``parent`` is the span open on the same thread
    when this one started; spans of one pass share ``trace_id``."""

    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name: str, start: float, end: float = 0.0,
                 parent: Optional["Span"] = None, trace_id: str = ""):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """In-memory span store shared by every wrapper of one run."""

    spans: List[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    trace_id: str = ""

    def __post_init__(self) -> None:
        self._local = threading.local()

    def open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            trace_id=self.trace_id,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def write(self, path) -> None:
        """Dump every span as one JSON line ``[id, name, start, end,
        parent id, trace id]``; ids are positions in the file."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                parent = ids[id(span.parent)] if span.parent else None
                handle.write(json.dumps(
                    [index, span.name, span.start, span.end, parent, span.trace_id]
                ) + "\n")


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
def _span_wrapper(func: Callable, name: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def _count_wrapper(func: Callable, name: str, recorder: SpanRecorder) -> Callable:
    calls = recorder.calls

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return wrapper


def _rewrap(raw, wrap: Callable[[Callable], Callable]):
    """Wrap a class-dict attribute, keeping its descriptor kind."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every entry point for the block, then restore them all.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers that bound it at import
    time are traced too.
    """
    undo = []
    try:
        for name, module_name, qualname, kind in ENTRY_POINTS:
            make = _span_wrapper if kind == SPAN else _count_wrapper
            wrap = functools.partial(make, name=name, recorder=recorder)
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                raw = owner.__dict__[attr]
                undo.append((owner, attr, raw))
                setattr(owner, attr, _rewrap(raw, wrap))
                continue
            original = getattr(owner, attr)
            wrapped = wrap(original)
            for module in list(sys.modules.values()):
                module_id = getattr(module, "__name__", "")
                if module_id != "repro" and not module_id.startswith("repro."):
                    continue
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _has_ancestor(span: Span, names: Iterable[str]) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name in names:
            return True
        parent = parent.parent
    return False


def _outermost(spans: Iterable[Span], names, within: Optional[str]) -> Iterator[Span]:
    """Spans of ``names`` with no ancestor of the same names, and, when
    ``within`` is given, with a ``within`` span among their ancestors."""
    for span in spans:
        if span.name not in names or _has_ancestor(span, names):
            continue
        if within is None or _has_ancestor(span, (within,)):
            yield span


def layer_seconds(spans: Iterable[Span], *names: str, within: Optional[str] = None) -> float:
    """Wall time inside the named spans, each outermost span once."""
    return sum(span.duration for span in _outermost(spans, names, within))


def span_durations(spans: Iterable[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def span_count(spans: Iterable[Span], *names: str, within: Optional[str] = None) -> int:
    """Outermost calls into the named spans."""
    return sum(1 for _ in _outermost(spans, names, within))


def covered_seconds(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: List[Span], name: str) -> float:
    """Summed self time of the named spans: each span's duration minus
    the part of it that its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return sum(
        span.duration
        - covered_seconds(
            span.start,
            span.end,
            [(c.start, c.end) for c in children.get(id(span), [])],
        )
        for span in spans
        if span.name == name
    )
