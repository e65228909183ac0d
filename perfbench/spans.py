"""In-memory spans and counters around the program's public functions.

The benchmark wraps functions from the outside: each probe replaces one
function (or method) on its defining module and on every ``semcomm`` module
that bound the same object by name, so ``semcomm.cli.rd_sweep`` and
``semcomm.lossy.rd_sweep`` both record.  Functions called more than about
10^4 times per command are counted, never spanned, which keeps the tracing
overhead small.  Spans stay in memory; the caller writes them out.

Worker threads do not inherit the caller's context, so a span opened on a
thread with no open span of its own takes the main thread's innermost open
span as its parent.  Self time is a span's duration minus the union of its
children's intervals, which stays correct when children overlap.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float

    def as_json(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start_s": self.start - origin, "end_s": self.end - origin}


class Tracer:
    """Collects spans, call counts, distinct-input sets and maxima."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._distinct: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end))

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def record_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def distinct(self, key: str, item) -> None:
        with self._lock:
            self._distinct[key].add(item)

    def close_command(self) -> None:
        """Fold the distinct-input sets of one command into the counts."""
        with self._lock:
            for key, items in self._distinct.items():
                self.counts[key] += len(items)
            self._distinct.clear()

    def take(self) -> tuple[list[Span], Counter, dict[str, float]]:
        """Hand over everything recorded so far and start empty."""
        out = (self.spans, self.counts, self.maxima)
        self.spans, self.counts, self.maxima = [], Counter(), {}
        self._distinct.clear()
        return out


# --- probes ----------------------------------------------------------------

Observer = Callable[[Tracer, tuple, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``target`` is ``module:attr`` or ``module:Class.method`` below the
    ``semcomm`` package.  ``mode`` is ``span`` (span every call), ``outer``
    (span only calls not nested in another call of the same function) or
    ``count`` (count calls only).  Every mode counts calls under the span
    name; ``observe`` adds counters from the arguments and result.
    """

    target: str
    mode: str = "span"
    observe: Observer | None = None

    @property
    def name(self) -> str:
        module, attr = self.target.split(":")
        return f"{module}.{attr}"


def _wrap(tracer: Tracer, probe: Probe, fn):
    name = probe.name
    observe = probe.observe

    if probe.mode == "count":
        # hot paths run on the main thread only, so no lock is taken here
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    depth = threading.local()

    def spanned(*args, **kwargs):
        tracer.count(name)
        level = getattr(depth, "n", 0)
        if probe.mode == "outer" and level:
            return fn(*args, **kwargs)
        depth.n = level + 1
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        finally:
            depth.n = level
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return spanned


def _resolve(target: str):
    """(owner, attr, raw attribute) for a probe target, or None if absent."""
    module_name, attr = target.split(":")
    try:
        owner = importlib.import_module(f"semcomm.{module_name}")
    except ImportError:
        return None
    *classes, leaf = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(leaf)
    else:
        raw = getattr(owner, leaf, None)
    if raw is None:
        return None
    return owner, leaf, raw


@contextmanager
def instrument(tracer: Tracer, probes: list[Probe]):
    """Install every probe for the duration of the block; yields the names
    of probes whose target no longer exists in the program."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for probe in probes:
            found = _resolve(probe.target)
            if found is None:
                missing.append(probe.target)
                continue
            owner, leaf, raw = found
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, probe, raw.__func__))
                else:
                    wrapped = _wrap(tracer, probe, raw)
                undo.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            wrapped = _wrap(tracer, probe, raw)
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("semcomm"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        undo.append((module, key, raw))
                        setattr(module, key, wrapped)
        yield missing
    finally:
        for owner, key, raw in reversed(undo):
            setattr(owner, key, raw)


# --- span arithmetic ---------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def roots(spans: list[Span]) -> dict[int, Span]:
    """The outermost recorded ancestor of each span (itself if it has none)."""
    by_id = {s.id: s for s in spans}
    out: dict[int, Span] = {}
    for s in spans:
        top = s
        while top.parent is not None and top.parent in by_id:
            top = by_id[top.parent]
        out[s.id] = top
    return out


def total_time(spans: list[Span], names: set[str]) -> float:
    """Summed duration of spans in ``names`` not nested in another of them."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        up = s.parent
        nested = False
        while up is not None and up in by_id:
            if by_id[up].name in names:
                nested = True
                break
            up = by_id[up].parent
        if not nested:
            total += s.end - s.start
    return total
