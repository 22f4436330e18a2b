"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed on module globals (and on ``Group`` for the
translate counters) at the places the library looks each name up, so the
program itself is unchanged.  Every wrapped call records one span
(id, name, start, end, parent) in a flat ``array('q')``; a layer's self
time is its span duration minus the union of the intervals its child spans
cover.  Spans opened on a thread-pool worker with no open span of its own
are attributed to the innermost open span of the thread that installed the
tracer, which is the enclosing ``decide_strong_cfs`` call.

Outcome counters (evidence kinds, obstruction fires, classes yielded) are
deterministic for a given input and are kept apart from the timings.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable

_FIELDS = 5  # span id, name id, start ns, end ns, parent span id
NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack
        self._lock = threading.Lock()
        self.outcomes: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []
        self._call_counters: dict[str, Any] = {}
        self.call_counts: dict[str, int] = {}  # filled in by uninstall()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        """Innermost open span of this thread; on a worker thread with none
        open, the innermost open span of the thread that made the tracer."""
        if stack:
            return stack[-1]
        return self._owner_stack[-1] if self._owner_stack else NO_PARENT

    def _open(self) -> tuple[list[int], int, int]:
        """Push a new span on this thread's stack: (stack, parent id, span id)."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def _close(self, stack: list[int], sid: int, nid: int, start: int, end: int, parent: int) -> None:
        stack.pop()
        # one extend of a tuple of ints is atomic under the GIL, so records
        # from worker threads never interleave
        self.records.extend((sid, nid, start, end, parent))

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.outcomes[key] += amount

    def span(self, name: str, fn: Callable, outcome: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``;
        ``outcome(tracer, result, args)`` may update the outcome counters."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack, parent, sid = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, sid, nid, start, clock(), parent)
            if outcome is not None:
                outcome(self, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_iter(self, name: str, fn: Callable, yielded_key: str) -> Callable:
        """Wrap a generator function: each ``next`` is one span, so time
        the consumer spends between items is not charged to the generator."""
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        class _Iter:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                stack, parent, sid = tracer._open()
                start = clock()
                try:
                    item = next(self._it)
                finally:
                    tracer._close(stack, sid, nid, start, clock(), parent)
                tracer.count(yielded_key)
                return item

        def wrapper(*args, **kwargs):
            return _Iter(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def call_counter(self, name: str, fn: Callable) -> Callable:
        """Count calls of a hot method without recording spans;
        ``next`` on ``itertools.count`` is atomic under the GIL."""
        counter = itertools.count()
        self._call_counters[name] = counter

        def wrapper(*args, _fn=fn, _next=next, _c=counter):
            _next(_c)
            return _fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, name: str) -> int:
        """Calls counted by ``call_counter(name, ...)``; read after uninstall()."""
        return self.call_counts.get(name, 0)

    # -- installation --------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, name: str, fn: Callable, owners: Iterable[Any], outcome: Callable | None = None) -> None:
        """Install one span wrapper at every owner that binds ``fn``."""
        wrapped = self.span(name, fn, outcome)
        for owner in owners:
            self.patch(owner, fn.__name__, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._call_counters:
            name, counter = self._call_counters.popitem()
            self.call_counts[name] = next(counter)  # the count, read once

    # -- root spans from the benchmark itself --------------------------------

    def root(self, name: str) -> "_Root":
        return _Root(self, name)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> "SpanTable":
        return SpanTable(self.names, self.records)

    def write(self, path: Path, summary: dict[str, Any]) -> None:
        """Spans as raw native-endian int64 records next to a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            self.records.tofile(fh)
        header = {
            "record_fields": ["span_id", "name_id", "start_ns", "end_ns", "parent_id"],
            "names": self.names,
            "spans": len(self.records) // _FIELDS,
            **summary,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1, sort_keys=True))


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.nid = tracer._name_id(name)

    def __enter__(self) -> "_Root":
        self.stack, self.parent, self.sid = self.tracer._open()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        self.tracer._close(self.stack, self.sid, self.nid, self.start, self.end, self.parent)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTable:
    """Spans decoded from the flat record array, with per-name aggregates."""

    def __init__(self, names: list[str], records: array) -> None:
        self.names = names
        n = len(records) // _FIELDS
        sid = records[0::_FIELDS]
        self.name = records[1::_FIELDS]
        self.start = records[2::_FIELDS]
        self.end = records[3::_FIELDS]
        parent_id = records[4::_FIELDS]
        pos = {s: i for i, s in enumerate(sid)}
        self.parent = [pos.get(p, -1) for p in parent_id]
        self.count = n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        self.self_ns = [0] * n
        for i in range(n):
            lo, hi = self.start[i], self.end[i]
            kids = children[i]
            if not kids:
                covered = 0
            elif len(kids) == 1:
                k = kids[0]
                covered = min(self.end[k], hi) - max(self.start[k], lo)
            else:
                covered = _union_ns(
                    [(max(self.start[k], lo), min(self.end[k], hi)) for k in kids]
                )
            self.self_ns[i] = (hi - lo) - max(covered, 0)
        self._by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            self._by_name.setdefault(names[nid], []).append(i)

    def indices(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def calls(self, *names: str) -> int:
        return sum(len(self.indices(nm)) for nm in names)

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[i] for nm in names for i in self.indices(nm)) / 1e9

    def inclusive_s(self, *names: str) -> float:
        """Time covered by spans of the given names, nested ones counted once."""
        wanted = {self.names.index(nm) for nm in names if nm in self.names}
        total = 0
        for nm in names:
            for i in self.indices(nm):
                p = self.parent[i]
                while p >= 0 and self.name[p] not in wanted:
                    p = self.parent[p]
                if p < 0:
                    total += self.end[i] - self.start[i]
        return total / 1e9

    def children_named(self, parent: str, child: str) -> int:
        """Number of ``child`` spans whose parent span is named ``parent``."""
        return sum(
            1 for i in self.indices(child)
            if self.parent[i] >= 0 and self.names[self.name[self.parent[i]]] == parent
        )
