"""Span tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer from the outside —
no module of the program is edited — and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory and are written
out once, when the run ends.  The per-layer metrics of ``--trace 1`` are
derived from those spans (a layer's *self* time is its span's duration minus
the part its child spans cover) and from counters collected at the same
boundaries.

The wrappers are installed only while a traced set-up or pass runs
(``Tracer.recording()``).  The runs that yield the end-to-end metrics, and
the untraced passes a traced run alternates with, call the program exactly
as it is, so the difference between traced and untraced passes is the whole
cost of tracing.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.compiler import DatabaseLoader
from repro.cosy import CosyAnalyzer, PushdownStrategy
from repro.relalg import (
    Database,
    DatabaseClient,
    ResultSet,
    SimulatedBackend,
    Table,
)

#: QueryStats counters summed per traced pass (``database.<name>`` metrics).
QUERY_COUNTERS = (
    "rows_scanned",
    "index_lookups",
    "range_probes",
    "hash_probes",
    "rows_joined",
    "rows_returned",
    "subqueries",
)

#: (span name, owner, attribute) of every wrapped layer boundary.
WRAPPED = (
    ("cosy.analyze", CosyAnalyzer, "analyze"),
    ("cosy.evaluate", PushdownStrategy, "evaluate"),
    ("compiler.load", DatabaseLoader, "load"),
    ("compiler.flush", DatabaseLoader, "flush"),
    ("client.query", DatabaseClient, "query"),
    ("client.execute", DatabaseClient, "execute"),
    ("client.executemany", DatabaseClient, "executemany"),
    ("backend.query", SimulatedBackend, "query"),
    ("backend.execute", SimulatedBackend, "execute"),
    ("backend.executemany", SimulatedBackend, "executemany"),
    ("database.execute", Database, "execute"),
    ("database.executemany", Database, "executemany"),
    ("database.execute_statement", Database, "execute_statement"),
    ("storage.insert_many", Table, "insert_many"),
    ("wal.fsync", os, "fsync"),
)


class Span:
    """One recorded call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, end, parent, request) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    """Records spans at the wrapped layer boundaries inside ``recording()``.

    ``install()`` patches the boundaries and ``uninstall()`` restores every
    original attribute; ``active`` is true while they are patched.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.request_id = 0
        #: CPU seconds of this process, and wall minus CPU seconds (time
        #: spent waiting, e.g. on fsync), inside request spans.
        self.request_cpu_s = 0.0
        self.request_wait_s = 0.0
        self.counters: Dict[str, int] = {}
        self.partition_rows: Dict[int, int] = {}
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, owner, attribute in WRAPPED:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        database_span = name.startswith("database.")
        insert_span = name == "storage.insert_many"

        def traced(*args, **kwargs):
            outer_database = database_span and not tracer._inside("database.")
            sid = tracer._open(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(sid, name, start)
            if outer_database and isinstance(result, ResultSet):
                tracer._count_stats(result.stats)
            elif insert_span and isinstance(result, int):
                tracer.count("storage.rows_inserted", result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Wrap the boundaries and record spans for the enclosed code only."""
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _inside(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for _, name in self._stack)

    def _open(self, name: str) -> int:
        self._next_id += 1
        self._stack.append((self._next_id, name))
        return self._next_id

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent, self.request_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark-side code (no-op while inactive)."""
        if not self.active:
            yield
            return
        sid = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def count(self, key: str, amount: int = 1) -> None:
        if self.active:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _count_stats(self, stats) -> None:
        for counter in QUERY_COUNTERS:
            self.count(f"database.{counter}", getattr(stats, counter, 0))
        partitions = getattr(stats, "partition_rows_scanned", None) or {}
        for pid, rows in partitions.items():
            self.partition_rows[pid] = self.partition_rows.get(pid, 0) + rows

    def clear_counters(self) -> None:
        """Forget the counters of earlier phases (e.g. the set-up)."""
        self.counters = {}
        self.partition_rows = {}
        self.request_cpu_s = 0.0
        self.request_wait_s = 0.0

    @contextmanager
    def request(self) -> Iterator[None]:
        """Mark one user operation: a new request id, and while active a
        ``request`` span plus this process's CPU time inside it."""
        self.request_id += 1
        if not self.active:
            yield
            return
        cpu = time.process_time()
        start = time.perf_counter()
        with self.span("request"):
            yield
        cpu = time.process_time() - cpu
        self.request_cpu_s += cpu
        self.request_wait_s += time.perf_counter() - start - cpu

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every recorded span as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - covered.get(span.sid, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def outermost(spans: List[Span], prefix: str) -> List[Span]:
    """Spans named ``prefix*`` whose parent is not itself a ``prefix*`` span."""
    names = {span.sid: span.name for span in spans}
    return [
        span
        for span in spans
        if span.name.startswith(prefix)
        and not names.get(span.parent, "").startswith(prefix)
    ]
