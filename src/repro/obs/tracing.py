"""Span-based tracing for the plan → shard → ship → enumerate → merge
pipeline, with cross-process reparenting.

A :class:`Tracer` hands out ``with tracer.span("plan"):`` context managers.
Each span records wall-clock start, monotonic duration, static tags and a
parent link; parentage comes from a **thread-local stack**, so the
scheduler thread's ``batch`` root automatically adopts the ``plan`` /
``ship`` / ``merge`` spans opened beneath it while submit threads trace
independently.

Worker processes cannot share the stack, so span context crosses the
process boundary as a picklable ``(trace_id, span_id)`` tuple
(:meth:`Tracer.current_context`) carried in the ``WorkerPool`` task
payload.  Inside the worker a :class:`RemoteSpanRecorder` wraps the
enumeration in spans parented to that context and returns them as plain
dicts in the result fragment's meta; the submitting process calls
:meth:`Tracer.adopt` on merge, and ``render_tree()`` shows the worker-side
``enumerate`` spans (different ``pid``) under the batch that shipped them.

Span records are dicts — JSON-able, picklable, schema::

    {"name", "trace_id", "span_id", "parent_id", "start_s",
     "duration_s", "tags", "pid"}

:data:`NULL_TRACER` is the no-op default (shared reusable context manager,
no allocation, ``current_context()`` is ``None`` so workers skip recording
entirely).  Completed spans live in a bounded deque — a long-running
service keeps the most recent traces and sheds the oldest.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

#: Picklable span context: ``(trace_id, span_id)``.
SpanContext = Tuple[str, str]

_span_ids = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_span_ids):x}"


def _make_record(
    name: str,
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    start_s: float,
    duration_s: float,
    tags: Optional[Dict[str, object]],
) -> Dict[str, object]:
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_s": start_s,
        "duration_s": duration_s,
        "tags": dict(tags) if tags else {},
        "pid": os.getpid(),
    }


class Tracer:
    """Collects spans with thread-local parentage into bounded storage."""

    def __init__(self, max_spans: int = 4096) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: deque = deque(maxlen=max_spans)

    def _stack(self) -> List[SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, tags: Optional[Dict[str, object]] = None):
        """Record a span around the ``with`` body.

        The span's parent is the innermost open span on *this thread*; a
        span opened with an empty stack roots a new trace.  Never hold a
        span open across a generator ``yield`` — the stack is thread-local
        state and the consumer may run other spans between resumptions.
        """
        stack = self._stack()
        parent: Optional[SpanContext] = stack[-1] if stack else None
        span_id = _new_span_id()
        trace_id = parent[0] if parent is not None else span_id
        stack.append((trace_id, span_id))
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            record = _make_record(
                name,
                trace_id,
                span_id,
                parent[1] if parent is not None else None,
                start_wall,
                duration,
                tags,
            )
            with self._lock:
                self._spans.append(record)

    def current_context(self) -> Optional[SpanContext]:
        """The innermost open span on this thread, as a picklable tuple."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, records: Iterable[Dict[str, object]]) -> None:
        """Fold remote span records (e.g. a worker's) into this tracer."""
        if not records:
            return
        with self._lock:
            for record in records:
                self._spans.append(record)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        with self._lock:
            records = list(self._spans)
        if trace_id is None:
            return records
        return [r for r in records if r["trace_id"] == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids, oldest first."""
        seen: Dict[str, None] = {}
        for record in self.spans():
            seen.setdefault(record["trace_id"], None)
        return list(seen)

    def latest_trace_id(self) -> Optional[str]:
        ids = self.trace_ids()
        return ids[-1] if ids else None

    def find_trace(self, span_name: str) -> Optional[str]:
        """The most recent trace containing a span called ``span_name``."""
        latest = None
        for record in self.spans():
            if record["name"] == span_name:
                latest = record["trace_id"]
        return latest

    def render_tree(self, trace_id: Optional[str] = None) -> str:
        """ASCII span tree for one trace (default: the most recent)."""
        if trace_id is None:
            trace_id = self.latest_trace_id()
        records = self.spans(trace_id) if trace_id is not None else []
        if not records:
            return "(no spans)"
        by_id = {r["span_id"]: r for r in records}
        children: Dict[Optional[str], List[dict]] = {}
        for record in records:
            parent = record["parent_id"]
            if parent is not None and parent not in by_id:
                parent = None  # orphan (parent evicted): promote to root
            children.setdefault(parent, []).append(record)
        for siblings in children.values():
            siblings.sort(key=lambda r: (r["start_s"], r["span_id"]))

        lines: List[str] = []

        def emit(record: dict, depth: int) -> None:
            tags = record["tags"]
            tag_text = (
                " [" + ", ".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
                if tags
                else ""
            )
            lines.append(
                f"{'  ' * depth}{record['name']} "
                f"{record['duration_s'] * 1e3:.2f}ms "
                f"pid={record['pid']}{tag_text}"
            )
            for child in children.get(record["span_id"], []):
                emit(child, depth + 1)

        for root in children.get(None, []):
            emit(root, 0)
        return "\n".join(lines)


class _NullSpan:
    """Reusable no-op context manager — one shared instance, no allocation."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the default when tracing is not opted into."""

    def span(self, name: str, tags: Optional[Dict[str, object]] = None):
        return _NULL_SPAN

    def current_context(self) -> None:
        return None

    def adopt(self, records: Iterable[Dict[str, object]]) -> None:
        pass

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        return []

    def trace_ids(self) -> List[str]:
        return []

    def latest_trace_id(self) -> None:
        return None

    def find_trace(self, span_name: str) -> None:
        return None

    def render_tree(self, trace_id: Optional[str] = None) -> str:
        return "(no spans)"

    def __repr__(self) -> str:
        return "NullTracer()"


#: The shared no-op tracer every uninstrumented component holds.
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: Optional[object]) -> object:
    """``tracer`` if given, else the no-op singleton."""
    return tracer if tracer is not None else NULL_TRACER


class RemoteSpanRecorder:
    """Worker-side span collection, parented to a shipped ``SpanContext``.

    Lives inside pool workers where no :class:`Tracer` exists.  With a
    ``None`` context (tracing off, or a one-shot pool without payload
    context) every ``span()`` is the shared no-op and ``records`` stays
    empty — the fragment meta ships no span data.  Otherwise each span
    becomes a plain-dict record parented to the submitting batch's open
    span, returned with the result fragment and re-homed into the real
    tracer via :meth:`Tracer.adopt`.
    """

    __slots__ = ("context", "records")

    def __init__(self, context: Optional[SpanContext]) -> None:
        self.context = context
        self.records: List[Dict[str, object]] = []

    @contextmanager
    def _recording_span(self, name: str, tags: Optional[Dict[str, object]]):
        trace_id, parent_id = self.context  # type: ignore[misc]
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append(
                _make_record(
                    name,
                    trace_id,
                    _new_span_id(),
                    parent_id,
                    start_wall,
                    time.perf_counter() - start,
                    tags,
                )
            )

    def span(self, name: str, tags: Optional[Dict[str, object]] = None):
        if self.context is None:
            return _NULL_SPAN
        return self._recording_span(name, tags)
