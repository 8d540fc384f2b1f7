"""Continuous-ingestion micro-batch service on top of the streaming engine.

The batch engine answers one *closed* batch: every query is known before
``run``/``stream`` starts.  A production front door faces the opposite
shape — queries arrive continuously, and a new arrival should neither wait
for an entire in-flight batch to finish nor pay a full batch pipeline all
by itself.  :class:`IngestionService` bridges the two with micro-batching:

1. ``submit(query)`` enqueues the query and immediately returns a
   :class:`QueryTicket`; the caller blocks only when it chooses to
   (``ticket.result(timeout=...)``).
2. A single background scheduler thread groups pending queries into
   micro-batches by group commit's rule: whenever it is free, it takes
   everything pending, up to :class:`AdmissionPolicy`'s
   ``max_batch_size`` (a hard cap: what queues behind a full batch waits
   for the next one).  Nothing waits on a timer: a lone arrival at an
   idle service runs at once, and whatever arrives while a batch runs
   forms the next one, so batches grow with load by themselves.
   ``submit_many`` enqueues a group under one lock hold, so the scheduler
   sees all of it or none of it.  Sharing *inside* a batch is
   ClusterQuery's job, at plan time.
3. Each micro-batch is planned against the version it pinned and runs
   on the scheduler thread
   (:meth:`~repro.batch.engine.BatchQueryEngine.stream_planned`) with
   ``ordered=False``, so a ticket resolves the moment the forward root or
   query owning its position completes — a root's ⊕ join answers every
   query it serves — never at batch rank order.  The
   service spawns no process: ``num_workers`` and ``max_workers`` are
   validated like the engine's and otherwise inert.

Error and lifecycle semantics
-----------------------------
* A failure inside a micro-batch resolves every still-unresolved ticket of
  that batch with the exception (tickets whose results had already flushed
  keep them); the scheduler itself survives and keeps serving later
  batches.
* ``max_pending`` applies backpressure: ``submit`` blocks (or raises
  :class:`ServiceOverloadedError` with ``block=False``) while the queue is
  full.
* Whatever kills the scheduler thread itself closes the service: the
  tickets it had popped and the queue fail with a
  :class:`ServiceClosedError` chaining the cause, and the next ``submit``
  raises one naming it — never a ticket nobody will resolve.
* ``close(drain=True)`` stops admission, lets the scheduler work off the
  queue, then joins the thread.
  ``close(drain=False)`` fails queued-but-undispatched tickets with
  :class:`ServiceClosedError`; the batch already in flight still resolves.

Lock discipline
---------------
State shared between API callers and the scheduler thread is declared in
the class-level ``IngestionService._GUARDED_BY_LOCK`` frozenset, and every
access to a declared attribute must sit inside ``with self._lock:``.  The
declaration is machine-readable: the autouse ``guarded_by_lock`` fixture in
``tests/conftest.py`` fails any test in which a declared name is read or
written, once ``__init__`` has returned, by a thread not holding the lock —
so a method that reads a counter without the lock fails the suite on its
first call instead of waiting for an unlucky interleaving.  When adding
shared state, add its name to the set; thread-confined state stays out.
Lock order, which nothing checks by machine: the service's condition
(``self._lock``) or the graph store's ``RLock`` first, then a metric's own
lock (a gauge set or counter bump under either is fine; a metric calls
nothing while it holds its lock) — never the reverse, and never the
service and store locks nested in either order: the scheduler pins, plans
and releases outside ``self._lock``.

>>> from repro.graph.generators import paper_example_graph
>>> from repro.queries.query import HCSTQuery
>>> with serve(paper_example_graph(), algorithm="batch+") as service:
...     ticket = service.submit(HCSTQuery(0, 11, 5))
...     len(ticket.result(timeout=30.0))
3
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, List, Optional, Sequence

from repro.batch.config import NumWorkers
from repro.batch.engine import BatchQueryEngine
from repro.batch.planner import QueryPlanner
from repro.batch.results import SharingStats
from repro.enumeration.paths import Path
from repro.graph.digraph import DiGraph
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import resolve_tracer
from repro.queries.query import HCSTQuery
from repro.utils.validation import require

class ServiceClosedError(RuntimeError):
    """The service no longer accepts queries (``close`` was called, or its
    scheduler thread died — then the cause is chained)."""


class ServiceOverloadedError(RuntimeError):
    """``submit``/``submit_many`` with ``block=False`` found no room for
    its queries under ``max_pending``."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs bounding how arrivals are grouped into micro-batches.

    There is no timer: a free scheduler dispatches everything pending, up
    to ``max_batch_size``, and arrivals during that run form the next
    batch.

    Attributes
    ----------
    max_batch_size:
        The most queries one micro-batch holds (``1`` degenerates to
        one-query-per-batch serving).  A hard cap: the rest wait for the
        next batch.
    max_pending:
        Backpressure bound on queued-but-undispatched queries; ``submit``
        blocks (or raises with ``block=False``) beyond it.
    """

    max_batch_size: int = 32
    max_pending: int = 1024

    def __post_init__(self) -> None:
        require(self.max_batch_size >= 1, "max_batch_size must be >= 1")
        require(self.max_pending >= 1, "max_pending must be >= 1")


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of a service's counters.

    ``mean_batch_size`` > 1 is micro-batching actually happening;
    ``sharing`` accumulates the per-batch :class:`SharingStats`, so
    ``sharing.cache_reuse_count`` > 0 means cross-query sharing survived
    the move from closed batches to continuous ingestion.

    ``mean_ticket_latency_s`` averages over *successfully resolved*
    tickets only: failed and abandoned tickets carry no meaningful
    service latency (a drain-on-close failure would register near-zero,
    a deadline-expired one near-infinite) and would skew the mean either
    way.  For percentiles, opt into a metrics registry
    (``repro_service_ticket_latency_seconds``).

    ``completed``, ``failed`` and the latency mean count a ticket before
    it reads ``done()``, so a snapshot taken after a ticket resolved
    includes it.  ``batches_dispatched``, ``mean_batch_size`` and
    ``sharing`` count a micro-batch when its run ends, which may be after
    its last ticket resolved.

    ``joined_fast_path`` is always 0: admission no longer merges queued
    queries into a batch past its cut.  The field stays only because the
    benchmark harness reads it; it goes when the harness contract next
    moves (ROADMAP item 9).
    """

    admitted: int
    completed: int
    failed: int
    pending: int
    batches_dispatched: int
    mean_batch_size: float
    mean_ticket_latency_s: float
    sharing: SharingStats
    joined_fast_path: int = 0


class QueryTicket:
    """Handle for one submitted query.

    Resolution is edge-triggered through a :class:`threading.Event`; the
    ticket is resolved exactly once, either with the query's paths or with
    the exception that killed its micro-batch.
    """

    __slots__ = ("query", "submitted_at", "resolved_at",
                 "_event", "_paths", "_error", "_traceback")

    def __init__(self, query: HCSTQuery) -> None:
        self.query = query
        self.submitted_at = time.perf_counter()
        self.resolved_at: Optional[float] = None
        self._event = threading.Event()
        self._paths: Optional[List[Path]] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """True once the ticket has resolved (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> List[Path]:
        """Block until resolution and return the query's paths.

        Raises ``TimeoutError`` if the ticket has not resolved within
        ``timeout`` seconds, or re-raises the exception that failed the
        ticket's micro-batch.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"ticket for {self.query} unresolved after {timeout}s"
            )
        if self._error is not None:
            # The batch's tickets share one exception object, and raising
            # it appends this frame to its traceback: restore the one it
            # failed with first, so every call shows the same frames.
            raise self._error.with_traceback(self._traceback)
        assert self._paths is not None
        return list(self._paths)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-resolution latency (None while unresolved)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at

    def _resolve(self, paths: List[Path], resolved_at: float) -> None:
        self._paths = paths
        self.resolved_at = resolved_at
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._traceback = error.__traceback__
        self.resolved_at = time.perf_counter()
        self._event.set()

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.done()
            else ("failed" if self._error is not None else "resolved")
        )
        return f"QueryTicket({self.query}, {state})"


class IngestionService:
    """Micro-batch scheduler serving a continuous query stream.

    Parameters mirror :class:`BatchQueryEngine` (``graph``, ``algorithm``,
    ``gamma``, ``num_workers``, ``max_workers``, ``kernel`` — forwarded to
    it verbatim, so a bad value raises ``ValueError`` here) plus the
    :class:`AdmissionPolicy`.  Every micro-batch runs on the scheduler
    thread whatever ``num_workers`` says: ``num_workers`` and
    ``max_workers`` are validated and inert.  (They stay because the
    benchmark harness passes them; ROADMAP item 9 drops them.)  The
    scheduler thread starts immediately unless ``start=False`` (tests use
    a stopped service to exercise backpressure deterministically).  Use as a context manager
    for a drain-then-join shutdown.
    """

    # Shared mutable state, touched by API callers and the scheduler
    # thread alike; the tests' ``guarded_by_lock`` fixture fails any access
    # outside ``with self._lock:``.
    _GUARDED_BY_LOCK = frozenset(
        {
            "_pending",
            "_closing",
            "_died",
            "_drain_on_close",
            "_thread",
            "_admitted",
            "_completed",
            "_failed",
            "_batches_dispatched",
            "_batched_total",
            "_latency_total_s",
            "_sharing",
        }
    )

    def __init__(
        self,
        graph: DiGraph,
        algorithm: str = "batch+",
        gamma: float = 0.5,
        num_workers: NumWorkers = "auto",
        policy: Optional[AdmissionPolicy] = None,
        max_workers: Optional[int] = None,
        kernel: str = "auto",
        start: bool = True,
        metrics=None,
        tracer=None,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._metrics = resolve_registry(metrics)
        self._tracer = resolve_tracer(tracer)
        self._engine = BatchQueryEngine(
            graph,
            algorithm=algorithm,
            gamma=gamma,
            num_workers=num_workers,
            max_workers=max_workers,
            kernel=kernel,
            metrics=metrics,
            tracer=tracer,
        )
        # One planner for the service's lifetime: each batch's index is the
        # next batch's cached/delta starting point.  Its plans are one
        # process whatever was asked, so every batch runs in-process.
        self._planner = QueryPlanner(
            graph,
            replace(self._engine.config, num_workers=1),
            metrics=metrics,
            tracer=tracer,
        )
        self._lock = threading.Condition()
        self._pending: Deque[QueryTicket] = deque()
        self._closing = False
        #: What killed the scheduler thread, if anything did.
        self._died: Optional[BaseException] = None
        self._drain_on_close = True
        self._thread: Optional[threading.Thread] = None
        # Counters (declared in _GUARDED_BY_LOCK).
        self._admitted = 0
        self._completed = 0
        self._failed = 0
        self._batches_dispatched = 0
        self._batched_total = 0
        self._latency_total_s = 0.0
        self._sharing = SharingStats()
        # Prefetched metric handles (no-ops unless a registry was passed);
        # thread-safe in their own right, so updated outside self._lock.
        self._m_admitted = self._metrics.counter("repro_service_admitted_total")
        self._m_completed = self._metrics.counter("repro_service_completed_total")
        self._m_failed = self._metrics.counter("repro_service_failed_total")
        self._m_batches = self._metrics.counter("repro_service_batches_total")
        self._m_queue_depth = self._metrics.gauge("repro_service_queue_depth")
        self._m_latency = self._metrics.histogram(
            "repro_service_ticket_latency_seconds"
        )
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        return self._engine.graph

    @property
    def algorithm(self) -> str:
        return self._engine.algorithm

    def start(self) -> "IngestionService":
        """Start the scheduler thread (idempotent; raises after close)."""
        with self._lock:
            require(not self._closing, "service is closed", ServiceClosedError)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._scheduler_loop,
                    name="repro-ingestion-scheduler",
                    daemon=True,
                )
                self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission and shut the scheduler down (idempotent).

        With ``drain=True`` (default) queued queries are still served
        before the scheduler exits; with ``drain=False`` queued tickets
        fail with :class:`ServiceClosedError` (the micro-batch already in
        flight, if any, resolves normally either way).  Blocks until the
        scheduler thread is joined (bounded by ``timeout``).
        """
        with self._lock:
            self._closing = True
            self._drain_on_close = drain
            thread = self._thread
            self._lock.notify_all()
        if thread is not None:
            thread.join(timeout)
        else:
            # Never started: no thread will ever serve the queue.
            self._fail_pending(ServiceClosedError("service closed unstarted"))

    def __enter__(self) -> "IngestionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: HCSTQuery,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> QueryTicket:
        """Enqueue ``query`` and return its :class:`QueryTicket`.

        Applies the policy's ``max_pending`` backpressure: when the queue
        is full, ``block=True`` waits for space (``TimeoutError`` after
        ``timeout`` seconds) and ``block=False`` raises
        :class:`ServiceOverloadedError` immediately.  Raises
        :class:`ServiceClosedError` once the service is closing.
        """
        require(
            isinstance(query, HCSTQuery),
            f"submit expects an HCSTQuery, got {type(query).__name__}",
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closing:
                    died = self._died
                    why = "" if died is None else f": its scheduler died of {died!r}"
                    raise ServiceClosedError("service is closed" + why) from died
                if len(self._pending) < self.policy.max_pending:
                    break
                require(
                    block,
                    f"pending queue is full ({self.policy.max_pending})",
                    ServiceOverloadedError,
                )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        "timed out waiting for pending-queue space"
                    )
                self._lock.wait(remaining)
            ticket = QueryTicket(query)
            self._pending.append(ticket)
            self._admitted += 1
            self._m_queue_depth.set(len(self._pending))
            self._lock.notify_all()
        self._m_admitted.inc()
        return ticket

    def submit_many(
        self, queries: Sequence[HCSTQuery], block: bool = True
    ) -> List[QueryTicket]:
        """Submit ``queries`` in order, returning one ticket each.

        When the queue has room for every query, they are admitted whole,
        under one hold of the lock: the scheduler sees the group entirely
        or not at all, so it goes out as one batch (up to
        ``max_batch_size``) as soon as it has arrived.  Without room,
        ``block=True`` submits them one at a time, each waiting for space
        like :meth:`submit`, and ``block=False`` raises
        :class:`ServiceOverloadedError` and admits none of them.
        """
        queries = list(queries)
        for query in queries:
            require(
                isinstance(query, HCSTQuery),
                f"submit expects an HCSTQuery, got {type(query).__name__}",
            )
        # One hold of the (reentrant) lock covers the room check and every
        # submit below, so no scheduler pop or other submitter interleaves.
        # A closing service is refused by the first submit, naming why.
        with self._lock:
            room = self.policy.max_pending - len(self._pending)
            if self._closing or len(queries) <= room:
                return [self.submit(query, block=False) for query in queries]
            require(
                block,
                f"pending queue has no room for {len(queries)} queries "
                f"({len(self._pending)} of {self.policy.max_pending} taken)",
                ServiceOverloadedError,
            )
        return [self.submit(query) for query in queries]

    def stats(self) -> ServiceStats:
        """Consistent point-in-time :class:`ServiceStats` snapshot."""
        with self._lock:
            sharing = SharingStats()
            sharing.merge(self._sharing)
            return ServiceStats(
                admitted=self._admitted,
                completed=self._completed,
                failed=self._failed,
                pending=len(self._pending),
                batches_dispatched=self._batches_dispatched,
                mean_batch_size=(
                    self._batched_total / self._batches_dispatched
                    if self._batches_dispatched
                    else 0.0
                ),
                mean_ticket_latency_s=(
                    self._latency_total_s / self._completed
                    if self._completed
                    else 0.0
                ),
                sharing=sharing,
            )

    # ------------------------------------------------------------------ #
    # Scheduler internals (single background thread)
    # ------------------------------------------------------------------ #
    def _scheduler_loop(self) -> None:
        closed = ServiceClosedError("service closed without drain")
        batch: Optional[List[QueryTicket]] = None
        try:
            while True:
                batch = self._collect_batch()
                if batch is None:
                    break
                self._dispatch(batch)
        except BaseException as error:
            # Nobody will serve the queue again: close the service, so the
            # next submit() is refused with the cause instead of waiting
            # forever, and fail what is queued with the same cause.
            closed = ServiceClosedError(f"scheduler died of {error!r}")
            closed.__cause__ = error
            with self._lock:
                self._closing = True
                self._died = error
            raise
        finally:
            # Runs on normal shutdown AND if the loop dies: the batch it
            # popped and the queued tickets must never hang forever.
            self._fail_pending(closed, popped=batch or ())

    def _collect_batch(self) -> Optional[List[QueryTicket]]:
        """Block until a query is pending, then pop and return everything
        pending, up to ``max_batch_size``.

        Returns ``None`` when the scheduler should exit: the service is
        closing and either the queue is empty or draining was declined.
        """
        with self._lock:
            while not self._pending and not self._closing:
                self._lock.wait()
            if not self._pending or (self._closing and not self._drain_on_close):
                return None
            batch = [
                self._pending.popleft()
                for _ in range(min(self.policy.max_batch_size, len(self._pending)))
            ]
            self._m_queue_depth.set(len(self._pending))
            self._lock.notify_all()  # space freed: wake blocked submitters
            return batch

    def _dispatch(self, batch: List[QueryTicket]) -> None:
        """Run one micro-batch through plan→execute, resolving tickets as
        positions flush (``ordered=False``: first completion wins).

        Wrapped in the trace's root ``batch`` span: the planner's ``plan``/
        ``shard`` spans hang off it, one trace per micro-batch.
        """
        with self._tracer.span(
            "batch",
            tags={"queries": len(batch), "algorithm": self.algorithm},
        ):
            self._dispatch_traced(batch)

    def _dispatch_traced(self, batch: List[QueryTicket]) -> None:
        queries = [ticket.query for ticket in batch]
        pin = None
        sharing = None
        try:
            # Pin the admitted version exactly once — one atomic seal of
            # the head — and thread that single snapshot through plan and
            # execute, so a mutation landing meanwhile never reaches the
            # batch.
            pin = self.graph.snapshots.pin()
            plan = self._planner.plan(queries, snapshot=pin)
            stream = self._engine.stream_planned(plan, ordered=False)
            while True:
                try:
                    position, paths = next(stream)
                except StopIteration as stop:
                    sharing = stop.value.sharing
                    break
                ticket = batch[position]
                resolved_at = time.perf_counter()
                latency = resolved_at - ticket.submitted_at
                # Counted before the ticket reads done: stats() never lags
                # a ticket its caller has already seen resolve.
                with self._lock:
                    self._completed += 1
                    self._latency_total_s += latency
                ticket._resolve(paths, resolved_at)
                self._m_completed.inc()
                self._m_latency.observe(latency)
        except BaseException as error:  # noqa: BLE001 - forwarded to tickets
            unresolved = [ticket for ticket in batch if not ticket.done()]
            with self._lock:
                self._failed += len(unresolved)
            for ticket in unresolved:
                ticket._fail(error)
            self._m_failed.inc(len(unresolved))
            # The scheduler itself survives a poisoned batch and keeps
            # serving subsequent micro-batches.
        finally:
            if pin is not None:
                # Refcount discipline: the sealed version is released when
                # its last pinned consumer (this batch) finishes; the
                # snapshot store drops non-head versions at zero pins.
                pin.release()
        with self._lock:
            self._batches_dispatched += 1
            self._batched_total += len(batch)
            if sharing is not None:
                self._sharing.merge(sharing)
        self._m_batches.inc()

    def _fail_pending(
        self, error: BaseException, popped: Sequence[QueryTicket] = ()
    ) -> None:
        """Fail every queued ticket, and every unresolved one of
        ``popped`` — a batch the scheduler took off the queue."""
        with self._lock:
            abandoned = [ticket for ticket in popped if not ticket.done()]
            abandoned += self._pending
            self._pending.clear()
            # Abandoned tickets count as failures but stay out of the
            # latency mean — they were never served, so their queue time
            # says nothing about service latency.
            self._failed += len(abandoned)
            self._m_queue_depth.set(0)
            self._lock.notify_all()
        for ticket in abandoned:
            ticket._fail(error)
        if abandoned:
            self._m_failed.inc(len(abandoned))

    def __repr__(self) -> str:
        with self._lock:
            state = "closing" if self._closing else "open"
            return (
                f"IngestionService({self.algorithm!r}, {state}, "
                f"pending={len(self._pending)}, admitted={self._admitted})"
            )


def serve(
    graph: DiGraph,
    algorithm: str = "batch+",
    gamma: float = 0.5,
    num_workers: NumWorkers = "auto",
    max_batch_size: int = 32,
    max_pending: int = 1024,
    max_workers: Optional[int] = None,
    metrics=None,
    tracer=None,
) -> IngestionService:
    """Start an :class:`IngestionService` in one call.

    The :class:`AdmissionPolicy` knobs are accepted flat.
    ``metrics``/``tracer`` opt the whole pipeline (service, planner,
    engine, snapshot store) into telemetry — see :mod:`repro.obs`.
    ``num_workers``/``max_workers`` are validated and inert: every
    micro-batch runs on the scheduler thread.

    >>> from repro.graph.generators import paper_example_graph
    >>> from repro.queries.query import HCSTQuery
    >>> with serve(paper_example_graph()) as service:
    ...     tickets = service.submit_many(
    ...         [HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)]
    ...     )
    ...     [len(t.result(timeout=30.0)) for t in tickets]
    [3, 3]
    """
    policy = AdmissionPolicy(
        max_batch_size=max_batch_size,
        max_pending=max_pending,
    )
    return IngestionService(
        graph,
        algorithm=algorithm,
        gamma=gamma,
        num_workers=num_workers,
        policy=policy,
        max_workers=max_workers,
        start=True,
        metrics=metrics,
        tracer=tracer,
    )
