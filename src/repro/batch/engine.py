"""High-level facade: :class:`BatchQueryEngine`.

The engine hides the choice of algorithm behind a single ``run`` call and
is the entry point the examples and the experiment harness use.  Algorithm
names follow the paper's Section V; its Exp-6 baselines, DkSP and OnePass,
are plain functions in :mod:`repro.baselines`, not engine algorithms:

=============  =====================================================
name           algorithm
=============  =====================================================
``pathenum``   PathEnum run per query with per-query indexes
``basic``      Algorithm 1 (BasicEnum): BatchEnum with clustering off
``basic+``     ``basic`` with optimised search order (BasicEnum+)
``batch``      Algorithm 4 (BatchEnum)
``batch+``     Algorithm 4 with optimised search order (BatchEnum+)
=============  =====================================================

The four indexed names are one enumerator,
:class:`~repro.batch.batch_enum.BatchEnum`, configured by
:data:`~repro.batch.config.ALGORITHM_TABLE`: ``cluster`` × "+".

Every batch is planned, then executed
-------------------------------------
``num_workers`` accepts a positive integer and defaults to 1: nothing
forecasts whether a process fan-out would pay, so a batch runs in this
process unless the caller asks for a number of processes.  Either way
every ``run``/``stream`` call goes through two phases:

1. **Plan** — a fresh :class:`~repro.batch.planner.QueryPlanner` runs the
   cheap global stages once (distance index, clustering) and records the
   shards.  The resulting :class:`~repro.batch.planner.ExecutionPlan` is a
   plain inspectable object — :meth:`BatchQueryEngine.explain` returns
   the plan ``run`` would execute, without executing anything.
2. **Execute** — :func:`~repro.batch.config.run_shard` runs the plan's
   queries on its index with its clusters: here for the whole batch, or,
   with ``num_workers >= 2``, once per shard in a process pool the
   executor (:mod:`repro.batch.executor`) opens for the call.  The pool's
   initializer hands every worker the sealed graph and the plan's index —
   workers never run BFS — and the pool is joined before the call
   returns.

Validation is eager: the constructor builds one
:class:`~repro.batch.config.ExecutionConfig`, which rejects any bad option
before a query is seen, and everything downstream receives that object
untouched.

>>> from repro.graph.generators import paper_example_graph
>>> from repro.queries.query import HCSTQuery
>>> engine = BatchQueryEngine(paper_example_graph(), algorithm="batch+")
>>> plan = engine.explain([HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)])
>>> plan.num_workers  # one process unless asked for more
1
>>> len(plan.shards) >= 1
True

Streaming front-end
-------------------
``engine.stream(queries)`` yields ``(batch_position, paths)`` tuples as
soon as the unit owning them completes — in this process the forward
root whose ⊕ join answers every query it serves (a query, for
``pathenum`` and a cluster of one), and with worker processes the
shard — instead of materialising a full :class:`BatchResult` at the
end; ``engine.run(queries)`` is a thin wrapper that collects that same
stream, so every algorithm in the table above streams for free.  Two
flush policies:

==================  ====================================================
``ordered=True``    positions are flushed in batch order (a reorder
                    buffer withholds position ``i`` until all positions
                    ``< i`` have been flushed) — use when the consumer
                    needs the batch's submission order.
``ordered=False``   fragments are flushed on completion with their batch
                    positions attached — prefer this when consumers can
                    handle out-of-order delivery (e.g. a result queue
                    keyed by position): on skewed batches it minimises
                    time-to-first-result because a fast root or shard is
                    never held hostage by a slow, earlier-positioned one.
==================  ====================================================
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.batch.config import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ExecutionConfig,
    run_shard,
)
from repro.batch.executor import flush_fragments, stream_parallel
from repro.batch.planner import ExecutionPlan, QueryPlanner
from repro.batch.results import BatchResult, ResultStream, drain
from repro.enumeration.paths import Path
from repro.graph.digraph import DiGraph
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import resolve_tracer
from repro.queries.query import HCSTQuery

__all__ = [
    "ALGORITHMS",
    "BatchQueryEngine",
]


class BatchQueryEngine:
    """One-call batch HC-s-t path query processing.

    Example
    -------
    >>> from repro.graph.generators import paper_example_graph
    >>> from repro.queries.query import HCSTQuery
    >>> engine = BatchQueryEngine(paper_example_graph(), algorithm="batch+")
    >>> result = engine.run([HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)])
    >>> len(result.paths_at(0))
    3

    Parameters
    ----------
    graph:
        The data graph.
    algorithm / gamma / num_workers / max_workers:
        The execution options, forwarded verbatim into one
        :class:`~repro.batch.config.ExecutionConfig` (:attr:`config`) —
        see there for their meaning; a bad value raises ``ValueError``
        here.  ``algorithm`` is one of :data:`ALGORITHMS`.
    metrics / tracer:
        Telemetry opt-in (see :mod:`repro.obs`): a
        :class:`~repro.obs.metrics.MetricsRegistry` /
        :class:`~repro.obs.tracing.Tracer` to record into.  Defaults to
        the allocation-free no-op singletons, keeping the uninstrumented
        path byte-identical.  Passing a registry also instruments the
        graph's :class:`~repro.graph.snapshots.SnapshotStore` gauge.
    """

    def __init__(
        self,
        graph: DiGraph,
        algorithm: str = "batch+",
        gamma: float = 0.5,
        num_workers: int = 1,
        max_workers: Optional[int] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.config = ExecutionConfig(
            algorithm=algorithm,
            gamma=gamma,
            num_workers=num_workers,
            max_workers=max_workers,
        )
        self.metrics = resolve_registry(metrics)
        self.tracer = resolve_tracer(tracer)
        if metrics is not None:
            # A sealed CSRGraph carries no snapshot store — only
            # instrument the live DiGraph.
            store = getattr(graph, "snapshots", None)
            if store is not None:
                store.instrument(metrics)

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def num_workers(self) -> int:
        return self.config.num_workers

    # ------------------------------------------------------------------ #
    # Planning API
    # ------------------------------------------------------------------ #
    def explain(self, queries: Sequence[HCSTQuery]) -> ExecutionPlan:
        """Plan ``queries`` without executing them.

        Returns the :class:`~repro.batch.planner.ExecutionPlan` of the
        batch — worker count, shard assignments and index strategy —
        built exactly as :meth:`run` builds the plan it executes.
        ``plan.describe()`` renders it human-readably.
        """
        return self._plan(list(queries))

    def _plan(self, queries: List[HCSTQuery]) -> ExecutionPlan:
        planner = QueryPlanner(
            self.graph, self.config, metrics=self.metrics, tracer=self.tracer
        )
        return planner.plan(queries)

    # ------------------------------------------------------------------ #
    # Execution API
    # ------------------------------------------------------------------ #
    def run(self, queries: Sequence[HCSTQuery]) -> BatchResult:
        """Process ``queries`` with the configured algorithm.

        A thin collect-the-stream wrapper: the same fragment pipeline that
        backs :meth:`stream` is drained to exhaustion and its
        :class:`BatchResult` returned.  An empty batch is answered
        immediately with an empty :class:`BatchResult` — callers draining
        dynamic queues need no pre-check.  When an explicit ``num_workers``
        shards the batch across worker processes (see
        :mod:`repro.batch.executor`) results are identical to the
        single-process run, keyed by batch position.
        """
        queries = list(queries)
        with self.tracer.span(
            "batch",
            tags={"queries": len(queries), "algorithm": self.algorithm},
        ):
            return drain(self._stream_core(queries, ordered=True))

    def stream(
        self,
        queries: Sequence[HCSTQuery],
        ordered: bool = True,
    ) -> Iterator[Tuple[int, List[Path]]]:
        """Yield ``(batch_position, paths)`` as completions land.

        Results are flushed as soon as the unit owning a batch position
        completes, instead of waiting for the whole batch: in this process
        the forward root whose ⊕ join answers it (the query itself for
        ``pathenum`` and a cluster of one), with worker processes its
        shard.  With ``ordered=True`` positions are
        released strictly in batch order; with ``ordered=False`` they are
        released on completion, each tuple carrying its position — prefer
        that on skewed batches where time-to-first-result matters more than
        delivery order.  An empty batch yields nothing.  An exception
        raised while processing any shard propagates out of the iterator;
        positions flushed before the failure have already been delivered.

        The stream reads the sealed copy-on-write snapshot of the version
        the graph had when the stream started: mutating the graph while
        the stream is in flight is **allowed** and never disturbs it — all
        positions are answered against that one snapshot, and the next
        stream/run plans against the new head.  The stream is the old
        version's holder: closing or draining it frees that snapshot (see
        :mod:`repro.graph.snapshots`).

        With an explicit ``num_workers >= 2``, abandoning the iterator early
        (``break`` or ``close()``) cancels shards that have not started but
        blocks until the shards already running in worker processes finish
        — the pool is joined before the generator's cleanup returns, so no
        orphaned workers outlive the stream.
        """
        # Yield copies: the fragments reference the per-position lists the
        # engine is still accumulating into its BatchResult, and handing a
        # caller a live internal list invites an aliasing bug that shipped
        # once (tests/test_caller_owned_results.py pins the fix).
        # (run()/stream_planned() keep the zero-copy internal path — the
        # service copies at the ticket boundary instead.)
        stream = self._stream_core(list(queries), ordered=ordered)
        while True:
            try:
                position, paths = next(stream)
            except StopIteration as stop:
                return stop.value
            yield position, list(paths)

    def stream_planned(
        self, plan: ExecutionPlan, ordered: bool = False
    ) -> ResultStream:
        """Execute a prebuilt :class:`ExecutionPlan`, streaming results.

        The reusable planning/streaming core behind :meth:`stream`, exposed
        for schedulers that plan a batch themselves (the ingestion
        service plans each micro-batch against the snapshot it sealed, so
        re-planning inside ``stream`` would double the work).  The batch
        is the one ``plan`` was built for, ``plan.queries``, so a plan can
        only answer its own queries.  Yields ``(batch_position, paths)``
        like :meth:`stream`; the generator's return value is the finished
        :class:`BatchResult` (sharing stats, stage timings), which
        ``run``-style callers retrieve from ``StopIteration.value``.
        """
        result = yield from self._stream_core(
            plan.queries, ordered=ordered, plan=plan
        )
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _stream_core(
        self,
        queries: List[HCSTQuery],
        ordered: bool,
        plan: Optional[ExecutionPlan] = None,
    ) -> ResultStream:
        """The shared fragment pipeline behind :meth:`run`, :meth:`stream`
        and :meth:`stream_planned`: plan the batch unless a plan is given,
        execute it — in this process or fanned out — and push the
        fragments through the flushing core.  Every fragment is computed
        against the plan's sealed snapshot — concurrent graph mutation is
        copy-on-write and cannot reach an in-flight stream."""
        if not queries:
            return BatchResult(
                queries=[], algorithm=ALGORITHM_TABLE[self.algorithm].display_name
            )
        if plan is None:
            plan = self._plan(queries)
        if plan.num_workers <= 1:
            fragments = run_shard(
                plan.snapshot, self.config, plan.queries, plan.workload, plan.clusters
            )
        else:
            fragments = stream_parallel(
                plan, self.config, metrics=self.metrics, tracer=self.tracer
            )
        return (yield from flush_fragments(fragments, len(queries), ordered))
