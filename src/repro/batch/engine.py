"""High-level facade: :class:`BatchQueryEngine`.

The engine hides the choice of algorithm behind a single ``run`` call and
is the entry point the examples and the experiment harness use.  Algorithm
names follow the paper's Section V; its Exp-6 baselines, DkSP and OnePass,
are plain functions in :mod:`repro.baselines`, not engine algorithms:

=============  =====================================================
name           algorithm
=============  =====================================================
``pathenum``   PathEnum run per query with per-query indexes
``basic``      Algorithm 1 (BasicEnum)
``basic+``     Algorithm 1 with optimised search order (BasicEnum+)
``batch``      Algorithm 4 (BatchEnum)
``batch+``     Algorithm 4 with optimised search order (BatchEnum+)
=============  =====================================================

One process unless asked by number
----------------------------------
``num_workers`` accepts a positive integer or ``"auto"`` (the default),
and ``"auto"`` means 1: nothing forecasts whether a process fan-out would
pay, so a batch runs in this process — index, clustering and enumeration
in one pipeline — unless the caller asks for a number of processes.  An
explicit ``num_workers >= 2`` goes through two phases:

1. **Plan** — a :class:`~repro.batch.planner.QueryPlanner` runs the cheap
   global stages once (distance index, clustering) and records the shards
   and the kernel of each.  The resulting
   :class:`~repro.batch.planner.ExecutionPlan` is a plain inspectable
   object — :meth:`BatchQueryEngine.explain` returns it, for any worker
   setting, without executing anything.
2. **Execute** — the executor (:mod:`repro.batch.executor`) opens a
   process pool for the call, pickles the sealed graph once per worker and
   ships each shard the index rows of its own endpoints — workers never
   run BFS — then joins the pool.

Validation is eager: the constructor builds one
:class:`~repro.batch.config.ExecutionConfig`, which rejects any bad option
before a query is seen, and everything downstream receives that object
untouched.

>>> from repro.graph.generators import paper_example_graph
>>> from repro.queries.query import HCSTQuery
>>> engine = BatchQueryEngine(paper_example_graph(), algorithm="batch+")
>>> plan = engine.explain([HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)])
>>> plan.num_workers  # "auto" is one process
1
>>> len(plan.shards) >= 1
True

Streaming front-end
-------------------
``engine.stream(queries)`` (and the module-level :func:`stream_enumerate`)
yields ``(batch_position, paths)`` tuples as soon as the owning
shard/cluster/query completes instead of materialising a full
:class:`BatchResult` at the end; ``engine.run(queries)`` is a thin wrapper
that collects that same stream, so every algorithm in the table above
streams for free.  Two flush policies:

==================  ====================================================
``ordered=True``    positions are flushed in batch order (a reorder
                    buffer withholds position ``i`` until all positions
                    ``< i`` have been flushed) — use when the consumer
                    needs the batch's submission order.
``ordered=False``   fragments are flushed on completion with their batch
                    positions attached — prefer this when consumers can
                    handle out-of-order delivery (e.g. a result queue
                    keyed by position): on skewed batches it minimises
                    time-to-first-result because a fast cluster is never
                    held hostage by a slow, earlier-positioned one.
==================  ====================================================
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.batch.config import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ExecutionConfig,
    NumWorkers,
)
from repro.batch.executor import flush_fragments, stream_parallel
from repro.batch.planner import ExecutionPlan, QueryPlanner
from repro.batch.results import BatchResult, FragmentStream, ResultStream, drain
from repro.enumeration.kernels import resolve_kernel
from repro.enumeration.paths import Path
from repro.graph.digraph import DiGraph
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import resolve_tracer
from repro.queries.query import HCSTQuery

__all__ = [
    "ALGORITHMS",
    "BatchQueryEngine",
    "batch_enumerate",
    "stream_enumerate",
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
    algorithm / gamma / num_workers / max_workers / kernel:
        The execution options, forwarded verbatim into one
        :class:`~repro.batch.config.ExecutionConfig` (:attr:`config`) —
        see there for their meaning; a bad value raises ``ValueError``
        here.  ``algorithm`` is one of :data:`ALGORITHMS`; every kernel
        produces byte-identical results (the differential suite pins
        this).
    metrics / tracer:
        Telemetry opt-in (see :mod:`repro.obs`): a
        :class:`~repro.obs.metrics.MetricsRegistry` /
        :class:`~repro.obs.tracing.Tracer` to record into.  Defaults to
        the allocation-free no-op singletons, keeping the uninstrumented
        path byte-identical.  Passing a registry also instruments the
        graph's :class:`~repro.graph.snapshots.SnapshotStore` gauges.
    """

    def __init__(
        self,
        graph: DiGraph,
        algorithm: str = "batch+",
        gamma: float = 0.5,
        num_workers: NumWorkers = "auto",
        max_workers: Optional[int] = None,
        kernel: str = "auto",
        metrics=None,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.config = ExecutionConfig(
            algorithm=algorithm,
            gamma=gamma,
            num_workers=num_workers,
            max_workers=max_workers,
            kernel=kernel,
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
    def num_workers(self) -> NumWorkers:
        return self.config.num_workers

    # ------------------------------------------------------------------ #
    # Planning API
    # ------------------------------------------------------------------ #
    def explain(self, queries: Sequence[HCSTQuery]) -> ExecutionPlan:
        """Plan ``queries`` without executing them.

        Returns the :class:`~repro.batch.planner.ExecutionPlan` of the
        batch: worker count, shard assignments, index strategy and kernel
        per shard.  ``plan.describe()`` renders it human-readably.
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

        Results are flushed as soon as the shard/cluster (or, sequentially,
        the cluster/query) owning a batch position completes, instead of
        waiting for the whole batch.  With ``ordered=True`` positions are
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
        stream/run plans against the new head (multi-version serving, see
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
        self,
        queries: Sequence[HCSTQuery],
        plan: ExecutionPlan,
        ordered: bool = False,
    ) -> ResultStream:
        """Execute a prebuilt :class:`ExecutionPlan`, streaming results.

        The reusable planning/streaming core behind :meth:`stream`, exposed
        for schedulers that plan a batch themselves (the ingestion
        service plans each micro-batch against the snapshot it pinned, so
        re-planning inside ``stream`` would double the work): ``plan`` must
        have been built by :meth:`explain`/``QueryPlanner.plan`` for these
        exact ``queries``.  Yields ``(batch_position, paths)`` like
        :meth:`stream`; the generator's return value is the finished
        :class:`BatchResult` (sharing stats, stage timings), which
        ``run``-style callers retrieve from ``StopIteration.value``.
        """
        result = yield from self._stream_core(
            list(queries), ordered=ordered, plan=plan
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
        and :meth:`stream_planned`: pick a fragment generator and push it
        through the flushing core.  One process (``num_workers`` 1 or
        ``"auto"``) runs the algorithm's fragment generator on the sealed
        head, planning nothing; an explicit ``num_workers >= 2`` plans and
        fans out.  Every fragment is computed against one sealed snapshot —
        concurrent graph mutation is copy-on-write and cannot reach an
        in-flight stream."""
        spec = ALGORITHM_TABLE[self.algorithm]
        if not queries:
            return BatchResult(queries=[], algorithm=spec.display_name)
        if plan is None and self.config.processes == 1:
            fragments = spec.runner(
                self.graph.csr_snapshot(),
                self.config,
                resolve_kernel(self.config.kernel),
            )(queries)
        else:
            if plan is None:
                plan = self._plan(queries)
            if plan.num_workers <= 1:
                fragments = self._planned_fragments(queries, plan)
            else:
                fragments = stream_parallel(
                    queries,
                    self.config,
                    plan,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
        return (yield from flush_fragments(fragments, len(queries), ordered))

    def _planned_fragments(
        self, queries: List[HCSTQuery], plan: ExecutionPlan
    ) -> FragmentStream:
        """In-process execution of a plan (the ingestion service's route):
        its prebuilt artefacts (snapshot, workload index, clusters) are
        reused, and shard ``i`` runs on ``plan.shards[i].kernel`` — exactly
        what a worker would be told."""
        kernels = [shard.kernel for shard in plan.shards]
        # An in-process slice plan has one shard; a cluster plan overrides
        # the enumerator's own kernel per cluster below.
        run = ALGORITHM_TABLE[self.algorithm].runner(
            plan.snapshot, self.config, kernels[0]
        )
        if plan.clusters is not None:
            return run(
                queries,
                workload=plan.workload,
                clusters=plan.clusters,
                kernels=kernels,
            )
        if plan.workload is not None:
            return run(queries, workload=plan.workload)
        return run(queries)


def batch_enumerate(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    algorithm: str = "batch+",
    gamma: float = 0.5,
    num_workers: NumWorkers = "auto",
) -> BatchResult:
    """Functional one-shot wrapper around :class:`BatchQueryEngine`."""
    engine = BatchQueryEngine(
        graph, algorithm=algorithm, gamma=gamma, num_workers=num_workers
    )
    return engine.run(queries)


def stream_enumerate(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    algorithm: str = "batch+",
    gamma: float = 0.5,
    num_workers: NumWorkers = "auto",
    ordered: bool = True,
) -> Iterator[Tuple[int, List[Path]]]:
    """Functional wrapper around :meth:`BatchQueryEngine.stream`.

    Yields ``(batch_position, paths)`` tuples as completions land; see the
    engine docstring for the ``ordered`` flush policies.
    """
    engine = BatchQueryEngine(
        graph, algorithm=algorithm, gamma=gamma, num_workers=num_workers
    )
    return engine.stream(queries, ordered=ordered)
