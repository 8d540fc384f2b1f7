"""Sharded execution of one batch across worker processes, on request.

Every batch is planned; only an explicit ``num_workers >= 2`` hands
:func:`stream_parallel` the :class:`~repro.batch.planner.ExecutionPlan` a
:class:`~repro.batch.planner.QueryPlanner` built for it, while
``num_workers`` 1, the default, executes the plan in the caller's
process through the same :func:`~repro.batch.config.run_shard` call.

``BatchEnum`` processes a batch as *clusters* (Algorithm 2 groups queries
that can share computation; sharing never crosses a cluster boundary), so a
cluster is a clean shard: two clusters touch disjoint sharing graphs,
disjoint result caches and disjoint output positions.  The per-query
algorithms (``pathenum``, ``basic``, ``basic+``) have no cross-query state
at all, so their shards are contiguous batch slices.  There is one way to
hand a worker what it needs:

1. The parent's cheap global stages (workload validation, the similarity
   matrix, ``ClusterQuery``, BuildIndex) already ran during planning; their
   timings live in the plan's stage timer.
2. A process pool is opened for the call: the sealed
   :class:`~repro.graph.csr.CSRGraph`, the
   :class:`~repro.batch.config.ExecutionConfig` and the plan's
   :class:`~repro.bfs.distance_index.CSRDistanceIndex` (with its BFS
   levels) reach each worker **once**, through its initializer — inherited
   under ``fork``, pickled once per worker under ``spawn``/``forkserver``.
   No worker ever runs BFS.
3. Every :class:`~repro.batch.planner.ShardPlan` becomes one task carrying
   its positions and queries, which the worker runs through ``run_shard``
   at positions ``0..n-1`` in ascending batch order — the order the shard
   had in the batch, so Ψ, the path lists and the sharing statistics are
   the in-process run's.  Lemma 3.1 pruning only consults the rows of a
   query's own endpoints, so the whole index prunes a shard exactly as a
   shard-local one would.
4. The parent merges fragments **by batch position**, so results,
   ``SharingStats`` and stage timings are deterministic regardless of
   worker scheduling, and joins the pool before the call returns.

Stage-timing semantics in parallel runs: the parent's ``Enumeration``
stage is the **wall-clock** time of the whole fan-out (submit → last merge);
the workers' own ``Enumeration`` totals are discarded to avoid counting that
span twice.  The remaining worker stages (``IdentifySubquery``) are
accumulated across workers, so with N workers those entries reflect summed
CPU effort and can exceed wall-clock time.

Streaming
---------
:func:`stream_parallel` is the fragment-generator form of the fan-out: it
drains the shard futures with :func:`concurrent.futures.as_completed` and
yields each shard's ``{position: paths}`` fragment the moment it lands, so
the first finished cluster never waits on the slowest one.
The engine's ``stream``/``run`` front-end pushes both the parallel and the
in-process fragment generators through one :func:`flush_fragments` reorder
buffer, with two flush policies:

* ``ordered=True`` — positions are released in batch order; position ``i``
  is withheld until every position ``< i`` has been released.
* ``ordered=False`` — fragments are released the instant they complete,
  each tuple carrying its batch position, which minimises the
  time-to-first-result on skewed batches.

A shard that raises inside a worker surfaces its exception from the drain
loop (pending shards are cancelled and the pool is shut down); fragments
that were already flushed have already reached the consumer and are not
lost.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterator, List, Optional, Tuple

from repro.batch.config import ALGORITHM_TABLE, ExecutionConfig, run_shard
from repro.batch.planner import ExecutionPlan
from repro.batch.results import (
    BatchResult,
    FragmentStream,
    ResultStream,
    SharingStats,
    drain,
)
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.paths import Path
from repro.graph.csr import CSRGraph
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import RemoteSpanRecorder, SpanContext, resolve_tracer
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.timer import StageTimer
from repro.utils.validation import require

#: Worker-process state installed by :func:`_init_worker`.  The graph is a
#: sealed :class:`~repro.graph.csr.CSRGraph` snapshot — workers never see
#: the live, mutable ``DiGraph`` — and the index is the plan's (``None``
#: for ``pathenum``).
_WORKER_GRAPH: Optional[CSRGraph] = None
_WORKER_CONFIG: Optional[ExecutionConfig] = None
_WORKER_INDEX: Optional[CSRDistanceIndex] = None


def _init_worker(
    graph: CSRGraph, config: ExecutionConfig, index: Optional[CSRDistanceIndex]
) -> None:
    """Pool initializer: stash the sealed graph snapshot, the execution
    config and the plan's distance index once per worker process."""
    global _WORKER_GRAPH, _WORKER_CONFIG, _WORKER_INDEX
    _WORKER_GRAPH = graph
    _WORKER_CONFIG = config
    _WORKER_INDEX = index


#: A result fragment sent back by a worker: paths keyed by original batch
#: position, the shard's sharing stats, its stage-time totals, and its
#: worker-side span records, parented to the submitting batch's span
#: context; the parent re-homes them via ``Tracer.adopt`` on merge.
Fragment = Tuple[Dict[int, list], SharingStats, Dict[str, float], List[dict]]


def _run_shard_task(
    positions: List[int],
    queries: List[HCSTQuery],
    kind: str,
    span_context: Optional[SpanContext] = None,
) -> Fragment:
    """Run one shard inside a worker: a cluster (``batch``/``batch+``) or
    a contiguous slice of independent queries, at local positions
    ``0..n-1``, mapped back to the batch's ``positions`` on return."""
    graph, config = _WORKER_GRAPH, _WORKER_CONFIG
    assert graph is not None and config is not None, "worker not initialised"
    workload = None
    if _WORKER_INDEX is not None:
        workload = QueryWorkload(graph, queries, index=_WORKER_INDEX, csr=graph)
    clusters = [list(range(len(queries)))] if kind == "cluster" else None
    spans = RemoteSpanRecorder(span_context)
    tags = {"kind": kind, "positions": len(positions)}
    with spans.span("enumerate", tags=tags):
        result = drain(run_shard(graph, config, queries, workload, clusters))
    paths_by_position = {
        position: result.paths_by_position[local]
        for local, position in enumerate(positions)
    }
    return (
        paths_by_position,
        result.sharing,
        result.stage_timer.totals,
        spans.records,
    )


def _shard_tasks(
    plan: ExecutionPlan,
) -> Iterator[Tuple[List[int], List[HCSTQuery], str]]:
    """The arguments of one :func:`_run_shard_task` per plan shard, in
    shard order: its positions, its queries and its kind."""
    for shard in plan.shards:
        queries = [plan.queries[position] for position in shard.positions]
        yield shard.positions, queries, shard.kind


def stream_parallel(
    plan: ExecutionPlan,
    config: ExecutionConfig,
    metrics=None,
    tracer=None,
) -> FragmentStream:
    """Fragment generator over shard completions (``num_workers >= 2``).

    Execution follows ``plan``, the :class:`~repro.batch.planner.ExecutionPlan`
    a :class:`~repro.batch.planner.QueryPlanner` built under this
    ``config``, and answers the batch it was built for, ``plan.queries``.
    A process pool of ``plan.num_workers`` workers, initialised with the
    plan's sealed snapshot and index, is opened for the call; shards are
    submitted to it and drained with ``as_completed``: every shard's
    ``{position: paths}`` fragment is recorded into the
    :class:`BatchResult` and yielded the moment its future lands.  If a
    shard raises, the exception propagates out of the generator after the
    pending futures are cancelled — the drain loop never hangs on a
    poisoned shard.  The pool is joined before the generator returns (also
    when the consumer abandons it), so no worker outlives the stream.
    """
    require(
        plan.num_workers >= 2,
        "stream_parallel requires a plan resolved to num_workers >= 2",
    )
    stage_timer = plan.stage_timer or StageTimer()
    result = BatchResult(
        queries=list(plan.queries),
        stage_timer=stage_timer,
        algorithm=ALGORITHM_TABLE[config.algorithm].display_name,
    )
    sharing = SharingStats()

    registry = resolve_registry(metrics)
    span_tracer = resolve_tracer(tracer)
    m_shard_seconds = registry.histogram("repro_shard_seconds")

    # The worker-side span context: ``None`` (no tracing) costs nothing in
    # the payload and workers skip recording entirely.
    span_context = span_tracer.current_context()
    index = plan.workload.index if plan.workload is not None else None
    pool: Optional[ProcessPoolExecutor] = None
    futures: List = []
    try:
        pool = ProcessPoolExecutor(
            max_workers=plan.num_workers,
            initializer=_init_worker,
            initargs=(plan.snapshot, config, index),
        )
        with stage_timer.stage("Enumeration"):
            with span_tracer.span("ship", tags={"shards": len(plan.shards)}):
                for args in _shard_tasks(plan):
                    futures.append(pool.submit(_run_shard_task, *args, span_context))
            registry.counter("repro_executor_shards_total").inc(len(futures))
            for future in as_completed(futures):
                paths_by_position, fragment_sharing, stage_totals, spans = (
                    future.result()
                )
                with span_tracer.span(
                    "merge", tags={"positions": len(paths_by_position)}
                ):
                    for position in sorted(paths_by_position):
                        result.record(position, paths_by_position[position])
                    # SharingStats.merge and StageTimer.add are commutative,
                    # so completion order does not affect the merged totals.
                    sharing.merge(fragment_sharing)
                    for name, seconds in sorted(stage_totals.items()):
                        if name != "Enumeration":  # already inside the stage
                            stage_timer.add(name, seconds)
                m_shard_seconds.observe(stage_totals.get("Enumeration", 0.0))
                span_tracer.adopt(spans)
                yield {
                    position: result.paths_by_position[position]
                    for position in sorted(paths_by_position)
                }
    finally:
        # On an error (or an abandoned consumer) cancel whatever has not
        # started; running shards finish or fail on their own, and the
        # pool is joined here, so it leaves no orphaned worker.
        for future in futures:
            future.cancel()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    result.sharing = sharing
    return result


def flush_fragments(
    fragments: FragmentStream, total_positions: int, ordered: bool
) -> ResultStream:
    """The shared flushing core of the streaming front-end.

    Drains a fragment generator (in-process per-cluster/per-query or
    parallel per-shard — both speak the same ``{position: paths}``
    protocol) and yields ``(batch_position, paths)`` tuples under one of
    two policies:

    * ``ordered=True`` — a per-position reorder buffer holds completed
      positions until all of their predecessors have been released, so the
      consumer sees positions ``0, 1, 2, …`` exactly in batch order.
    * ``ordered=False`` — every fragment is released the instant it
      arrives (within a fragment, positions are released ascending so the
      output is deterministic given a completion order).

    This is itself a generator whose return value is the fragment
    generator's :class:`BatchResult`, which is how ``run()`` stays a thin
    collect-the-stream wrapper.
    """
    reorder_buffer: Dict[int, List[Path]] = {}
    cursor = 0
    flushed = 0
    try:
        while True:
            try:
                fragment = next(fragments)
            except StopIteration as stop:
                result = stop.value
                break
            if ordered:
                reorder_buffer.update(fragment)
                while cursor in reorder_buffer:
                    yield cursor, reorder_buffer.pop(cursor)
                    cursor += 1
                    flushed += 1
            else:
                for position in sorted(fragment):
                    yield position, fragment[position]
                    flushed += 1
    finally:
        # Deterministically close the upstream generator (it may be holding
        # a process pool open in its own finally) instead of relying on
        # refcount-driven finalisation when the consumer abandons us.
        fragments.close()
    require(
        not reorder_buffer and flushed == total_positions,
        "fragment stream ended without covering every batch position "
        f"(flushed {flushed} of {total_positions}, "
        f"{len(reorder_buffer)} stranded in the reorder buffer)",
    )
    return result
