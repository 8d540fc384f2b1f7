"""Sharded execution of one batch across worker processes, on request.

Nothing reaches this module unless the caller asks for a number of
processes: ``num_workers`` 1, the default, runs in the caller's process,
and an explicit ``num_workers >= 2`` hands :func:`stream_parallel` the
:class:`~repro.batch.planner.ExecutionPlan` a
:class:`~repro.batch.planner.QueryPlanner` built for the batch.

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
   :class:`~repro.graph.csr.CSRGraph` and the
   :class:`~repro.batch.config.ExecutionConfig` are pickled **once** per
   worker process through its initializer; a worker builds its enumerator
   from the same algorithm table the engine uses.
3. Every :class:`~repro.batch.planner.ShardPlan` becomes one task carrying
   its positions/queries and — for the indexed algorithms — the
   ``to_bytes()`` blob of the parent-built
   :class:`~repro.bfs.distance_index.CSRDistanceIndex` *restricted to the
   shard's own endpoints*.  Lemma 3.1 pruning only consults the rows of a
   query's own endpoints, so the shard-local index prunes exactly like the
   whole one and no worker ever runs BFS.
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

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.batch.config import (
    ALGORITHM_TABLE,
    ExecutionConfig,
    fragment_generator,
    make_enumerator,
)
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
#: the live, mutable ``DiGraph``.
_WORKER_GRAPH: Optional[CSRGraph] = None
_WORKER_CONFIG: Optional[ExecutionConfig] = None


def _init_worker(graph: CSRGraph, config: ExecutionConfig) -> None:
    """Pool initializer: stash the sealed graph snapshot and the execution
    config once per worker process."""
    global _WORKER_GRAPH, _WORKER_CONFIG
    _WORKER_GRAPH = graph
    _WORKER_CONFIG = config


#: A result fragment sent back by a worker: paths keyed by original batch
#: position, the shard's sharing stats, its stage-time totals, and its
#: worker-side span records, parented to the submitting batch's span
#: context; the parent re-homes them via ``Tracer.adopt`` on merge.
Fragment = Tuple[Dict[int, list], SharingStats, Dict[str, float], List[dict]]


def _run_cluster_task(
    queries_by_position: Dict[int, HCSTQuery],
    index_blob: bytes,
    span_context: Optional[SpanContext] = None,
) -> Fragment:
    """Process one cluster inside a worker (``batch``/``batch+``)."""
    graph, config = _WORKER_GRAPH, _WORKER_CONFIG
    assert graph is not None and config is not None, "worker not initialised"
    enumerator = make_enumerator(graph, config)
    stage_timer = StageTimer()
    index = CSRDistanceIndex.from_bytes(index_blob)
    sharing = SharingStats(num_clusters=1)
    scratch = BatchResult(queries=[])
    spans = RemoteSpanRecorder(span_context)
    with spans.span(
        "enumerate",
        tags={"kind": "cluster", "positions": len(queries_by_position)},
    ):
        # The shard ships whole: its per-root yields are drained here.
        for _ in enumerator._process_cluster(
            queries_by_position, index, stage_timer, scratch, sharing
        ):
            pass
    return scratch.paths_by_position, sharing, stage_timer.totals, spans.records


def _run_slice_task(
    positions: Sequence[int],
    queries: Sequence[HCSTQuery],
    index_blob: Optional[bytes],
    span_context: Optional[SpanContext] = None,
) -> Fragment:
    """Process one contiguous query slice inside a worker (per-query
    algorithms: the sequential fragment generator is reused verbatim)."""
    graph, config = _WORKER_GRAPH, _WORKER_CONFIG
    assert graph is not None and config is not None, "worker not initialised"
    run = fragment_generator(graph, config)
    spans = RemoteSpanRecorder(span_context)
    with spans.span(
        "enumerate", tags={"kind": "slice", "positions": len(positions)}
    ):
        if index_blob is not None:
            # ``basic``/``basic+``: enumerate on the slice's rows of the
            # parent's index instead of re-running BFS.
            index = CSRDistanceIndex.from_bytes(index_blob)
            workload = QueryWorkload(graph, list(queries), index=index)
            sub_result = drain(run(queries, workload=workload))
        else:
            sub_result = drain(run(queries))
    paths_by_position = {
        position: sub_result.paths_by_position.get(local, [])
        for local, position in enumerate(positions)
    }
    return (
        paths_by_position,
        sub_result.sharing,
        sub_result.stage_timer.totals,
        spans.records,
    )


def _shard_tasks(
    plan: ExecutionPlan,
) -> Iterator[Tuple[Callable[..., Fragment], tuple, Optional[bytes]]]:
    """One ``(worker function, leading arguments, index blob)`` per plan
    shard, in shard order.

    The blob is the plan's distance index restricted to the shard's own
    sources/targets, or ``None`` for the algorithms that read no shared
    index.  Lazy, so a shard is submitted (and can start) while the next
    one's rows are still being serialized.
    """
    index = plan.workload.index if plan.workload is not None else None
    for shard in plan.shards:
        shard_queries = [plan.queries[position] for position in shard.positions]
        blob = None
        if index is not None:
            blob = index.restrict(
                {query.s for query in shard_queries},
                {query.t for query in shard_queries},
            ).to_bytes()
        if shard.kind == "cluster":
            by_position = dict(zip(shard.positions, shard_queries))
            yield _run_cluster_task, (by_position,), blob
        else:
            yield _run_slice_task, (shard.positions, shard_queries), blob


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
    plan's sealed snapshot, is opened for the call; shards are submitted
    to it and drained with ``as_completed``: every shard's
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
    pool: Optional[ProcessPoolExecutor] = None
    futures: List = []
    try:
        pool = ProcessPoolExecutor(
            max_workers=plan.num_workers,
            initializer=_init_worker,
            initargs=(plan.snapshot, config),
        )
        with stage_timer.stage("Enumeration"):
            ship_start = time.perf_counter()
            ship_tags = {"shards": len(plan.shards), "payload_bytes": 0}
            with span_tracer.span("ship", tags=ship_tags):
                for worker_fn, args, blob in _shard_tasks(plan):
                    futures.append(pool.submit(worker_fn, *args, blob, span_context))
                    ship_tags["payload_bytes"] += len(blob or b"")
            registry.counter("repro_executor_ship_bytes_total").inc(
                ship_tags["payload_bytes"]
            )
            registry.counter("repro_executor_shards_total").inc(len(futures))
            registry.histogram("repro_executor_ship_submit_seconds").observe(
                time.perf_counter() - ship_start
            )
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
