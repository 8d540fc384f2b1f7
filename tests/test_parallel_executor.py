"""Tests for the sharded parallel execution mode (``num_workers > 1``).

The contract under test: for every algorithm and any ``num_workers``, the
engine returns *identical* results — same paths, same order, per batch
position — as the sequential run, and both match the brute-force ground
truth.  Clusters (for ``batch``/``batch+``) and contiguous query slices
(for the per-query algorithms) are the shard boundaries, and the merge is
deterministic by batch position.  There is one way a worker gets its
inputs — the sealed graph through the pool initializer, the shard's own
index rows with its task — whether the pool lives for one call or many.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.batch.config import ALGORITHM_TABLE, ExecutionConfig
from repro.batch.engine import ALGORITHMS, BatchQueryEngine, batch_enumerate
from repro.batch.executor import _shard_tasks
from repro.batch.planner import QueryPlanner, _contiguous_slices
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.paths import sort_paths
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery

PARALLEL_ALGORITHMS = ("basic", "basic+", "batch", "batch+")


def _workload(seed):
    graph = random_directed_gnm(30, 110, seed=seed)
    queries = generate_random_queries(graph, 8, min_k=2, max_k=4, seed=seed)
    return graph, queries


@pytest.mark.parametrize("algorithm", PARALLEL_ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parallel_matches_sequential_and_brute_force(algorithm, seed):
    graph, queries = _workload(seed)
    sequential = BatchQueryEngine(graph, algorithm=algorithm, num_workers=1).run(
        queries
    )
    parallel = BatchQueryEngine(graph, algorithm=algorithm, num_workers=2).run(
        queries
    )
    for position, query in enumerate(queries):
        # Exact equality — same paths in the same order, not just same sets.
        assert parallel.paths_at(position) == sequential.paths_at(position)
        expected = sort_paths(
            enumerate_paths_brute_force(graph, query.s, query.t, query.k)
        )
        assert parallel.sorted_paths_at(position) == expected


def test_parallel_four_workers_identical_on_batch_plus():
    graph, queries = _workload(5)
    sequential = BatchQueryEngine(graph, algorithm="batch+", num_workers=1).run(
        queries
    )
    parallel = BatchQueryEngine(graph, algorithm="batch+", num_workers=4).run(
        queries
    )
    for position in range(len(queries)):
        assert parallel.paths_at(position) == sequential.paths_at(position)
    assert parallel.sharing.num_clusters == sequential.sharing.num_clusters


def test_parallel_sharing_stats_merge_deterministically():
    graph, queries = _workload(3)
    runs = [
        BatchQueryEngine(graph, algorithm="batch+", num_workers=2).run(queries)
        for _ in range(2)
    ]
    assert runs[0].sharing == runs[1].sharing
    assert runs[0].sharing.num_clusters >= 1


def test_parallel_empty_batch_returns_empty_result():
    graph, _ = _workload(0)
    result = BatchQueryEngine(graph, algorithm="batch+", num_workers=2).run([])
    assert result.counts() == []


def test_batch_enumerate_accepts_num_workers():
    graph, queries = _workload(4)
    sequential = batch_enumerate(graph, queries, algorithm="batch+")
    parallel = batch_enumerate(graph, queries, algorithm="batch+", num_workers=2)
    for position in range(len(queries)):
        assert parallel.paths_at(position) == sequential.paths_at(position)


def test_parallel_more_workers_than_queries():
    graph, queries = _workload(6)
    queries = queries[:2]
    sequential = BatchQueryEngine(graph, algorithm="basic", num_workers=1).run(
        queries
    )
    parallel = BatchQueryEngine(graph, algorithm="basic", num_workers=8).run(
        queries
    )
    for position in range(len(queries)):
        assert parallel.paths_at(position) == sequential.paths_at(position)


def test_contiguous_slices_cover_all_positions_without_overlap():
    positions = list(range(11))
    slices = _contiguous_slices(positions, 4)
    assert [p for chunk in slices for p in chunk] == positions
    assert len(slices) == 4
    assert _contiguous_slices([], 4) == []
    assert _contiguous_slices([0, 1], 8) == [[0], [1]]


# --------------------------------------------------------------------- #
# One transport: every algorithm x every pool lifetime == sequential
# --------------------------------------------------------------------- #
def _sequential(graph, algorithm, queries):
    return BatchQueryEngine(graph, algorithm=algorithm, num_workers=1).run(
        queries
    ).paths_by_position


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("lifetime", ["one-shot", "reused", "recycled"])
def test_every_pool_lifetime_matches_sequential(algorithm, lifetime, no_child_left):
    graph, queries = _workload(8)
    other = generate_random_queries(graph, 6, min_k=2, max_k=4, seed=81)
    engine = BatchQueryEngine(graph, algorithm=algorithm, num_workers=2)
    if lifetime == "one-shot":
        assert engine.run(queries).paths_by_position == _sequential(
            graph, algorithm, queries
        )
        return
    with engine.create_pool(max_workers=2) as pool:
        # One persistent pool, two batches with different endpoints: each
        # task carries its own rows, nothing of the first batch lingers.
        for batch in (queries, other):
            assert dict(engine.stream(batch, pool=pool)) == _sequential(
                graph, algorithm, batch
            )
        if lifetime == "recycled":
            # Version bump while the old pool is still open: its workers
            # hold the old snapshot, so the batch runs on a fresh pool.
            graph.add_edge(0, graph.num_vertices - 1)
            with engine.create_pool(max_workers=2) as fresh:
                assert dict(engine.stream(queries, pool=fresh)) == _sequential(
                    graph, algorithm, queries
                )


@pytest.mark.parametrize("algorithm", ["batch+", "basic", "pathenum"])
def test_each_task_ships_exactly_its_shards_rows(algorithm):
    graph = random_directed_gnm(40, 160, seed=12)
    # Pairwise distinct endpoints, so no two shards share a row.
    queries = [HCSTQuery(s, 20 + s, 3) for s in range(8)]
    # gamma=1 keeps dissimilar queries in separate clusters (several shards).
    config = ExecutionConfig(algorithm=algorithm, gamma=1.0, num_workers=2)
    plan = QueryPlanner(graph, config).plan(queries)
    blobs = [blob for _fn, _args, blob in _shard_tasks(plan, queries)]
    assert len(blobs) == plan.num_shards >= 2
    if not ALGORITHM_TABLE[algorithm].indexed:
        assert blobs == [None] * plan.num_shards
        return
    index = plan.workload.index
    shipped_bytes = 0
    for blob, shard in zip(blobs, plan.shards):
        shipped = CSRDistanceIndex.from_bytes(blob)
        shard_queries = [queries[position] for position in shard.positions]
        assert shipped.sources == sorted({query.s for query in shard_queries})
        assert shipped.targets == sorted({query.t for query in shard_queries})
        for query in shard_queries:
            assert shipped.dense_from(query.s) == index.dense_from(query.s)
            assert shipped.dense_to(query.t) == index.dense_to(query.t)
        shipped_bytes += shipped.nbytes
    assert shipped_bytes == index.nbytes == plan.index_payload_bytes


# --------------------------------------------------------------------- #
# Pool lifecycle
# --------------------------------------------------------------------- #
def test_pool_shutdown_is_idempotent_and_refuses_work(no_child_left):
    graph, queries = _workload(6)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    pool = engine.create_pool(max_workers=2)
    try:
        for _ in range(3):
            assert dict(engine.stream(queries, pool=pool)) == _sequential(
                graph, "batch+", queries
            )
    finally:
        pool.shutdown()
        pool.shutdown()  # idempotent
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(len, ())


def _crash_worker() -> None:  # pragma: no cover - runs in a worker process
    os._exit(17)


def test_worker_crash_breaks_the_pool_and_shutdown_still_reaps(no_child_left):
    graph, _ = _workload(11)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    pool = engine.create_pool(max_workers=2)
    try:
        with pytest.raises(BrokenProcessPool):
            pool.submit(_crash_worker).result(timeout=60)
    finally:
        pool.shutdown()


def _restrict_breaks_on_the_second_shard(monkeypatch):
    """Fail ``stream_parallel`` between acquiring its pool and draining
    it: the first shard is already submitted (its worker spawned) when
    building the second shard's task raises."""
    real_restrict = CSRDistanceIndex.restrict
    calls = []

    def restrict(self, sources, targets):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("restrict broke")
        return real_restrict(self, sources, targets)

    monkeypatch.setattr(CSRDistanceIndex, "restrict", restrict)


def test_failure_while_shipping_shards_joins_the_pool_the_call_opened(
    monkeypatch, no_child_left
):
    graph, queries = _workload(6)
    engine = BatchQueryEngine(graph, algorithm="basic+", num_workers=2)
    _restrict_breaks_on_the_second_shard(monkeypatch)
    with pytest.raises(RuntimeError, match="restrict broke") as caught:
        list(engine.stream(queries))
    # Looked at while ``caught`` still references the frame that owned the
    # pool: the workers were joined, not left to the garbage collector.
    no_child_left()


def test_failure_while_shipping_shards_leaves_the_callers_pool_open(
    monkeypatch, no_child_left
):
    graph, queries = _workload(6)
    engine = BatchQueryEngine(graph, algorithm="basic+", num_workers=2)
    with engine.create_pool(max_workers=2) as pool:
        with monkeypatch.context() as patch:
            _restrict_breaks_on_the_second_shard(patch)
            with pytest.raises(RuntimeError, match="restrict broke"):
                list(engine.stream(queries, pool=pool))
        assert dict(engine.stream(queries, pool=pool)) == _sequential(
            graph, "basic+", queries
        )
