"""Tests for the sharded parallel execution mode (explicit ``num_workers > 1``).

The contract under test: for every algorithm and any ``num_workers``, the
engine returns *identical* results — same paths, same order, per batch
position — as the sequential run, and both match the brute-force ground
truth.  Clusters (for ``batch``/``batch+``) and contiguous query slices
(for the per-query algorithms) are the shard boundaries, and the merge is
deterministic by batch position.  There is one way a worker gets its
inputs — the sealed graph through the initializer of the pool opened for
the call, the shard's own index rows with its task — and the pool is
joined before the call returns, also when a worker dies.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.batch import executor
from repro.batch.config import ALGORITHM_TABLE, ExecutionConfig
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.executor import _shard_tasks
from repro.batch.planner import QueryPlanner, _contiguous_slices
from repro.bfs.distance_index import CSRDistanceIndex
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery
from test_differential import assert_answers, oracle


def _workload(seed):
    graph = random_directed_gnm(30, 110, seed=seed)
    queries = generate_random_queries(graph, 8, min_k=2, max_k=4, seed=seed)
    return graph, queries


@pytest.mark.parametrize("algorithm", ("basic", "basic+", "batch", "batch+"))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parallel_matches_sequential_and_brute_force(algorithm, seed, no_child_left):
    """The differential suite's worker-count cases, on fixed draws: two
    processes answer what the oracle answers, with the sequential run's
    lists in the same order and the same sharing."""
    graph, queries = _workload(seed)
    sequential = BatchQueryEngine(graph, algorithm=algorithm, num_workers=1).run(
        queries
    )
    parallel = BatchQueryEngine(graph, algorithm=algorithm, num_workers=2).run(
        queries
    )
    assert_answers(oracle(graph, queries), parallel)
    assert parallel.paths_by_position == sequential.paths_by_position
    assert repr(parallel.sharing) == repr(sequential.sharing)


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
# One transport: every algorithm == sequential, each shard its own rows
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("lifetime", ["one-shot"])  # the only pool lifetime
def test_every_pool_lifetime_matches_sequential(algorithm, lifetime, no_child_left):
    graph, queries = _workload(8)
    sequential = BatchQueryEngine(graph, algorithm=algorithm, num_workers=1)
    engine = BatchQueryEngine(graph, algorithm=algorithm, num_workers=2)
    assert engine.run(queries).paths_by_position == sequential.run(
        queries
    ).paths_by_position


@pytest.mark.parametrize("algorithm", ["batch+", "basic", "pathenum"])
def test_each_task_ships_exactly_its_shards_rows(algorithm):
    graph = random_directed_gnm(40, 160, seed=12)
    # Pairwise distinct endpoints, so no two shards share a row.
    queries = [HCSTQuery(s, 20 + s, 3) for s in range(8)]
    # gamma=1 keeps dissimilar queries in separate clusters (several shards).
    config = ExecutionConfig(algorithm=algorithm, gamma=1.0, num_workers=2)
    plan = QueryPlanner(graph, config).plan(queries)
    blobs = [blob for _fn, _args, blob in _shard_tasks(plan)]
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
    assert shipped_bytes == index.nbytes


# --------------------------------------------------------------------- #
# Pool lifecycle: the pool a call opens is joined on every way out
# --------------------------------------------------------------------- #
def _crash_worker(*args) -> None:  # pragma: no cover - runs in a worker process
    os._exit(17)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched task reaches the workers by forking",
)
def test_worker_crash_breaks_the_pool_and_shutdown_still_reaps(
    monkeypatch, no_child_left
):
    """A worker that dies mid-shard breaks the call's pool: ``run`` raises
    ``BrokenProcessPool`` and the surviving workers are joined."""
    graph, queries = _workload(11)
    monkeypatch.setattr(executor, "_run_cluster_task", _crash_worker)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    with pytest.raises(BrokenProcessPool):
        engine.run(queries)
    no_child_left()


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
