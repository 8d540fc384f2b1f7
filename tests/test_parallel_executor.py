"""Tests for the sharded parallel execution mode (explicit ``num_workers > 1``).

The contract under test: for every algorithm and any ``num_workers``, the
engine returns *identical* results — same paths, same order, per batch
position — as the sequential run, and both match the brute-force ground
truth.  Clusters (for ``batch``/``batch+``) and contiguous query slices
(for the per-query algorithms) are the shard boundaries, and the merge is
deterministic by batch position.  There is one way a worker gets its
inputs — the sealed graph and the plan's index (BFS levels included)
through the initializer of the pool opened for the call, the shard's
positions and queries with its task — and the pool is joined before the
call returns, also when a worker dies.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.batch import executor
from repro.batch.config import ExecutionConfig
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.executor import _shard_tasks
from repro.batch.planner import QueryPlanner, _contiguous_slices
from repro.bfs import distance_index
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
# One transport: every algorithm == sequential, the index rides the pool
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
def test_each_task_carries_exactly_its_shards_positions(algorithm):
    """A task is its shard's positions, their queries and the shard kind —
    no index bytes: the index reaches the workers once, through the pool
    initializer."""
    graph = random_directed_gnm(40, 160, seed=12)
    queries = [HCSTQuery(s, 20 + s, 3) for s in range(8)]
    # gamma=1 keeps dissimilar queries in separate clusters (several shards).
    config = ExecutionConfig(algorithm=algorithm, gamma=1.0, num_workers=2)
    plan = QueryPlanner(graph, config).plan(queries)
    tasks = list(_shard_tasks(plan))
    assert len(tasks) == plan.num_shards >= 2
    for (positions, shard_queries, kind), shard in zip(tasks, plan.shards):
        assert positions == shard.positions == sorted(positions)
        assert shard_queries == [queries[position] for position in positions]
        assert kind == shard.kind
    assert sorted(p for positions, _, _ in tasks for p in positions) == list(
        range(len(queries))
    )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched level scan reaches the workers by forking",
)
def test_workers_read_the_parents_levels(monkeypatch, no_child_left):
    """The "+" budget split reads BFS level sizes; a worker answers it from
    the levels the parent's build recorded and never re-derives one with
    the |V|-long row scan."""

    def no_scan(row):
        raise AssertionError("a worker re-derived the levels of a row")

    monkeypatch.setattr(distance_index, "_scan_levels", no_scan)
    for seed in (0, 1, 2):
        graph, queries = _workload(seed)
        parallel = BatchQueryEngine(graph, algorithm="batch+", num_workers=2).run(
            queries
        )
        assert_answers(oracle(graph, queries), parallel)


SPAWNED_FAN_OUT = textwrap.dedent(
    """
    import multiprocessing
    from repro.batch.engine import BatchQueryEngine
    from repro.graph.generators import random_directed_gnm
    from repro.queries.generation import generate_random_queries

    multiprocessing.set_start_method("spawn")
    graph = random_directed_gnm(30, 110, seed=8)
    queries = generate_random_queries(graph, 8, min_k=2, max_k=4, seed=8)
    for algorithm in ("batch+", "basic", "pathenum"):
        one, two = (
            BatchQueryEngine(graph, algorithm, num_workers=n).run(queries)
            for n in (1, 2)
        )
        assert two.paths_by_position == one.paths_by_position, algorithm
        assert repr(two.sharing) == repr(one.sharing), algorithm
        assert not multiprocessing.active_children(), algorithm
    print("spawned fan-out ok")
    """
)


def test_the_fan_out_under_spawn_matches_one_process():
    """Under ``spawn`` everything in the pool initializer — snapshot,
    config, the plan's index with its levels — is pickled once per worker;
    the answers and the sharing statistics are the one-process run's."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    completed = subprocess.run(
        [sys.executable, "-c", SPAWNED_FAN_OUT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "spawned fan-out ok" in completed.stdout


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
    monkeypatch.setattr(executor, "_run_shard_task", _crash_worker)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    with pytest.raises(BrokenProcessPool):
        engine.run(queries)
    no_child_left()


def _submission_breaks_on_the_second_shard(monkeypatch):
    """Fail ``stream_parallel`` between acquiring its pool and draining
    it: the first shard is already submitted (its worker spawned) when
    the submit loop's second shard raises."""
    real_tasks = executor._shard_tasks

    def shard_tasks(plan):
        for count, task in enumerate(real_tasks(plan), start=1):
            if count == 2:
                raise RuntimeError("submission broke")
            yield task

    monkeypatch.setattr(executor, "_shard_tasks", shard_tasks)


def test_failure_while_shipping_shards_joins_the_pool_the_call_opened(
    monkeypatch, no_child_left
):
    graph, queries = _workload(6)
    engine = BatchQueryEngine(graph, algorithm="basic+", num_workers=2)
    _submission_breaks_on_the_second_shard(monkeypatch)
    with pytest.raises(RuntimeError, match="submission broke") as caught:
        list(engine.stream(queries))
    # Looked at while ``caught`` still references the frame that owned the
    # pool: the workers were joined, not left to the garbage collector.
    no_child_left()
