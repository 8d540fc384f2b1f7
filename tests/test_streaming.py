"""Differential tests for the streaming front-end.

The contract under test: ``engine.stream(queries)`` collected into a dict
equals ``engine.run(queries).paths_by_position`` *exactly* — same paths,
same order, per batch position — for every algorithm and flush policy
across worker processes (the one-process stream is checked on every draw
of ``test_differential.py``), and a shard that raises surfaces its
exception from the stream instead of hanging the drain loop.
"""

import time

import pytest

from repro.batch import batch_enum
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery

WORKER_COUNTS = (2, 4)
ORDERED = (True, False)

#: One shared workload for the fan-out matrix (kept modest: each of its
#: 20 combinations spawns a process pool).
_GRAPH = random_directed_gnm(24, 80, seed=7)
_QUERIES = generate_random_queries(_GRAPH, 6, min_k=2, max_k=4, seed=7)

#: Sequential ``run()`` reference per algorithm, computed once per session.
_REFERENCE = {}


def _reference(algorithm):
    if algorithm not in _REFERENCE:
        _REFERENCE[algorithm] = BatchQueryEngine(_GRAPH, algorithm=algorithm).run(
            _QUERIES
        )
    return _REFERENCE[algorithm]


@pytest.mark.parametrize("ordered", ORDERED)
@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stream_equals_run_across_algorithms_workers_and_policies(
    algorithm, num_workers, ordered
):
    engine = BatchQueryEngine(_GRAPH, algorithm=algorithm, num_workers=num_workers)
    streamed = {}
    flush_order = []
    for position, paths in engine.stream(_QUERIES, ordered=ordered):
        assert position not in streamed, "a position was flushed twice"
        streamed[position] = paths
        flush_order.append(position)
    # Exact equality with the blocking API — same paths in the same order.
    assert streamed == _reference(algorithm).paths_by_position
    if ordered:
        assert flush_order == list(range(len(_QUERIES)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("algorithm", ["basic+", "batch+"])
def test_stream_randomized_workloads_match_run(algorithm, seed):
    graph = random_directed_gnm(30, 110, seed=seed)
    queries = generate_random_queries(graph, 8, min_k=2, max_k=4, seed=seed)
    reference = BatchQueryEngine(graph, algorithm=algorithm).run(queries)
    engine = BatchQueryEngine(graph, algorithm=algorithm, num_workers=2)
    streamed = dict(engine.stream(queries, ordered=False))
    assert streamed == reference.paths_by_position


def test_run_is_identical_before_and_after_streaming_refactor_fields():
    """run() still carries the algorithm label, sharing stats and timers."""
    result = BatchQueryEngine(_GRAPH, algorithm="batch+").run(_QUERIES)
    assert result.algorithm == "BatchEnum+"
    assert result.sharing.num_clusters >= 1
    assert result.stage_seconds("Enumeration") >= 0.0
    assert len(result.queries) == len(_QUERIES)


@pytest.mark.parametrize(
    "algorithm, two_roots",
    [
        pytest.param("pathenum", False, id="pathenum"),
        pytest.param("basic+", False, id="basic+"),
        # A yield between the two forward roots of one cluster.
        pytest.param("batch+", True, id="batch+"),
    ],
)
def test_a_slow_consumer_is_not_charged_to_enumeration(
    algorithm, two_roots, paper_graph, paper_queries, two_root_cluster
):
    """``Enumeration`` times the searches, not the consumer between
    yields: positions each read for 50 ms add nothing to it."""
    nap = 0.05
    graph, queries = (
        two_root_cluster if two_roots else (paper_graph, paper_queries[:3])
    )
    stream = BatchQueryEngine(graph, algorithm).stream(queries)
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            result = stop.value
            break
        time.sleep(nap)
    assert result.stage_seconds("Enumeration") < nap


@pytest.mark.parametrize("algorithm", ["batch", "batch+"])
def test_an_answer_arrives_before_the_next_root_is_searched(
    algorithm, two_root_cluster, monkeypatch
):
    """A forward root's queries are flushed the moment its join completes
    them: the first root's positions arrive while ``join_path_sets`` has
    run once, before the cluster's second root is searched."""
    graph, queries = two_root_cluster
    engine = BatchQueryEngine(graph, algorithm)
    assert engine.run(queries).sharing.num_clusters == 1
    joins = []
    join = batch_enum.join_path_sets

    def counted(*args):
        joins.append(args)
        return join(*args)

    monkeypatch.setattr(batch_enum, "join_path_sets", counted)
    arrivals = {
        position: len(joins)
        for position, _ in engine.stream(queries, ordered=False)
    }
    first_source = queries[next(iter(arrivals))].s
    first_root = {
        position for position, query in enumerate(queries)
        if query.s == first_source
    }
    assert len(first_root) == 3 and len(joins) == 2
    assert {p for p, calls in arrivals.items() if calls == 1} == first_root


# --------------------------------------------------------------------- #
# Failure propagation
# --------------------------------------------------------------------- #
def _poisoned_batch(graph, count_valid=2):
    """A batch whose last query references a vertex outside the graph, so
    its enumeration raises inside whatever shard/worker owns it while the
    earlier queries are perfectly valid."""
    queries = generate_random_queries(graph, count_valid, min_k=2, max_k=3, seed=1)
    return queries + [HCSTQuery(0, graph.num_vertices + 7, 3)]


def test_sequential_stream_surfaces_error_and_keeps_flushed_positions():
    """Per-query streaming: positions completed before the poisoned query
    are delivered, then the exception surfaces (nothing hangs, nothing is
    silently swallowed)."""
    graph = random_directed_gnm(12, 40, seed=3)
    queries = _poisoned_batch(graph, count_valid=2)
    reference = BatchQueryEngine(graph, algorithm="pathenum").run(queries[:2])
    engine = BatchQueryEngine(graph, algorithm="pathenum")
    flushed = {}
    with pytest.raises(ValueError):
        for position, paths in engine.stream(queries, ordered=True):
            flushed[position] = paths
    # Both valid positions were flushed before the failure, with the exact
    # paths the blocking API would have produced for them.
    assert flushed == reference.paths_by_position


@pytest.mark.parametrize("ordered", ORDERED)
def test_parallel_stream_surfaces_worker_error_without_hanging(
    ordered, no_child_left, no_stale_snapshot
):
    """A query that raises inside a worker process propagates out of the
    drain loop (the pool is shut down, pending shards cancelled)."""
    graph = random_directed_gnm(12, 40, seed=4)
    queries = _poisoned_batch(graph, count_valid=3)
    engine = BatchQueryEngine(graph, algorithm="basic", num_workers=2)
    with pytest.raises(ValueError):
        for _ in engine.stream(queries, ordered=ordered):
            pass
    no_stale_snapshot(graph)


def test_parallel_run_surfaces_worker_error():
    graph = random_directed_gnm(12, 40, seed=5)
    queries = _poisoned_batch(graph, count_valid=3)
    engine = BatchQueryEngine(graph, algorithm="basic", num_workers=2)
    with pytest.raises(ValueError):
        engine.run(queries)


# --------------------------------------------------------------------- #
# Multi-version serving: mutation never kills an in-flight stream
# --------------------------------------------------------------------- #
def _first_missing_edge(graph):
    for u in graph.vertices():
        for v in graph.vertices():
            if u != v and not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


@pytest.mark.parametrize("num_workers", [1, 2])
def test_mutating_graph_mid_stream_keeps_pinned_results(num_workers):
    """The stream reads the sealed copy-on-write snapshot of the version
    it started under: an add_edge while it is in flight must neither raise
    nor leak into the remaining positions — every result matches the
    pre-mutation oracle."""
    graph = random_directed_gnm(16, 50, seed=9)
    queries = generate_random_queries(graph, 5, min_k=2, max_k=3, seed=9)
    oracle = BatchQueryEngine(
        graph.copy(), algorithm="pathenum"
    ).run(queries).paths_by_position
    engine = BatchQueryEngine(
        graph, algorithm="pathenum", num_workers=num_workers
    )
    stream = engine.stream(queries, ordered=True)
    streamed = dict([next(stream)])
    graph.add_edge(*_first_missing_edge(graph))
    streamed.update(stream)  # completes; mutation cannot reach the pin
    assert streamed == oracle
    # And the next run plans against the new head (post-mutation graph).
    fresh = BatchQueryEngine(graph.copy(), algorithm="pathenum").run(queries)
    assert engine.run(queries).paths_by_position == fresh.paths_by_position


@pytest.mark.parametrize("num_workers", [1, 2])
def test_a_closed_stream_frees_the_version_it_read(
    num_workers, no_child_left, no_stale_snapshot
):
    """The stream is the only holder of the snapshot it reads: while it is
    open, the version it started under outlives the head; once it is
    closed, nothing older than the head is left."""
    graph = random_directed_gnm(16, 50, seed=9)
    queries = generate_random_queries(graph, 5, min_k=2, max_k=3, seed=9)
    engine = BatchQueryEngine(graph, algorithm="pathenum", num_workers=num_workers)
    stream = engine.stream(queries, ordered=True)
    next(stream)
    graph.add_edge(*_first_missing_edge(graph))
    with pytest.raises(AssertionError, match="outlive their batches"):
        no_stale_snapshot(graph)  # the open stream still reads it
    stream.close()
    no_stale_snapshot(graph)


def test_mutation_after_stream_completes_is_allowed():
    graph = random_directed_gnm(16, 50, seed=10)
    queries = generate_random_queries(graph, 3, min_k=2, max_k=3, seed=10)
    engine = BatchQueryEngine(graph, algorithm="batch+")
    collected = dict(engine.stream(queries, ordered=True))
    assert len(collected) == len(queries)
    graph.add_edge(*_first_missing_edge(graph))  # must not raise anywhere
    # A fresh run plans against the new snapshot without complaint.
    assert len(engine.run(queries).queries) == len(queries)


def test_mutation_during_planning_pins_admitted_version(monkeypatch):
    """A mutation landing while the planner is mid-plan does not raise and
    does not leak into the plan: every artefact belongs to the snapshot
    sealed when planning started."""
    from repro.batch import planner as planner_module

    graph = random_directed_gnm(16, 50, seed=11)
    queries = generate_random_queries(graph, 4, min_k=2, max_k=3, seed=11)
    original = planner_module.cluster_queries
    admitted_version = graph.version

    def mutate_then_cluster(workload, gamma):
        graph.add_edge(*_first_missing_edge(graph))
        return original(workload, gamma)

    monkeypatch.setattr(planner_module, "cluster_queries", mutate_then_cluster)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    plan = engine.explain(queries)
    assert graph.version == admitted_version + 1  # the mutation landed
    assert plan.snapshot is not None
    assert plan.snapshot.version == admitted_version


def test_abandoned_stream_shuts_down_cleanly(no_child_left, no_stale_snapshot):
    """Closing a parallel stream mid-drain must not leak worker processes
    or raise: the generator's cleanup cancels pending shards and joins the
    pool it opened."""
    engine = BatchQueryEngine(_GRAPH, algorithm="basic", num_workers=2)
    stream = engine.stream(_QUERIES, ordered=False)
    first = next(stream)
    assert isinstance(first[0], int)
    stream.close()  # GeneratorExit → pool.shutdown(cancel_futures=True)
    no_stale_snapshot(_GRAPH)


def test_stream_yields_defensive_copies():
    """The public ``stream()`` must hand out copies, not the per-position
    lists the engine is still accumulating into its own BatchResult —
    mutating a yielded list must not corrupt later lookups (the PR 1
    leaky-internals bug class; test_caller_owned_results.py covers the
    rest of the public surface)."""
    engine = BatchQueryEngine(_GRAPH, algorithm="batch+")
    stream = engine.stream(_QUERIES)
    collected = {}
    while True:
        try:
            position, paths = next(stream)
        except StopIteration as stop:
            result = stop.value
            break
        collected[position] = list(paths)
        paths.append("sentinel")  # a hostile caller scribbling on output
        paths.reverse()
    assert result is not None
    for position, paths in collected.items():
        assert result.paths_at(position) == paths
    reference = _reference("batch+")
    for position in range(len(_QUERIES)):
        assert result.paths_at(position) == reference.paths_at(position)
