"""Live-graph differential suite (PR 7).

Two oracles anchor everything here:

* **Index repair**: ``CSRDistanceIndex.apply_delta`` after any coverable
  mutation window must be *byte-identical* (``to_bytes()``) to a fresh
  ``build_index`` on the mutated graph.
* **Multi-version serving**: a stream (or service micro-batch) admitted
  at version ``v`` must return exactly what a closed batch on a frozen
  copy of version ``v`` returns, no matter how many mutations land while
  it is in flight — and never a ``RuntimeError``.
"""

import random

import pytest

from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.planner import QueryPlanner
from repro.batch.service import serve
from repro.bfs.distance_index import build_index
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries


def _mutate_randomly(graph, rng, steps):
    """Apply ``steps`` random single-edge mutations (~50/50 add/remove)."""
    for _ in range(steps):
        if rng.random() < 0.5 and graph.num_edges > 0:
            graph.remove_edge(*rng.choice(sorted(graph.edges())))
        else:
            while True:
                u = rng.randrange(graph.num_vertices)
                v = rng.randrange(graph.num_vertices)
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    break


def _first_missing_edge(graph):
    for u in graph.vertices():
        for v in graph.vertices():
            if u != v and not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


# --------------------------------------------------------------------- #
# apply_delta differential suite: repair ≡ rebuild, byte for byte
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(8))
def test_apply_delta_equals_fresh_rebuild(seed):
    rng = random.Random(seed)
    graph = random_directed_gnm(24, 90, seed=seed)
    sources = sorted(rng.sample(range(24), 4))
    targets = sorted(rng.sample(range(24), 4))
    max_hops = 5
    index = build_index(graph, sources, targets, max_hops)
    baseline = index.to_bytes()
    start = graph.version
    _mutate_randomly(graph, rng, 12)
    added, removed = graph.snapshots.delta(start, graph.version)
    repaired = index.copy().apply_delta(graph, added, removed)
    fresh = build_index(graph, sources, targets, max_hops)
    assert repaired.to_bytes() == fresh.to_bytes()
    # copy() isolated the original: the stale index is untouched.
    assert index.to_bytes() == baseline


@pytest.mark.parametrize("op", ["add", "remove"])
def test_apply_delta_single_edge(op):
    graph = random_directed_gnm(20, 70, seed=17)
    index = build_index(graph, [0, 1], [18, 19], 4)
    if op == "add":
        edge = _first_missing_edge(graph)
        graph.add_edge(*edge)
        repaired = index.copy().apply_delta(graph, [edge], [])
    else:
        edge = sorted(graph.edges())[0]
        graph.remove_edge(*edge)
        repaired = index.copy().apply_delta(graph, [], [edge])
    fresh = build_index(graph, [0, 1], [18, 19], 4)
    assert repaired.to_bytes() == fresh.to_bytes()


def test_apply_delta_empty_delta_is_identity():
    graph = random_directed_gnm(15, 50, seed=3)
    index = build_index(graph, [0], [14], 4)
    before = index.to_bytes()
    assert index.apply_delta(graph, [], []) is index
    assert index.to_bytes() == before


def test_apply_delta_validation():
    graph = random_directed_gnm(15, 50, seed=4)
    index = build_index(graph, [0], [14], 4)
    bigger = random_directed_gnm(16, 50, seed=4)
    with pytest.raises(ValueError, match="rebuild the index"):
        index.copy().apply_delta(bigger, [(0, 1)], [])
    with pytest.raises(ValueError, match="net the delta"):
        index.copy().apply_delta(graph, [(0, 1)], [(0, 1)])


# --------------------------------------------------------------------- #
# Planner strategies: built → cached → delta across a mutation
# --------------------------------------------------------------------- #
def test_planner_index_strategies_built_cached_delta():
    # Large enough that the planner prefers repair: a single-edge repair
    # costs ~rows x SECONDS_PER_DELTA_EDGE while a rebuild costs
    # ~rows x V x SECONDS_PER_INDEX_ENTRY, crossing over near V ~ 50.
    graph = random_directed_gnm(120, 480, seed=21)
    queries = generate_random_queries(graph, 6, min_k=2, max_k=4, seed=21)
    planner = QueryPlanner(graph)
    first = planner.plan(queries)
    assert first.index_strategy == "built"
    second = planner.plan(queries)
    assert second.index_strategy == "cached"
    graph.add_edge(*_first_missing_edge(graph))
    third = planner.plan(queries)
    assert third.index_strategy == "delta"
    assert "index:   delta" in third.describe()
    # The delta-repaired index is byte-identical to a fresh build on the
    # mutated graph (same endpoints, same hop cap).
    sources = sorted({q.s for q in queries})
    targets = sorted({q.t for q in queries})
    max_k = max(q.k for q in queries)
    fresh = build_index(graph, sources, targets, max_k)
    assert third.workload.index.to_bytes() == fresh.to_bytes()
    # And the plan executes to exactly the closed-batch answer.
    engine = BatchQueryEngine(graph, algorithm="batch+")
    streamed = dict(engine.stream_planned(third, ordered=True))
    oracle = BatchQueryEngine(graph.copy(), algorithm="batch+").run(queries)
    assert streamed == oracle.paths_by_position


def test_planner_rebuilds_after_barrier_or_changed_endpoints():
    graph = random_directed_gnm(40, 160, seed=22)
    queries = generate_random_queries(graph, 5, min_k=2, max_k=4, seed=22)
    planner = QueryPlanner(graph)
    planner.plan(queries)
    graph.add_vertex()  # barrier: no coverable delta window
    assert planner.plan(queries).index_strategy == "built"
    other = generate_random_queries(graph, 5, min_k=2, max_k=4, seed=99)
    assert planner.plan(other).index_strategy == "built"


# --------------------------------------------------------------------- #
# Streams under mutation: every algorithm, in one process
# --------------------------------------------------------------------- #
# One worker count, spelled out so each ID keeps naming the process count.
@pytest.mark.parametrize("num_workers", [1])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stream_under_mutation_matches_pinned_oracle(algorithm, num_workers):
    graph = random_directed_gnm(20, 70, seed=13)
    queries = generate_random_queries(graph, 5, min_k=2, max_k=4, seed=13)
    oracle = (
        BatchQueryEngine(graph.copy(), algorithm=algorithm)
        .run(queries)
        .paths_by_position
    )
    engine = BatchQueryEngine(
        graph, algorithm=algorithm, num_workers=num_workers
    )
    stream = engine.stream(queries, ordered=True)
    streamed = dict([next(stream)])
    # >= 10 interleaved mutations while the stream is in flight.
    _mutate_randomly(graph, random.Random(13), 10)
    streamed.update(stream)
    assert streamed == oracle


# --------------------------------------------------------------------- #
# Ingestion service under mutation: the PR's acceptance scenario
# --------------------------------------------------------------------- #
def test_service_zero_errors_under_concurrent_mutation():
    """Mutations land *while* micro-batches are being planned and
    executed — the admitted-version pin means no ticket ever resolves
    with a RuntimeError."""
    graph = random_directed_gnm(20, 70, seed=33)
    rng = random.Random(33)
    queries = generate_random_queries(graph, 24, min_k=2, max_k=3, seed=33)
    with serve(
        graph,
        algorithm="batch+",
        num_workers=1,
        max_batch_size=4,
    ) as service:
        tickets = []
        for position, query in enumerate(queries):
            tickets.append(service.submit(query))
            if position % 2 == 0:
                _mutate_randomly(graph, rng, 1)  # 12 interleaved mutations
        results = [ticket.result(timeout=60.0) for ticket in tickets]
    assert all(isinstance(paths, list) for paths in results)
    assert service.stats().failed == 0
