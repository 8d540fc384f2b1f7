"""Property-based tests (hypothesis) for the core invariants.

The single most important property of the whole library: every algorithm —
single-query or batch, sharing or not — returns exactly the set of simple
paths the brute-force enumerator returns, on arbitrary graphs and queries.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.batch.batch_enum import BatchEnum
from repro.batch.clustering import cluster_queries
from repro.batch.engine import BatchQueryEngine
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.join import PathJoinPolicy, join_path_sets
from repro.enumeration.path_enum import enumerate_paths
from repro.enumeration.paths import is_simple, sort_paths, validate_path
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def graphs(draw, max_vertices: int = 14):
    """Random small directed graphs (dense enough to contain paths)."""
    num_vertices = draw(st.integers(min_value=4, max_value=max_vertices))
    possible_edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), min_size=num_vertices, max_size=4 * num_vertices)
    )
    return DiGraph.from_edges(set(edges), num_vertices=num_vertices)


@st.composite
def graph_and_queries(draw, max_queries: int = 5):
    graph = draw(graphs())
    count = draw(st.integers(min_value=1, max_value=max_queries))
    queries = []
    for _ in range(count):
        s = draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
        t = draw(
            st.integers(min_value=0, max_value=graph.num_vertices - 1).filter(
                lambda v: v != s
            )
        )
        k = draw(st.integers(min_value=1, max_value=5))
        queries.append(HCSTQuery(s, t, k))
    return graph, queries


@given(graph_and_queries(max_queries=1))
@SETTINGS
def test_pathenum_equals_brute_force(data):
    graph, queries = data
    query = queries[0]
    expected = sort_paths(enumerate_paths_brute_force(graph, query.s, query.t, query.k))
    actual = sort_paths(enumerate_paths(graph, query.s, query.t, query.k))
    assert actual == expected


@given(
    graph_and_queries(),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.booleans(),
    st.booleans(),
)
@SETTINGS
def test_batch_enum_equals_brute_force(data, gamma, cluster, plus):
    """``batch``/``batch+`` (``cluster``) and ``basic``/``basic+``."""
    graph, queries = data
    result = BatchEnum(
        graph, gamma=gamma, optimize_search_order=plus, cluster=cluster
    ).run(queries)
    for position, query in enumerate(queries):
        expected = sort_paths(
            enumerate_paths_brute_force(graph, query.s, query.t, query.k)
        )
        assert result.sorted_paths_at(position) == expected


@given(graph_and_queries(max_queries=3))
@SETTINGS
def test_results_are_simple_hop_bounded_paths(data):
    graph, queries = data
    result = BatchEnum(graph, gamma=0.5).run(queries)
    for position, query in enumerate(queries):
        for path in result.paths_at(position):
            validate_path(graph, path, s=query.s, t=query.t, k=query.k)
            assert is_simple(path)


@given(graph_and_queries(max_queries=4))
@SETTINGS
def test_clustering_is_a_partition(data):
    graph, queries = data
    workload = QueryWorkload(graph, queries)
    clusters = cluster_queries(workload, gamma=0.5)
    flattened = sorted(position for cluster in clusters for position in cluster)
    assert flattened == list(range(len(queries)))


@given(graphs(), st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13),
       st.integers(min_value=1, max_value=4))
@SETTINGS
def test_join_never_emits_duplicates_or_invalid_paths(graph, s, t, k):
    if s >= graph.num_vertices or t >= graph.num_vertices or s == t:
        return
    # Build forward prefixes and backward suffixes by brute force and join.
    forward_budget = (k + 1) // 2
    backward_budget = k // 2
    forward = _all_paths_from(graph, s, forward_budget, forward=True)
    backward = _all_paths_from(graph, t, backward_budget, forward=False)
    policy = PathJoinPolicy(forward_budget, backward_budget)
    (joined,) = join_path_sets(forward, [(backward, t, policy)])
    assert len(joined) == len(set(joined))
    expected = sort_paths(enumerate_paths_brute_force(graph, s, t, k))
    assert sort_paths(joined) == expected


@given(
    graph_and_queries(),
    st.sampled_from(["pathenum", "basic+", "batch", "batch+"]),
)
@SETTINGS
def test_stream_ordered_yields_each_position_exactly_once_in_order(data, algorithm):
    """``ordered=True`` flushes strictly increasing batch positions, every
    position exactly once — i.e. the position sequence IS ``0..n-1``."""
    graph, queries = data
    engine = BatchQueryEngine(graph, algorithm=algorithm)
    positions = [position for position, _ in engine.stream(queries, ordered=True)]
    assert positions == list(range(len(queries)))


@given(graph_and_queries(), st.sampled_from([0.0, 0.5, 1.0]))
@SETTINGS
def test_stream_unordered_is_a_permutation_matching_run(data, gamma):
    """``ordered=False`` still delivers every position exactly once, and the
    collected results equal the blocking ``run()`` exactly."""
    graph, queries = data
    engine = BatchQueryEngine(graph, algorithm="batch+", gamma=gamma)
    flushed = list(engine.stream(queries, ordered=False))
    positions = [position for position, _ in flushed]
    assert sorted(positions) == list(range(len(queries)))
    assert dict(flushed) == engine.run(queries).paths_by_position


def test_stream_empty_batch_yields_nothing_without_raising():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    for algorithm in ("pathenum", "basic", "batch+"):
        for ordered in (True, False):
            engine = BatchQueryEngine(graph, algorithm=algorithm)
            assert list(engine.stream([], ordered=ordered)) == []


def _all_paths_from(graph, start, budget, forward):
    neighbors = graph.out_neighbors if forward else graph.in_neighbors
    results = []
    prefix = [start]

    def extend(vertex, used):
        results.append(tuple(prefix))
        if used == budget:
            return
        for neighbor in neighbors(vertex):
            if neighbor in prefix:
                continue
            prefix.append(neighbor)
            extend(neighbor, used + 1)
            prefix.pop()

    extend(start, 0)
    return results
