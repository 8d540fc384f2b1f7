"""Unit tests for query types and the workload container."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from repro.queries.workload import QueryWorkload


def test_hcst_query_budgets():
    query = HCSTQuery(0, 5, 5)
    assert query.forward_budget == 3
    assert query.backward_budget == 2
    even = HCSTQuery(0, 5, 4)
    assert even.forward_budget == 2
    assert even.backward_budget == 2


def test_hcst_query_validation():
    with pytest.raises(ValueError):
        HCSTQuery(0, 0, 3)          # s == t
    with pytest.raises(ValueError):
        HCSTQuery(0, 1, 0)          # k must be >= 1
    with pytest.raises(ValueError):
        HCSTQuery(-1, 1, 3)         # negative vertex


def test_hcst_query_subqueries():
    query = HCSTQuery(2, 7, 5)
    forward = query.forward_subquery()
    backward = query.backward_subquery()
    assert forward == HCsPathQuery(2, 3, Direction.FORWARD)
    assert backward == HCsPathQuery(7, 2, Direction.BACKWARD)


def test_hcst_query_split_budget_sums_to_k():
    query = HCSTQuery(2, 7, 5)
    forward, backward = query.split(4)
    assert forward.budget + backward.budget == 5
    with pytest.raises(ValueError):
        query.split(6)


def test_hcs_path_query_domination():
    """Definition 4.3: q_{v',k'} ≺ q_{v,k} iff k' <= k - dist(v, v')."""
    big = HCsPathQuery(0, 4, Direction.FORWARD)
    small = HCsPathQuery(3, 2, Direction.FORWARD)
    assert small.dominates(big, distance=2)
    assert not small.dominates(big, distance=3)
    backward = HCsPathQuery(3, 2, Direction.BACKWARD)
    assert not backward.dominates(big, distance=0)  # directions differ


def test_query_str_representations():
    assert "s=1" in str(HCSTQuery(1, 2, 3))
    assert "Gr" in str(HCsPathQuery(1, 2, Direction.BACKWARD))


def test_workload_requires_queries_and_valid_vertices():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        QueryWorkload(graph, [])
    with pytest.raises(ValueError):
        QueryWorkload(graph, [HCSTQuery(0, 99, 3)])


def test_workload_shared_index_built_once():
    graph = random_directed_gnm(40, 160, seed=1)
    workload = QueryWorkload(graph, [HCSTQuery(0, 5, 3), HCSTQuery(1, 6, 4)])
    index_a = workload.index
    index_b = workload.index
    assert index_a is index_b
    assert workload.max_hop_constraint == 4
    assert workload.sources == [0, 1]
    assert workload.targets == [5, 6]
    assert workload.stage_timer.total("BuildIndex") >= 0.0


def test_workload_index_survives_graph_mutation():
    # Multi-version serving (via SnapshotStore): the workload pins
    # the sealed snapshot of the version it was admitted under, so a later
    # mutation never invalidates its index — it keeps answering for the
    # pinned version while fresh workloads see the new head.
    graph = random_directed_gnm(40, 160, seed=3)
    workload = QueryWorkload(graph, [HCSTQuery(0, 5, 3)])
    pinned = workload.index
    assert workload.index is pinned  # built and cached
    graph.add_edge(0, 39)
    assert workload.index is pinned  # mutation did not disturb the pin
    assert workload.graph_version == graph.version - 1
    # A workload built after the mutation pins the new version and sees
    # the new edge: 0 -> 39 makes 39 reachable from source 0 in one hop.
    fresh = QueryWorkload(graph, [HCSTQuery(0, 5, 3)])
    assert fresh.graph_version == graph.version
    assert fresh.index.dist_from(0, 39) == 1


def test_workload_snapshot_pinned_before_first_build():
    # The snapshot is sealed at construction time, so an index first
    # built *after* a mutation still reflects the admitted version.
    graph = random_directed_gnm(40, 160, seed=4)
    workload = QueryWorkload(graph, [HCSTQuery(0, 5, 3)])
    admitted_version = graph.version
    assert not graph.has_edge(1, 38)
    graph.add_edge(1, 38)
    assert workload.graph_version == admitted_version
    assert not workload.csr.has_edge(1, 38)
    assert workload.index.has_source(0)


def test_workload_similarity_in_unit_interval():
    graph = random_directed_gnm(40, 200, seed=2)
    workload = QueryWorkload(graph, [HCSTQuery(0, 5, 3), HCSTQuery(0, 6, 3)])
    mu = workload.average_similarity()
    assert 0.0 <= mu <= 1.0


def test_workload_iteration_and_len():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    queries = [HCSTQuery(0, 2, 2), HCSTQuery(0, 1, 1)]
    workload = QueryWorkload(graph, queries)
    assert len(workload) == 2
    assert list(workload) == queries
