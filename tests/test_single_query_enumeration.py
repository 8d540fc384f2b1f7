"""Tests for the single-query enumerators (brute force, pruned DFS, PathEnum)."""

import pytest

from repro.enumeration.brute_force import (
    count_paths_brute_force,
    enumerate_paths_brute_force,
)
from repro.enumeration.dfs_baseline import enumerate_paths_pruned_dfs
from repro.enumeration.path_enum import PathEnum, enumerate_paths
from repro.enumeration.paths import sort_paths, validate_path
from repro.enumeration.search_order import choose_budget_split, mean_degree_of
from repro.bfs.distance_index import build_index_for_queries
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    paper_example_graph,
    powerlaw_directed,
    random_directed_gnm,
)
from repro.queries.query import HCSTQuery


def test_brute_force_on_diamond(diamond_graph):
    paths = sort_paths(enumerate_paths_brute_force(diamond_graph, 0, 3, 3))
    assert paths == [(0, 3), (0, 1, 3), (0, 2, 3)]
    assert count_paths_brute_force(diamond_graph, 0, 3, 3) == 3


def test_brute_force_respects_hop_constraint(diamond_graph):
    assert sort_paths(enumerate_paths_brute_force(diamond_graph, 0, 3, 1)) == [(0, 3)]


def test_brute_force_validation():
    graph = DiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        enumerate_paths_brute_force(graph, 0, 0, 2)


def test_paper_example_q0_paths():
    """Example 2.1: q0(v0, v11, 5) has exactly the three listed paths."""
    graph = paper_example_graph()
    expected = sort_paths([
        (0, 1, 7, 10, 12, 11),
        (0, 4, 9, 3, 6, 11),
        (0, 4, 9, 15, 6, 11),
    ])
    assert sort_paths(enumerate_paths_brute_force(graph, 0, 11, 5)) == expected
    assert sort_paths(enumerate_paths(graph, 0, 11, 5)) == expected


def test_paper_example_q1_paths():
    """Fig. 3(b): q1(v2, v13, 5) has exactly the three listed paths."""
    graph = paper_example_graph()
    expected = sort_paths([
        (2, 1, 7, 10, 12, 13),
        (2, 4, 9, 3, 6, 13),
        (2, 4, 9, 15, 6, 13),
    ])
    assert sort_paths(enumerate_paths(graph, 2, 13, 5)) == expected


def test_paper_example_q3_prunes_to_two_paths():
    """Example 3.1: q3(v4, v14, 4) has two results and v8/v15 are pruned."""
    graph = paper_example_graph()
    expected = sort_paths([(4, 9, 3, 6, 14), (4, 9, 15, 6, 14)])
    assert sort_paths(enumerate_paths(graph, 4, 14, 4)) == expected


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_all_enumerators_agree_on_random_graphs(seed, k):
    graph = random_directed_gnm(30, 140, seed=seed)
    s, t = 0, 17
    expected = sort_paths(enumerate_paths_brute_force(graph, s, t, k))
    assert sort_paths(enumerate_paths_pruned_dfs(graph, s, t, k)) == expected
    assert sort_paths(enumerate_paths(graph, s, t, k)) == expected
    assert sort_paths(enumerate_paths(graph, s, t, k, optimize_search_order=True)) == expected


def test_pathenum_on_hub_graph_matches_brute_force(hub_graph):
    for s, t, k in [(0, 5, 3), (3, 0, 4), (10, 2, 5)]:
        expected = sort_paths(enumerate_paths_brute_force(hub_graph, s, t, k))
        assert sort_paths(enumerate_paths(hub_graph, s, t, k)) == expected


def test_pathenum_returns_valid_paths(random_graph):
    query = HCSTQuery(0, 7, 4)
    enumerator = PathEnum(random_graph)
    for path in enumerator.enumerate(query):
        validate_path(random_graph, path, s=0, t=7, k=4)


def test_pathenum_unreachable_target_returns_empty():
    graph = DiGraph.from_edges([(0, 1), (2, 3)])
    assert enumerate_paths(graph, 0, 3, 4) == []


def test_pathenum_k_equals_one():
    graph = DiGraph.from_edges([(0, 1), (1, 0)])
    assert enumerate_paths(graph, 0, 1, 1) == [(0, 1)]


def test_pathenum_count_matches_enumerate(random_graph):
    enumerator = PathEnum(random_graph)
    query = HCSTQuery(1, 20, 4)
    assert enumerator.count(query) == len(enumerator.enumerate(query))


def test_pathenum_with_shared_index_matches_private_index(random_graph):
    queries = [HCSTQuery(0, 7, 4), HCSTQuery(3, 11, 3)]
    index = build_index_for_queries(random_graph, [(q.s, q.t, q.k) for q in queries])
    shared = PathEnum(random_graph, index=index)
    private = PathEnum(random_graph)
    for query in queries:
        assert sort_paths(shared.enumerate(query)) == sort_paths(private.enumerate(query))


def test_choose_budget_split_is_valid():
    graph = powerlaw_directed(200, 3, seed=1)
    query = HCSTQuery(0, 10, 5)
    index = build_index_for_queries(graph, [(0, 10, 5)])
    split = choose_budget_split([query], index, mean_degree_of(graph))
    assert list(split) == [query.k]
    assert 1 <= split[query.k] <= query.k
