"""Unit tests for the adapted k-shortest-path baselines (Exp-6)."""

import pytest

from repro.baselines.dksp import enumerate_paths_dksp
from repro.baselines.onepass import enumerate_paths_onepass
from repro.baselines.yen import shortest_path_hops, yen_k_shortest_paths
from repro.enumeration.paths import sort_paths
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_example_graph


def test_shortest_path_hops_basic(diamond_graph):
    assert shortest_path_hops(diamond_graph, 0, 3) == (0, 3)
    assert shortest_path_hops(diamond_graph, 3, 0) is None


def test_shortest_path_respects_bans(diamond_graph):
    banned_direct = shortest_path_hops(
        diamond_graph, 0, 3, banned_edges=frozenset({(0, 3)})
    )
    assert banned_direct in ((0, 1, 3), (0, 2, 3))
    assert (
        shortest_path_hops(
            diamond_graph, 0, 3,
            banned_edges=frozenset({(0, 3)}),
            banned_vertices=frozenset({1, 2}),
        )
        is None
    )


def test_yen_generates_paths_in_hop_order(diamond_graph):
    paths = list(yen_k_shortest_paths(diamond_graph, 0, 3, max_hops=3))
    lengths = [len(p) - 1 for p in paths]
    assert lengths == sorted(lengths)
    assert sort_paths(paths) == sort_paths([(0, 3), (0, 1, 3), (0, 2, 3)])


def test_yen_limit_parameter(diamond_graph):
    assert len(list(yen_k_shortest_paths(diamond_graph, 0, 3, limit=2))) == 2


def test_yen_no_path():
    graph = DiGraph.from_edges([(0, 1), (2, 3)])
    assert list(yen_k_shortest_paths(graph, 0, 3, max_hops=5)) == []


def test_onepass_emits_paths_in_hop_order():
    graph = paper_example_graph()
    paths = enumerate_paths_onepass(graph, 0, 11, 5)
    lengths = [len(p) - 1 for p in paths]
    assert lengths == sorted(lengths)


def test_ksp_baselines_on_paper_example():
    graph = paper_example_graph()
    assert len(enumerate_paths_dksp(graph, 0, 11, 5)) == 3
    assert len(enumerate_paths_onepass(graph, 2, 13, 5)) == 3


def test_onepass_validation():
    graph = DiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        enumerate_paths_onepass(graph, 0, 0, 3)
