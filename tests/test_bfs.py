"""Unit tests for BFS primitives and the distance index."""

import math

import pytest

from repro.bfs.distance_index import build_index
from repro.bfs.single_source import bfs_distances, bfs_levels
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_example_graph, random_directed_gnm


def test_bfs_distances_simple_chain():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    distances = bfs_distances(graph, 0)
    assert distances == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_distances_hop_bound():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    distances = bfs_distances(graph, 0, max_hops=2)
    assert 3 not in distances
    assert distances[2] == 2


def test_bfs_backward_direction():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    distances = bfs_distances(graph, 2, forward=False)
    assert distances == {2: 0, 1: 1, 0: 2}


def test_bfs_levels_grouping():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    levels = bfs_levels(graph, 0)
    assert levels[0] == [0]
    assert levels[1] == [1, 2]
    assert levels[2] == [3]


def test_paper_index_distances_to_v14():
    """Fig. 2(b): dist(v, v14) entries for query q3."""
    graph = paper_example_graph()
    distances = bfs_distances(graph, 14, max_hops=4, forward=False)
    assert distances[6] == 1
    assert distances[3] == 2
    assert distances[15] == 2
    assert distances[9] == 3
    assert distances[4] == 4
    assert 8 not in distances  # dist(v8, v14) = ∞ in Example 3.1


def test_build_index_lookup_and_infinity():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (3, 0)])
    index = build_index(graph, sources=[0], targets=[2], max_hops=3)
    assert index.dist_from(0, 2) == 2
    assert index.dist_to(2, 0) == 2
    assert math.isinf(index.dist_from(0, 3))  # 3 is not reachable from 0
    assert index.has_source(0)
    assert not index.has_source(1)
    with pytest.raises(KeyError):
        index.dist_from(1, 0)


def test_build_index_bounds():
    graph = random_directed_gnm(50, 250, seed=4)
    index = build_index(graph, sources=[0, 5], targets=[10, 20], max_hops=4)
    assert index.max_hops == 4
    assert index.has_source(0) and index.has_source(5)
    assert index.has_target(10) and index.has_target(20)


def test_neighborhood_extraction():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    index = build_index(graph, sources=[0], targets=[3], max_hops=3)
    assert index.forward_neighborhood(0, 2) == frozenset({0, 1, 2})
    assert index.backward_neighborhood(3, 1) == frozenset({2, 3})


def test_level_sizes():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    index = build_index(graph, sources=[0], targets=[3], max_hops=2)
    assert index.forward_level_sizes(0, 2) == [1, 2, 1]
    assert index.backward_level_sizes(3, 2) == [1, 2, 1]


def test_index_size_in_entries_positive():
    graph = random_directed_gnm(30, 120, seed=8)
    index = build_index(graph, sources=[0, 1], targets=[2], max_hops=3)
    assert index.size_in_entries > 0
