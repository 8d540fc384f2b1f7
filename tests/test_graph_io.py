"""Unit tests for edge-list IO, sampling and statistics."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.graph.io import (
    read_edge_list,
    read_query_file,
    write_edge_list,
    write_query_file,
)
from repro.graph.sampling import sample_vertices, vertex_induced_subgraph
from repro.graph.stats import compute_stats


def test_edge_list_roundtrip(tmp_path):
    graph = random_directed_gnm(30, 90, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path, header="test graph")
    loaded = read_edge_list(path, relabel=False)
    assert loaded == graph


def test_edge_list_relabels_sparse_ids(tmp_path):
    path = tmp_path / "sparse.txt"
    path.write_text("# comment\n1000 2000\n2000 3000\n")
    graph = read_edge_list(path)
    assert graph.num_vertices == 3
    assert graph.num_edges == 2
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 2)


def test_edge_list_skips_self_loops_and_comments(tmp_path):
    path = tmp_path / "loops.txt"
    path.write_text("# header\n0 0\n0 1\n")
    graph = read_edge_list(path)
    assert graph.num_edges == 1


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_query_file_roundtrip(tmp_path):
    queries = [(0, 5, 4), (3, 9, 6)]
    path = tmp_path / "queries.txt"
    write_query_file(queries, path)
    assert read_query_file(path) == queries


def test_query_file_malformed(tmp_path):
    path = tmp_path / "bad_queries.txt"
    path.write_text("1 2\n")
    with pytest.raises(ValueError):
        read_query_file(path)


def test_sample_vertices_fraction():
    graph = random_directed_gnm(100, 500, seed=1)
    sampled = sample_vertices(graph, 0.5, seed=3)
    assert sampled.num_vertices == 50
    assert sampled.num_edges <= graph.num_edges


def test_sample_vertices_full_is_copy():
    graph = random_directed_gnm(20, 60, seed=1)
    assert sample_vertices(graph, 1.0) == graph


def test_sample_vertices_invalid_fraction():
    graph = random_directed_gnm(20, 60, seed=1)
    with pytest.raises(ValueError):
        sample_vertices(graph, 0.0)


def test_vertex_induced_subgraph_relabels():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    subgraph = vertex_induced_subgraph(graph, [1, 2])
    assert subgraph.num_vertices == 2
    assert subgraph.has_edge(0, 1)  # old edge (1, 2)


def test_compute_stats_matches_definition():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
    stats = compute_stats(graph)
    assert stats.num_vertices == 3
    assert stats.num_edges == 4
    assert stats.average_degree == pytest.approx(8 / 3)
    assert stats.max_degree == 3


def test_compute_stats_empty_graph():
    stats = compute_stats(DiGraph())
    assert stats.num_vertices == 0
    assert stats.max_degree == 0
