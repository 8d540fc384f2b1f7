"""Unit tests for the CSR snapshot."""

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm


def test_csr_matches_digraph_small():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (2, 1), (1, 3)])
    csr = CSRGraph(graph)
    assert csr.num_vertices == graph.num_vertices
    assert csr.num_edges == graph.num_edges
    for v in graph.vertices():
        assert sorted(csr.out_neighbors(v)) == sorted(graph.out_neighbors(v))
        assert sorted(csr.in_neighbors(v)) == sorted(graph.in_neighbors(v))


def test_csr_matches_digraph_random():
    graph = random_directed_gnm(80, 400, seed=3)
    csr = CSRGraph(graph)
    for v in graph.vertices():
        assert sorted(csr.neighbors(v, forward=True)) == sorted(graph.out_neighbors(v))
        assert sorted(csr.neighbors(v, forward=False)) == sorted(graph.in_neighbors(v))
        assert csr.out_degree(v) == graph.out_degree(v)
        assert csr.in_degree(v) == graph.in_degree(v)


def test_csr_neighbors_sorted():
    graph = DiGraph.from_edges([(0, 5), (0, 2), (0, 9)], num_vertices=10)
    csr = CSRGraph(graph)
    assert list(csr.out_neighbors(0)) == [2, 5, 9]


def test_adjacency_lists_roundtrip():
    graph = random_directed_gnm(30, 90, seed=1)
    csr = CSRGraph(graph)
    forward = csr.adjacency_lists(forward=True)
    backward = csr.adjacency_lists(forward=False)
    assert len(forward) == len(backward) == graph.num_vertices
    for v in graph.vertices():
        assert list(forward[v]) == sorted(graph.out_neighbors(v))
        assert list(backward[v]) == sorted(graph.in_neighbors(v))
        # The snapshot hands out the graph's own rows, not a second copy,
        # and neither spine nor row can be edited through it.
        assert forward[v] is graph.out_neighbors(v) is csr.out_neighbors(v)
        assert backward[v] is graph.in_neighbors(v) is csr.in_neighbors(v)
    assert isinstance(forward, tuple) and isinstance(forward[0], tuple)
    assert csr.adjacency_lists(forward=True) is forward


def test_digraph_csr_snapshot_cached_and_invalidated():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    first = graph.csr_snapshot()
    assert graph.csr_snapshot() is first  # cached while unchanged
    graph.add_edge(0, 2)
    second = graph.csr_snapshot()
    assert second is not first
    assert list(second.out_neighbors(0)) == [1, 2]


def test_isolated_vertices_have_no_neighbors():
    graph = DiGraph(4)
    graph.add_edge(0, 1)
    csr = CSRGraph(graph)
    assert list(csr.out_neighbors(2)) == []
    assert list(csr.in_neighbors(3)) == []


def test_csr_carries_sealed_version_and_read_surface():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
    csr = graph.csr_snapshot()
    assert csr.version == graph.version
    # The CSR duck-types the DiGraph read surface the executors use.
    assert csr.csr_snapshot() is csr
    assert list(csr.vertices()) == list(graph.vertices())
    assert csr.has_edge(0, 1) and not csr.has_edge(1, 0)
    graph.add_edge(1, 0)
    assert csr.version == graph.version - 1  # sealed: version frozen
    assert not csr.has_edge(1, 0)  # sealed: contents frozen


def test_a_mutator_asserts_on_an_unsorted_row():
    # Every search trusts DiGraph's sorted-row invariant and sealing shares
    # the rows unread, so under __debug__ the mutators check the one row
    # they write: a later seal cannot publish a row that went unsorted
    # behind the graph's back.
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=4)
    # Corrupts a row on purpose, behind the API.
    graph._out[0] = graph.out_neighbors(0)[::-1]
    with pytest.raises(AssertionError, match="not strictly sorted"):
        graph.add_edge(0, 3)


def test_out_of_range_ids_raise_on_the_snapshot_read_surface():
    csr = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)]).csr_snapshot()
    # A negative id must not alias a vertex counted from the end.
    for bad in (-1, -3, 3, 99):
        for read in (
            csr.neighbors,
            csr.out_neighbors,
            csr.in_neighbors,
            csr.out_degree,
            csr.in_degree,
        ):
            with pytest.raises(IndexError, match="outside"):
                read(bad)
        with pytest.raises(IndexError):
            csr.neighbors(bad, forward=False)
        with pytest.raises(IndexError):
            csr.has_edge(bad, 0)
        with pytest.raises(IndexError):
            csr.has_edge(0, bad)
    assert [csr.out_degree(v) for v in csr.vertices()] == [1, 1, 1]
    assert csr.has_edge(2, 0) and not csr.has_edge(0, 2)
