"""Unit tests for the DiGraph container."""

import pytest

from repro.graph.digraph import DiGraph


def test_empty_graph():
    graph = DiGraph()
    assert graph.num_vertices == 0
    assert graph.num_edges == 0
    assert list(graph.edges()) == []


def test_add_edge_and_neighbors():
    graph = DiGraph(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    assert graph.num_edges == 2
    assert list(graph.out_neighbors(0)) == [1]
    assert list(graph.in_neighbors(2)) == [1]
    assert graph.has_edge(0, 1)
    assert not graph.has_edge(1, 0)


def test_add_vertex_returns_new_id():
    graph = DiGraph(2)
    new_id = graph.add_vertex()
    assert new_id == 2
    assert graph.num_vertices == 3


def test_self_loop_rejected():
    graph = DiGraph(2)
    with pytest.raises(ValueError):
        graph.add_edge(1, 1)


def test_duplicate_edge_rejected():
    graph = DiGraph(2)
    graph.add_edge(0, 1)
    with pytest.raises(ValueError):
        graph.add_edge(0, 1)


def test_out_of_range_vertex_rejected():
    graph = DiGraph(2)
    with pytest.raises(ValueError):
        graph.add_edge(0, 5)
    with pytest.raises(ValueError):
        graph.add_edge(-1, 0)


def test_from_edges_infers_vertex_count():
    graph = DiGraph.from_edges([(0, 3), (3, 1)])
    assert graph.num_vertices == 4
    assert graph.num_edges == 2


def test_from_edges_ignores_duplicates():
    graph = DiGraph.from_edges([(0, 1), (0, 1), (1, 2)])
    assert graph.num_edges == 2


def test_degrees():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (2, 0)])
    assert graph.out_degree(0) == 2
    assert graph.in_degree(0) == 1
    assert graph.degree(0) == 3


def test_reverse_graph():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    reversed_graph = graph.reverse()
    assert reversed_graph.has_edge(1, 0)
    assert reversed_graph.has_edge(2, 1)
    assert reversed_graph.num_edges == graph.num_edges
    # Reversing twice gives back the original edge set.
    assert reversed_graph.reverse() == graph


def test_copy_is_independent():
    graph = DiGraph.from_edges([(0, 1)])
    clone = graph.copy()
    clone.add_edge(1, 0)
    assert not graph.has_edge(1, 0)
    assert clone.has_edge(1, 0)


def test_equality_by_structure():
    a = DiGraph.from_edges([(0, 1), (1, 2)])
    b = DiGraph.from_edges([(1, 2), (0, 1)])
    assert a == b
    b.add_edge(2, 0)
    assert a != b


def test_edges_iteration_matches_edge_count():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(list(graph.edges())) == graph.num_edges


def test_to_dict():
    graph = DiGraph.from_edges([(0, 1), (0, 2)])
    adjacency = graph.to_dict()
    assert adjacency[0] == [1, 2]
    assert adjacency[1] == []


# --------------------------------------------------------------------- #
# The bulk build keeps the one-edge-at-a-time contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "edges, num_vertices, message",
    [
        ([(0, 1), (1, 1), (5, 2)], 3, "self loops are not allowed (got edge (1, 1))"),
        ([(0, 1), (0, 9), (1, 1)], 3, "v=9 is out of range for a graph with 3 vertices"),
        ([(0, 1), (-1, 2), (1, 1)], 3, "u=-1 is out of range for a graph with 3 vertices"),
        ([(0, 1), (2, -1)], None, "v=-1 is out of range for a graph with 3 vertices"),
        ([(1, 2), (0, True), (1, 1)], 3, "v must be an int, got bool"),
        ([(0, 1), (1.0, 2), (9, 0)], 3, "u must be an int, got float"),
    ],
)
def test_from_edges_raises_on_the_first_offending_edge(edges, num_vertices, message):
    with pytest.raises(ValueError) as raised:
        DiGraph.from_edges(edges, num_vertices=num_vertices)
    assert str(raised.value) == message


def test_from_edges_accepts_lists_and_builds_the_rows_add_edge_builds():
    import random

    rng = random.Random(5)
    edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(400)]
    edges = [(u, v) for u, v in edges if u != v]
    incremental = DiGraph(40)
    for u, v in edges:
        if not incremental.has_edge(u, v):
            incremental.add_edge(u, v)
    rng.shuffle(edges)
    bulk = DiGraph.from_edges([[u, v] for u, v in edges + edges[:50]])
    assert bulk.num_vertices == 40
    assert bulk == incremental
    assert bulk.num_edges == incremental.num_edges == len(set(edges))
    assert list(bulk.edges()) == list(incremental.edges())
    assert [bulk.in_neighbors(v) for v in bulk.vertices()] == [
        incremental.in_neighbors(v) for v in incremental.vertices()
    ]


@pytest.mark.parametrize("u, v", [(-1, 0), (3, 0), (0, -1), (0, 3)])
def test_a_vertex_outside_the_graph_never_aliases_a_row(u, v):
    # Vertex 2 is the last row, the one a negative index would read.
    graph = DiGraph.from_edges([(0, 1), (2, 0), (2, 1)])
    assert not graph.has_edge(u, v)
    with pytest.raises(ValueError, match=rf"no such edge \({u}, {v}\)"):
        graph.remove_edge(u, v)
    assert sorted(graph.edges()) == [(0, 1), (2, 0), (2, 1)]
    assert graph.num_edges == 3


def test_copy_and_reverse_stay_independent_under_later_mutation():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    clone, reversed_graph = graph.copy(), graph.reverse()
    graph.add_edge(3, 0)
    graph.remove_edge(0, 1)
    assert sorted(clone.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(reversed_graph.edges()) == [(1, 0), (2, 1), (3, 2)]
    clone.add_edge(0, 2)
    reversed_graph.remove_edge(2, 1)
    assert sorted(graph.edges()) == [(1, 2), (2, 3), (3, 0)]
    assert (graph.num_edges, clone.num_edges, reversed_graph.num_edges) == (3, 4, 2)
    assert reversed_graph.reverse() != graph
    assert clone.reverse().reverse() == clone


def test_pickle_round_trip_compares_equal_and_stays_mutable():
    import pickle

    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph
    assert clone.num_edges == 3
    clone.add_edge(0, 2)
    assert clone.has_edge(0, 2) and not graph.has_edge(0, 2)


def test_the_graph_holds_its_edges_once():
    """No per-edge object beside the rows: 2|E| row slots plus per-vertex
    overhead, against 114-190 bytes per edge with a tuple set beside them."""
    import tracemalloc

    from repro.graph.generators import random_directed_gnm

    tracemalloc.start()
    try:
        graph = random_directed_gnm(2000, 20000, seed=3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.num_edges == 20000
    assert held / graph.num_edges < 64
