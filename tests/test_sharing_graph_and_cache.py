"""Unit tests for the query sharing graph Ψ, its node types and the result
cache R."""

import pickle
import sys
from collections import Counter

import pytest

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchQueryEngine
from repro.batch.planner import QueryPlanner
from repro.batch.sharing_graph import QueryNode, QuerySharingGraph
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_similar_workload
from repro.queries.query import Direction, HCsPathQuery


def _node(vertex, budget, direction=Direction.FORWARD):
    return HCsPathQuery(vertex, budget, direction)


def test_add_nodes_and_edges():
    psi = QuerySharingGraph(Direction.FORWARD)
    provider = _node(1, 2)
    consumer = _node(0, 3)
    psi.add_edge(provider, consumer)
    assert provider in psi
    assert psi.consumers_of(provider) == [consumer]
    assert psi.providers_of(consumer) == [provider]
    assert psi.num_nodes == 2
    assert psi.num_edges == 1


def test_duplicate_edges_ignored():
    psi = QuerySharingGraph(Direction.FORWARD)
    provider, consumer = _node(1, 2), _node(0, 3)
    psi.add_edge(provider, consumer)
    psi.add_edge(provider, consumer)
    assert psi.num_edges == 1


def test_self_edge_rejected():
    psi = QuerySharingGraph(Direction.FORWARD)
    node = _node(1, 2)
    with pytest.raises(ValueError):
        psi.add_edge(node, node)


def test_direction_mismatch_rejected():
    psi = QuerySharingGraph(Direction.FORWARD)
    with pytest.raises(ValueError):
        psi.add_node(_node(1, 2, Direction.BACKWARD))


def test_cycle_detection_and_rejection():
    psi = QuerySharingGraph(Direction.FORWARD)
    a, b, c = _node(0, 3), _node(1, 2), _node(2, 1)
    psi.add_edge(a, b)
    psi.add_edge(b, c)
    assert psi.would_create_cycle(c, a)
    with pytest.raises(ValueError):
        psi.add_edge(c, a)
    assert psi.is_dag()


def test_topological_order_providers_first():
    psi = QuerySharingGraph(Direction.FORWARD)
    common = _node(5, 1)
    root_a, root_b = _node(0, 3), _node(1, 3)
    query_a, query_b = QueryNode(0), QueryNode(1)
    psi.add_edge(root_a, query_a)
    psi.add_edge(root_b, query_b)
    psi.add_edge(common, root_a)
    psi.add_edge(common, root_b)
    order = psi.topological_order()
    assert order.index(common) < order.index(root_a)
    assert order.index(common) < order.index(root_b)
    assert order.index(root_a) < order.index(query_a)
    assert len(order) == psi.num_nodes


def test_node_type_accessors():
    psi = QuerySharingGraph(Direction.BACKWARD)
    root = _node(3, 2, Direction.BACKWARD)
    psi.add_edge(root, QueryNode(7))
    assert psi.hc_s_path_nodes() == [root]
    assert psi.query_nodes() == [QueryNode(7)]


def test_cache_put_get_and_reuse_count():
    cache = ResultCache()
    node = _node(0, 2)
    cache.put(node, [(0,), (0, 1)], consumers=2)
    assert node in cache
    assert cache.get(node) == ((0,), (0, 1))
    assert cache.reuse_count == 1
    assert cache.peek(node) is not None


def test_cache_get_and_peek_return_immutable_results():
    """Regression: consumers must not be able to corrupt a spliced provider
    result for every later reader — the cache hands out tuples, and the
    stored paths do not alias the sequence passed to ``put``."""
    cache = ResultCache()
    node = _node(0, 2)
    original = [(0,), (0, 1)]
    cache.put(node, original, consumers=3)
    original.append((9, 9))  # mutating the caller's list must not leak in
    assert cache.get(node) == ((0,), (0, 1))
    assert isinstance(cache.get(node), tuple)
    assert isinstance(cache.peek(node), tuple)
    with pytest.raises(AttributeError):
        cache.get(node).append((7,))  # tuples have no append
    assert cache.peek(node) == ((0,), (0, 1))


def test_cache_zero_consumers_not_stored():
    cache = ResultCache()
    node = _node(0, 2)
    cache.put(node, [(0,)], consumers=0)
    assert node not in cache


def test_cache_eviction_after_last_consumer():
    cache = ResultCache()
    node = _node(0, 2)
    cache.put(node, [(0,)], consumers=2)
    cache.release(node)
    assert node in cache
    cache.release(node)
    assert node not in cache
    assert cache.evicted_count == 1
    with pytest.raises(KeyError):
        cache.get(node)


def test_cache_release_unknown_node_is_noop():
    cache = ResultCache()
    cache.release(_node(9, 1))  # must not raise


def test_cache_peak_entries_tracks_high_water_mark():
    cache = ResultCache()
    a, b = _node(0, 1), _node(1, 1)
    cache.put(a, [(0,)], consumers=1)
    cache.put(b, [(1,)], consumers=1)
    cache.release(a)
    assert cache.peak_entries == 2
    assert cache.live_entries == 1


def test_cache_double_put_rejected():
    cache = ResultCache()
    node = _node(0, 1)
    cache.put(node, [(0,)], consumers=1)
    with pytest.raises(ValueError):
        cache.put(node, [(0,)], consumers=1)


# --------------------------------------------------------------------- #
# Node types: tuples that hash and compare in C
# --------------------------------------------------------------------- #
def test_node_equality_and_hash_follow_the_fields():
    assert _node(3, 2) == _node(3, 2) and hash(_node(3, 2)) == hash(_node(3, 2))
    assert _node(3, 2) != _node(3, 1) != _node(2, 1)
    assert _node(3, 2) != _node(3, 2, Direction.BACKWARD)
    assert QueryNode(4) == QueryNode(4) and hash(QueryNode(4)) == hash(QueryNode(4))
    assert QueryNode(4) != QueryNode(5)
    assert len({_node(3, 2), _node(3, 2), QueryNode(1), QueryNode(1)}) == 2


def test_node_ordering_repr_and_str():
    assert _node(1, 5) < _node(2, 0) < _node(2, 1)
    assert QueryNode(2) < QueryNode(10) and not QueryNode(3) < QueryNode(3)
    assert sorted([QueryNode(7), QueryNode(0), QueryNode(3)]) == [
        QueryNode(0), QueryNode(3), QueryNode(7)
    ]
    assert repr(_node(3, 2)) == (
        "HCsPathQuery(vertex=3, budget=2, direction=Direction.FORWARD)"
    )
    assert str(_node(3, 2)) == "q[3, 2, G]"
    assert str(_node(3, 2, Direction.BACKWARD)) == "q[3, 2, Gr]"
    assert repr(QueryNode(4)) == "QueryNode(position=4)"
    assert str(QueryNode(4)) == "Q#4"
    node = _node(3, 2, Direction.BACKWARD)
    assert (node.vertex, node.budget, node.direction) == (3, 2, Direction.BACKWARD)
    assert QueryNode(4).position == 4


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_nodes_survive_pickling(protocol):
    for node in (_node(3, 2), _node(0, 0, Direction.BACKWARD), QueryNode(9)):
        copy = pickle.loads(pickle.dumps(node, protocol))
        assert copy == node and hash(copy) == hash(node)
        assert type(copy) is type(node) and repr(copy) == repr(node)


def test_a_negative_vertex_or_budget_still_raises():
    with pytest.raises(ValueError, match="vertex"):
        HCsPathQuery(-1, 2, Direction.FORWARD)
    with pytest.raises(ValueError, match="budget"):
        HCsPathQuery(1, -2, Direction.FORWARD)
    with pytest.raises(ValueError, match="int"):
        HCsPathQuery(1.0, 2, Direction.FORWARD)


def test_nodes_paths_and_vertices_never_compare_equal():
    """A Ψ node is keyed beside paths and vertex ids: no HC-s path query,
    query node, path tuple or vertex int equals one of another kind."""
    kinds = [
        [_node(3, 2), _node(3, 0, Direction.BACKWARD), _node(0, 3)],
        [QueryNode(3), QueryNode(0), QueryNode(2)],
        [(3,), (3, 2), (3, 2, 0), (0, 3), ()],
        [3, 0, 2],
    ]
    for a, group_a in enumerate(kinds):
        for b, group_b in enumerate(kinds):
            if a != b:
                for x in group_a:
                    for y in group_b:
                        assert x != y and not x == y, (x, y)


def test_a_planned_micro_batch_hashes_no_node_in_python():
    """One 24-query micro-batch shaped like the live_serve benchmark's
    (Exp-1 groups at µ 0.5, repeats included), planned and executed under
    ``sys.setprofile``: no Python-level ``__hash__``/``__eq__`` frame runs
    in the node and query modules — Ψ keys hash and compare in C, and the
    front end dedupes by tuple.  A count, not a timing."""
    graph = random_directed_gnm(600, 2400, seed=3)
    queries, _ = generate_similar_workload(graph, 96, 0.5, 4, 5, seed=3, measure=False)
    batch = queries[:24]
    assert len(set(batch)) < len(batch)  # the batch has repeats
    engine = BatchQueryEngine(graph)
    planner = QueryPlanner(graph, engine.config)
    frames = Counter()

    def count(frame, event, _arg):
        if event == "call":
            frames[frame.f_globals.get("__name__"), frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        answered = dict(engine.stream_planned(planner.plan(batch)))
    finally:
        sys.setprofile(None)
    # The hook saw the pipeline: Ψ was built and every position answered.
    assert frames["repro.batch.detection", "detect_common_queries"] > 0
    assert sorted(answered) == list(range(len(batch)))
    keyed = {
        key: calls
        for key, calls in frames.items()
        if key[0] in ("repro.queries.query", "repro.batch.sharing_graph")
        and key[1] in ("__hash__", "__eq__")
    }
    assert keyed == {}
