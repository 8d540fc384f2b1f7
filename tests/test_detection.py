"""Unit tests for Algorithm 3 (DetectCommonQuery)."""

import pytest

from repro.batch.detection import detect_common_queries
from repro.batch.sharing_graph import QueryNode
from repro.graph.generators import paper_example_graph, random_directed_gnm
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from repro.queries.workload import QueryWorkload


def _detect(graph, queries_by_position, direction, max_depth=None):
    index = QueryWorkload(graph, list(queries_by_position.values())).index
    if direction is Direction.FORWARD:
        budgets = {pos: q.forward_budget for pos, q in queries_by_position.items()}
    else:
        budgets = {pos: q.backward_budget for pos, q in queries_by_position.items()}
    return detect_common_queries(
        graph,
        queries_by_position,
        direction,
        index,
        budgets,
        max_depth=max_depth,
    )


def test_every_query_gets_a_root_node(paper_graph, paper_queries):
    queries = dict(enumerate(paper_queries))
    outcome = _detect(paper_graph, queries, Direction.FORWARD)
    for position, query in queries.items():
        root = outcome.root_by_position[position]
        assert root.vertex == query.s
        assert root.budget == query.forward_budget
        assert QueryNode(position) in outcome.sharing_graph.consumers_of(root)


def test_paper_example_detects_common_query_at_v1():
    """Fig. 6: q0, q1, q2 share the dominating HC-s path query q_{v1,2,G}."""
    graph = paper_example_graph()
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    outcome = _detect(graph, cluster, Direction.FORWARD)
    psi = outcome.sharing_graph
    common_v1 = HCsPathQuery(1, 2, Direction.FORWARD)
    assert common_v1 in psi
    consumers = psi.consumers_of(common_v1)
    assert outcome.root_by_position[0] in consumers
    assert outcome.root_by_position[1] in consumers
    assert outcome.root_by_position[2] in consumers


def test_paper_example_detects_common_query_at_v4():
    """Fig. 6: q0 and q1 additionally share q_{v4,2,G}."""
    graph = paper_example_graph()
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    outcome = _detect(graph, cluster, Direction.FORWARD)
    psi = outcome.sharing_graph
    common_v4 = HCsPathQuery(4, 2, Direction.FORWARD)
    assert common_v4 in psi
    consumers = psi.consumers_of(common_v4)
    assert outcome.root_by_position[0] in consumers
    assert outcome.root_by_position[1] in consumers
    assert outcome.root_by_position[2] not in consumers


def test_paper_example_backward_reuses_v12_root():
    """Fig. 5(b): the enumeration from v12 is shared between the backward
    queries of q0 and q1, reusing q2's root q_{v12,2,Gr}."""
    graph = paper_example_graph()
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    outcome = _detect(graph, cluster, Direction.BACKWARD)
    psi = outcome.sharing_graph
    v12_root = outcome.root_by_position[2]
    assert v12_root.vertex == 12
    consumers = psi.consumers_of(v12_root)
    assert outcome.root_by_position[0] in consumers
    assert outcome.root_by_position[1] in consumers


def test_identical_queries_share_one_root():
    graph = random_directed_gnm(40, 200, seed=1)
    cluster = {0: HCSTQuery(0, 9, 4), 1: HCSTQuery(0, 9, 4), 2: HCSTQuery(0, 9, 4)}
    outcome = _detect(graph, cluster, Direction.FORWARD)
    roots = {outcome.root_by_position[pos] for pos in cluster}
    assert len(roots) == 1
    root = next(iter(roots))
    assert len(outcome.sharing_graph.consumers_of(root)) == 3


def test_same_source_different_budget_cross_budget_sharing():
    """The larger-budget root provides for the smaller-budget one."""
    graph = random_directed_gnm(40, 200, seed=2)
    cluster = {0: HCSTQuery(0, 9, 6), 1: HCSTQuery(0, 11, 4)}
    outcome = _detect(graph, cluster, Direction.FORWARD)
    psi = outcome.sharing_graph
    big = outcome.root_by_position[0]    # budget 3
    small = outcome.root_by_position[1]  # budget 2
    assert big.budget > small.budget
    assert small in psi.consumers_of(big)


def test_sharing_graph_is_always_a_dag():
    for seed in range(5):
        graph = random_directed_gnm(50, 300, seed=seed)
        cluster = {
            0: HCSTQuery(0, 10, 4),
            1: HCSTQuery(1, 10, 4),
            2: HCSTQuery(0, 11, 5),
            3: HCSTQuery(2, 12, 3),
        }
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            outcome = _detect(graph, cluster, direction)
            assert outcome.sharing_graph.is_dag()


def test_served_queries_cover_consumer_positions(paper_graph):
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    outcome = _detect(paper_graph, cluster, Direction.FORWARD)
    common_v1 = HCsPathQuery(1, 2, Direction.FORWARD)
    assert outcome.served_queries[common_v1] == {0, 1, 2}
    # Roots serve at least their own query.
    for position in cluster:
        root = outcome.root_by_position[position]
        assert position in outcome.served_queries[root]


def test_max_depth_limits_detection():
    graph = paper_example_graph()
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    shallow = _detect(graph, cluster, Direction.FORWARD, max_depth=0)
    # With no expansion beyond the roots, no common vertex can be detected.
    assert shallow.num_shared_nodes == 0
    deep = _detect(graph, cluster, Direction.FORWARD, max_depth=None)
    assert deep.num_shared_nodes >= 1


def _psi_signature(outcome):
    """Everything that defines a detection outcome, in hashable form: the
    node set and edge set of Ψ, the per-position roots/budgets and the
    served-query map."""
    psi = outcome.sharing_graph
    nodes = frozenset(psi.nodes())
    edges = frozenset(
        (provider, consumer)
        for provider in psi.nodes()
        for consumer in psi.consumers_of(provider)
    )
    served = {node: frozenset(ps) for node, ps in outcome.served_queries.items()}
    return (
        nodes,
        edges,
        dict(outcome.root_by_position),
        dict(outcome.budget_by_position),
        served,
    )


@pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.BACKWARD])
@pytest.mark.parametrize("max_depth", [None, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_detection_backends_produce_identical_psi(seed, max_depth, direction):
    """Differential: Ψ detected on a ``DiGraph`` equals Ψ detected on its
    sealed ``CSRGraph`` — the form a worker process receives."""
    graph = random_directed_gnm(40, 220, seed=seed)
    cluster = {
        0: HCSTQuery(0, 10, 4),
        1: HCSTQuery(1, 10, 4),
        2: HCSTQuery(0, 11, 5),
        3: HCSTQuery(2, 12, 3),
    }
    via_digraph = _detect(graph, cluster, direction, max_depth=max_depth)
    via_csr = _detect(
        graph.csr_snapshot(), cluster, direction, max_depth=max_depth
    )
    assert _psi_signature(via_csr) == _psi_signature(via_digraph)


def test_detection_backends_identical_on_paper_example():
    graph = paper_example_graph()
    cluster = {
        0: HCSTQuery(0, 11, 5),
        1: HCSTQuery(2, 13, 5),
        2: HCSTQuery(5, 12, 5),
    }
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        via_digraph = _detect(graph, cluster, direction)
        via_csr = _detect(graph.csr_snapshot(), cluster, direction)
        assert _psi_signature(via_csr) == _psi_signature(via_digraph)


def test_need_is_monotone_in_distance(paper_graph):
    cluster = {0: HCSTQuery(0, 11, 5)}
    outcome = _detect(paper_graph, cluster, Direction.FORWARD)
    root = outcome.root_by_position[0]
    # v12 is one hop from the target v11; v1 is four hops away.
    need, shift = outcome.admissibility(root)
    assert need[12] <= need[1]
    # Admissibility uses the same quantity.
    assert not need[12] > root.budget - shift
