"""Integration tests for BatchEnum (clustered or not) and the engine facade."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.batch import batch_enum
from repro.batch.batch_enum import BatchEnum
from repro.batch.cache import ResultCache
from repro.batch.detection import detect_common_queries
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.results import SharingStats
from repro.bfs.distance_index import UNREACHABLE, build_index
from repro.enumeration.hc_s_search import admissibility
from repro.enumeration.path_enum import PathEnum
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_example_graph, random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from test_differential import assert_answers, oracle


# --------------------------------------------------------------------- #
# BatchEnum
# --------------------------------------------------------------------- #
def test_batch_enum_sharing_stats_populated():
    graph = paper_example_graph()
    queries = [HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5), HCSTQuery(5, 12, 5)]
    result = BatchEnum(graph, gamma=0.5).run(queries)
    assert result.sharing.num_clusters >= 1
    assert result.sharing.num_hc_s_nodes >= 3
    assert result.sharing.num_shared_nodes >= 1
    assert result.total_time > 0.0


def test_unshared_root_enumerates_what_the_single_query_search_does(monkeypatch):
    """The degenerate case is structural: when a cluster's detection finds
    nothing to share, every root serves one query and has no provider, and
    its enumeration is ``PathEnum._search``'s list for the chosen budget —
    in the same order — beside the trivial root path and the paths that
    pass *through* the query's other endpoint (which the join discards)."""
    outcomes = []
    materialize = BatchEnum._materialize

    def recording_materialize(self, outcome, *args):
        outcomes.append(outcome)
        return materialize(self, outcome, *args)

    monkeypatch.setattr(BatchEnum, "_materialize", recording_materialize)
    compared = 0
    for seed in range(80):
        graph = random_directed_gnm(40, 200, seed=seed)
        queries = generate_random_queries(graph, 8, min_k=2, max_k=5, seed=seed)
        enum = BatchEnum(graph, optimize_search_order=True)
        outcomes.clear()
        enum.run(queries)
        # _process_cluster materialises a cluster's Ψr, then its forward Ψ.
        for backward_outcome, forward_outcome in zip(outcomes[::2], outcomes[1::2]):
            if forward_outcome.num_shared_nodes + backward_outcome.num_shared_nodes:
                continue
            for outcome in (forward_outcome, backward_outcome):
                forward = outcome.direction is Direction.FORWARD
                psi = outcome.sharing_graph
                for position, root in outcome.root_by_position.items():
                    query = outcome.queries_by_position[position]
                    assert outcome.served_queries[root] == {position}
                    assert psi.providers_of(root) == []
                    other_end = query.t if forward else query.s
                    node_paths = enum._enumerate_node(root, outcome, ResultCache())
                    assert [
                        path
                        for path in node_paths
                        if len(path) > 1 and other_end not in path[:-1]
                    ] == PathEnum(graph)._search(
                        query, outcome.index, forward=forward, budget=root.budget
                    )
                    compared += 1
    assert compared >= 100


def _strangers(with_family):
    """36 disjoint sparse blocks with one query each — pairwise µ = 0, so
    every query is its own cluster — and, ``with_family``, one dense block
    whose three queries share both endpoints' neighbourhoods."""
    edges, queries, offset = [], [], 0
    if with_family:
        edges += list(random_directed_gnm(30, 200, seed=7).edges())
        queries += [HCSTQuery(0, 20, 5), HCSTQuery(0, 21, 5), HCSTQuery(1, 20, 5)]
        offset = 30
    for block in range(36):
        sparse = random_directed_gnm(14, 40, seed=300 + block)
        edges += [(u + offset, v + offset) for u, v in sparse.edges()]
        queries.append(HCSTQuery(offset + block % 14, offset + (block + 5) % 14, 4))
        offset += 14
    return DiGraph.from_edges(edges, num_vertices=offset), queries


# --------------------------------------------------------------------- #
# Every node of a sharing graph against a brute-force filter
# --------------------------------------------------------------------- #
@st.composite
def graph_and_cluster(draw):
    """A small dense digraph and 2-5 queries drawn from few endpoints, so
    the cluster's Ψ has shared roots, created providers and splices."""
    num_vertices = draw(st.integers(min_value=6, max_value=10))
    possible = [
        (u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v
    ]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=2 * num_vertices,
            max_size=4 * num_vertices,
        )
    )
    graph = DiGraph.from_edges(set(edges), num_vertices=num_vertices)
    sources = st.integers(min_value=0, max_value=2)
    targets = st.integers(min_value=num_vertices - 3, max_value=num_vertices - 1)
    queries = draw(
        st.lists(
            st.builds(HCSTQuery, sources, targets, st.integers(2, 5)),
            min_size=2,
            max_size=5,
        )
    )
    max_depth = draw(st.sampled_from([None, 1, 2]))
    return graph, dict(enumerate(queries)), max_depth


def _simple_paths_from(adjacency, root, budget):
    """Every simple path leaving ``root`` with at most ``budget`` hops."""
    found, pending = [], [(root,)]
    while pending:
        path = pending.pop()
        found.append(path)
        if len(path) <= budget:
            pending += [path + (v,) for v in adjacency[path[-1]] if v not in path]
    return found


def _allowed_paths(graph, outcome, node):
    """Brute-force filter of ``node``'s simple paths by what its served
    queries can use.  Returns ``(must, may)``: ``may`` passes the record
    rule; ``must`` also takes only steps some served query can still finish
    from (Lemma 3.1, scalar form on the index's ``dist_*`` accessors).
    Without a provider the node returns exactly ``must``; a spliced
    provider serves a superset of queries, so it may add paths of ``may``.
    """
    forward = node.direction is Direction.FORWARD
    index, psi = outcome.index, outcome.sharing_graph
    served = [
        (outcome.queries_by_position[p], outcome.budget_by_position[p])
        for p in outcome.served_queries[node]
    ]
    endpoints = {query.t if forward else query.s for query, _ in served}
    keep_all = any(isinstance(c, HCsPathQuery) for c in psi.consumers_of(node))

    def useful(vertex, remaining):
        return any(
            (index.dist_to(q.t, vertex) if forward else index.dist_from(q.s, vertex))
            + root_budget + 1 - q.k <= remaining
            for q, root_budget in served
        )

    must, may = set(), set()
    adjacency = graph.csr_snapshot().adjacency_lists(forward)
    for path in _simple_paths_from(adjacency, node.vertex, node.budget):
        hops = len(path) - 1
        if keep_all or not forward or hops == node.budget or path[-1] in endpoints:
            may.add(path)
            if all(
                useful(path[i], node.budget - i + 1) for i in range(1, len(path))
            ):
                must.add(path)
    return must, may


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(graph_and_cluster())
def test_every_psi_node_search_answers_the_brute_force_filter(data):
    """Node by node of Ψ and Ψr, the search returns its paths sorted and
    without repeats, every path the brute-force filter says it must and
    none it may not — exactly the must-set where no provider is spliced."""
    graph, cluster, max_depth = data
    enum = BatchEnum(graph)
    index = build_index(
        graph,
        [q.s for q in cluster.values()],
        [q.t for q in cluster.values()],
        max(q.k for q in cluster.values()),
    )
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        forward = direction is Direction.FORWARD
        budgets = {
            position: query.forward_budget if forward else query.backward_budget
            for position, query in cluster.items()
        }
        outcome = detect_common_queries(
            graph, cluster, direction, index, budgets, max_depth=max_depth
        )
        psi, cache = outcome.sharing_graph, ResultCache()
        for node in psi.topological_order():
            if not isinstance(node, HCsPathQuery):
                continue
            paths = enum._enumerate_node(node, outcome, cache)
            assert paths == sorted(set(paths))
            must, may = _allowed_paths(graph, outcome, node)
            assert must <= set(paths) <= may
            if not any(isinstance(p, HCsPathQuery) for p in psi.providers_of(node)):
                assert set(paths) == must
            # Never released: every later node finds its providers cached.
            cache.put(node, paths, consumers=len(psi.consumers_of(node)))


@pytest.mark.parametrize("plus", ["", "+"])
@pytest.mark.parametrize("with_family", [False, True])
def test_a_cluster_of_one_runs_the_single_query_search(plus, with_family, monkeypatch):
    """Strangers pay for no sharing machinery: each is answered by the
    search ``basic`` runs — same lists, same order, same sharing stats —
    with its two roots counted and ``detect_common_queries`` never called;
    a family in the same batch is still detected on, once per direction."""
    detected = []

    def counting_detect(graph, queries_by_position, *args, **kwargs):
        detected.append(sorted(queries_by_position))
        return detect_common_queries(graph, queries_by_position, *args, **kwargs)

    monkeypatch.setattr(batch_enum, "detect_common_queries", counting_detect)
    graph, queries = _strangers(with_family)
    batch = BatchQueryEngine(graph, "batch" + plus, num_workers=1).run(queries)
    basic = BatchQueryEngine(graph, "basic" + plus, num_workers=1).run(queries)
    assert batch.paths_by_position == basic.paths_by_position
    assert batch.algorithm == "BatchEnum" + plus
    assert basic.algorithm == "BasicEnum" + plus
    assert set(basic.stage_timer.totals) == {"BuildIndex", "Enumeration"}
    assert sum(batch.counts()) >= 36
    assert_answers(oracle(graph, queries), batch)
    sharing = batch.sharing
    if with_family:
        assert detected == [[0, 1, 2], [0, 1, 2]]
        assert sharing.num_clusters == 37
        assert sharing.num_hc_s_nodes >= 2 * 36 + 2
    else:
        assert detected == []
        assert basic.sharing == sharing == SharingStats(
            num_clusters=36,
            num_hc_s_nodes=72,
            num_shared_nodes=0,
            cache_peak_entries=1,
            cache_reuse_count=0,
        )


def test_admissibility_of_one_pair_is_the_index_row_itself():
    graph = paper_example_graph()
    row = build_index(graph, [0], [11], 5).dense_to(11)
    need, shift = admissibility([(row, -2)])
    assert need is row and shift == -2


class _CountingRow:
    def __init__(self, values):
        self.values, self.reads = values, 0

    def __getitem__(self, vertex):
        self.reads += 1
        return self.values[vertex]


def test_admissibility_of_several_pairs_is_the_minimum_computed_once():
    near = _CountingRow([0, 1, 2, UNREACHABLE])
    far = _CountingRow([3, 2, UNREACHABLE, UNREACHABLE])
    need, shift = admissibility([(near, 1), (far, -2)])
    assert shift == 0
    assert [need[v] for v in (0, 1, 2)] == [1, 0, 3]
    assert [need[v] for v in (0, 1, 2)] == [1, 0, 3]
    assert near.reads == far.reads == 3


@pytest.mark.parametrize("rows", [1, 2])
def test_admissibility_unreachable_prunes_at_every_budget(rows):
    hole = [UNREACHABLE, 1]
    need, shift = admissibility([(hole, -5000 - i) for i in range(rows)])
    for budget in (0, 1, 7, 5000, 10**6):
        assert need[0] > budget - shift
    assert not need[1] > 1 - shift


def test_batch_enum_invalid_gamma():
    graph = paper_example_graph()
    with pytest.raises(ValueError):
        BatchEnum(graph, gamma=2.0)


# --------------------------------------------------------------------- #
# Engine facade
# --------------------------------------------------------------------- #
def test_engine_rejects_unknown_algorithm(paper_graph):
    with pytest.raises(ValueError):
        BatchQueryEngine(paper_graph, algorithm="magic")


def test_engine_empty_batch_returns_empty_result(paper_graph):
    engine = BatchQueryEngine(paper_graph)
    result = engine.run([])
    assert result.queries == []
    assert result.counts() == []
    assert result.total_paths() == 0


def test_engine_rejects_invalid_num_workers(paper_graph):
    with pytest.raises(ValueError):
        BatchQueryEngine(paper_graph, num_workers=0)


def test_engine_exposes_all_algorithms(paper_graph, paper_queries):
    assert set(ALGORITHMS) >= {"pathenum", "basic", "basic+", "batch", "batch+"}


def test_result_lookup_by_query_object(paper_graph, paper_queries):
    result = BatchQueryEngine(paper_graph, algorithm="basic").run(paper_queries)
    assert len(result.paths(paper_queries[0])) == 3
    with pytest.raises(KeyError):
        result.paths(HCSTQuery(0, 15, 3))


def test_result_summary_mentions_algorithm(paper_graph, paper_queries):
    result = BatchQueryEngine(paper_graph, algorithm="batch").run(paper_queries)
    assert "BatchEnum" in result.summary()
