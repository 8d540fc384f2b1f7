"""Unit tests for path primitives and the ⊕ join."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.batch import batch_enum
from repro.batch.batch_enum import BatchEnum
from repro.batch.cache import ResultCache
from repro.batch.detection import detect_common_queries
from repro.bfs.distance_index import build_index
from repro.enumeration import join
from repro.enumeration.hc_s_search import search_hc_s_paths
from repro.enumeration.join import JoinProbe, PathJoinPolicy, join_path_sets
from repro.enumeration.kernels import NUMPY_AVAILABLE
from repro.enumeration.path_enum import PathEnum
from repro.enumeration.paths import (
    concatenate,
    is_simple,
    path_length,
    reverse_path,
    sort_paths,
    validate_path,
)
from repro.graph.digraph import DiGraph
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from test_differential import assert_answers, oracle


def test_path_length_and_simplicity():
    assert path_length((0, 1, 2)) == 2
    assert is_simple((0, 1, 2))
    assert not is_simple((0, 1, 0))


def test_concatenate_requires_matching_junction():
    assert concatenate((0, 1), (1, 2, 3)) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        concatenate((0, 1), (2, 3))
    with pytest.raises(ValueError):
        concatenate((), (1,))


def test_reverse_path():
    assert reverse_path((0, 1, 2)) == (2, 1, 0)


def test_validate_path_accepts_valid_and_rejects_invalid():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    validate_path(graph, (0, 1, 2), s=0, t=2, k=2)
    with pytest.raises(AssertionError):
        validate_path(graph, (0, 1, 2), s=0, t=2, k=1)     # too long
    with pytest.raises(AssertionError):
        validate_path(graph, (0, 2), s=0, t=2, k=2)        # missing edge
    with pytest.raises(AssertionError):
        validate_path(graph, (1, 2), s=0, t=2, k=2)        # wrong source


def test_sort_paths_is_canonical():
    paths = [(0, 2, 3), (0, 1), (0, 1, 3)]
    assert sort_paths(paths) == [(0, 1), (0, 1, 3), (0, 2, 3)]


def join_one(forward, backward, target, policy):
    """``join_path_sets`` against a single backward side."""
    (joined,) = join_path_sets(forward, [(backward, target, policy)])
    return joined


def test_join_short_path_uses_forward_complete_case():
    # Path 0 -> 3 of length 1 must come from the forward side only.
    forward = [(0,), (0, 3), (0, 1)]
    backward = [(3,), (3, 1)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=1)
    joined = join_one(forward, backward, target=3, policy=policy)
    assert (0, 3) in joined


def test_join_produces_no_duplicates_for_multi_split_paths():
    # The path 0-1-3 (length 2 <= forward budget) could also be formed by
    # joining prefix (0, 1) with suffix (1, 3); the split rule must emit it
    # exactly once.
    forward = [(0,), (0, 1), (0, 1, 3)]
    backward = [(3,), (3, 1)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=1)
    joined = join_one(forward, backward, target=3, policy=policy)
    assert joined.count((0, 1, 3)) == 1


def test_join_connects_forward_and_backward_halves():
    # forward: 0 -> 1 -> 2 (budget 2); backward from 4 on Gr: 4 <- 3 <- 2.
    forward = [(0, 1, 2)]
    backward = [(4, 3, 2)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    joined = join_one(forward, backward, target=4, policy=policy)
    assert joined == [(0, 1, 2, 3, 4)]


def test_join_rejects_non_simple_combinations():
    forward = [(0, 1, 2)]
    backward = [(4, 1, 2)]  # re-orients to 2 -> 1 -> 4, repeating vertex 1
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    assert join_one(forward, backward, target=4, policy=policy) == []


def test_join_respects_budgets():
    # Forward paths longer than the forward budget must be ignored.
    forward = [(0, 1, 2, 3)]
    backward = [(5, 4, 3)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    assert join_one(forward, backward, target=5, policy=policy) == []


def test_join_policy_hop_constraint():
    assert PathJoinPolicy(3, 2).hop_constraint == 5


def test_join_sides_share_one_forward_budget():
    sides = [([], 3, PathJoinPolicy(2, 1)), ([], 4, PathJoinPolicy(1, 2))]
    with pytest.raises(ValueError, match="forward budget"):
        join_path_sets([], sides)


# ---------------------------------------------------------------------- #
# The probe-table join against the nested loop it replaced
# ---------------------------------------------------------------------- #
def reference_join(forward_paths, backward_paths, target, policy):
    """The scan-everything ⊕ join that ``join_path_sets`` used to be: every
    forward path is visited and every output is tested for simplicity and
    duplication on its own.  Kept as the oracle for content *and* order."""
    results = []
    forward_budget = policy.forward_budget
    backward_budget = policy.backward_budget

    suffix_by_junction = {}
    for backward in backward_paths:
        length = len(backward) - 1
        if length < 1 or length > backward_budget:
            continue
        junction = backward[-1]
        suffix = tuple(reversed(tuple(backward)))
        suffix_by_junction.setdefault(junction, []).append(suffix)

    seen = set()
    for forward in forward_paths:
        forward = tuple(forward)
        length = len(forward) - 1
        if length > forward_budget:
            continue
        if forward[-1] == target:
            if forward not in seen and is_simple(forward) and length >= 1:
                seen.add(forward)
                results.append(forward)
            continue
        if length != forward_budget:
            continue
        junction = forward[-1]
        for suffix in suffix_by_junction.get(junction, ()):
            combined = forward + suffix[1:]
            if combined[-1] != target:
                continue
            if not is_simple(combined):
                continue
            if combined not in seen:
                seen.add(combined)
                results.append(combined)
    return results


@st.composite
def join_inputs(draw):
    """Arbitrary join inputs over five vertices: duplicate, non-simple and
    over-budget paths, backward paths that do not start at the target and
    junctions equal to the target all occur."""
    k = draw(st.integers(min_value=2, max_value=6))
    forward_budget = draw(st.integers(min_value=1, max_value=k - 1))
    vertex = st.integers(min_value=0, max_value=4)
    target = draw(vertex)
    path = st.lists(vertex, min_size=1, max_size=k + 1).map(tuple)
    from_target = path.map(lambda rest: (target,) + rest)
    forward = draw(st.lists(path, max_size=16))
    backward = draw(st.lists(st.one_of(from_target, path), max_size=16))
    return forward, backward, target, PathJoinPolicy(forward_budget, k - forward_budget)


@given(join_inputs(), join_inputs())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_join_equals_the_nested_loop_on_arbitrary_inputs(inputs, other):
    forward, backward, target, policy = inputs
    expected = reference_join(forward, backward, target, policy)
    assert join_one(forward, backward, target, policy) == expected
    assert join_one(iter(forward), iter(backward), target, policy) == expected
    # Several sides against one forward side: each is joined on its own.
    _, other_backward, other_target, other_policy = other
    other_policy = PathJoinPolicy(policy.forward_budget, other_policy.backward_budget)
    sides = [
        (backward, target, policy),
        (other_backward, other_target, other_policy),
        (backward, target, policy),
    ]
    assert join_path_sets(forward, sides) == [
        expected,
        reference_join(forward, other_backward, other_target, other_policy),
        expected,
    ]


def _fan_out(source, k=5):
    """One query from ``source`` to every other vertex of the Fig. 1 graph."""
    return [HCSTQuery(source, t, k) for t in range(16) if t != source]


def _every_simple_path(adjacency, root, budget):
    """The plain search with no step pruned and every path kept: all simple
    paths leaving ``root`` within ``budget`` hops, in lexicographic order —
    a superset of any pruned search from ``root``, in the same order."""
    every_step_admissible = [([0] * len(adjacency), -len(adjacency))]
    return search_hc_s_paths(
        adjacency, root, budget, every_step_admissible, (), True, True
    )


def test_shared_root_joins_equal_the_nested_loop(paper_graph, monkeypatch):
    """γ = 0 puts the fan-out in one cluster, where all fifteen targets are
    served by the single forward root q[0, 3, G]: one search feeds the
    probe of all fifteen, and each list equals the nested loop over every
    simple path leaving the source (what the search prunes joins nothing)."""
    joins = []
    adjacency = paper_graph.csr_snapshot().adjacency_lists(True)

    def checked_join(forward, sides):
        assert callable(forward)
        lists = join_path_sets(forward, sides)
        for (backward, target, policy), joined in zip(sides, lists):
            everything = _every_simple_path(adjacency, 0, policy.forward_budget)
            assert joined == reference_join(everything, backward, target, policy)
            joins.append((target, len(joined)))
        return lists

    monkeypatch.setattr(batch_enum, "join_path_sets", checked_join)
    result = BatchEnum(paper_graph, gamma=0.0).run(_fan_out(0))
    assert len({target for target, _ in joins}) == len(joins) == 15
    assert sum(1 for _, emitted in joins if emitted) >= 3
    assert sum(emitted for _, emitted in joins) == result.total_paths() == 21


class CountingProbe(JoinProbe):
    built = 0

    def __init__(self, backward_sides):
        type(self).built += 1
        super().__init__(backward_sides)


def test_shared_root_is_indexed_once_and_joined_once_per_target(
    paper_graph, monkeypatch
):
    """One probe table and one ``join_path_sets`` call for the shared root,
    with one backward side per distinct target."""
    joins = []

    def counted_join(forward, sides):
        joins.append(sides)
        return join_path_sets(forward, sides)

    monkeypatch.setattr(CountingProbe, "built", 0)
    monkeypatch.setattr(join, "JoinProbe", CountingProbe)
    monkeypatch.setattr(batch_enum, "join_path_sets", counted_join)
    queries = _fan_out(0)
    # A repeated query shares its first occurrence's side and result list.
    result = BatchEnum(paper_graph, gamma=0.0).run(queries + queries[:4])
    assert CountingProbe.built == len(joins) == 1
    assert sorted(target for _, target, _ in joins[0]) == [q.t for q in queries]
    for repeat in range(4):
        assert result.paths_by_position[15 + repeat] == result.paths_by_position[repeat]


class CountingPath(tuple):
    """A path that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        type(self).hashed += 1
        return super().__hash__()


def test_probe_reads_only_the_paths_filed_under_its_junctions(monkeypatch):
    monkeypatch.setattr(CountingPath, "hashed", 0)
    forward = [CountingPath(p) for p in [(0, 1, 2), (0, 1, 3), (0, 4, 2), (0, 4, 5)]]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)

    # Junctions 6 and 7 end no forward path, and none reaches the target:
    # a table whose junctions match nothing appends nothing, unread.
    assert join_one(forward, [(9,), (9, 6), (9, 8, 7)], 9, policy) == []
    assert CountingPath.hashed == 0

    # Junction 2 ends two of the four; the other two stay unread.
    joined = join_one(forward, [(9, 2), (9, 8, 2)], 9, policy)
    assert joined == [(0, 1, 2, 9), (0, 1, 2, 8, 9), (0, 4, 2, 9), (0, 4, 2, 8, 9)]
    assert CountingPath.hashed == 2 * 2  # looked up, then filed as offered


# ---------------------------------------------------------------------- #
# The search feeding the probe: differential, Ψ shapes, corrupted feeds
# ---------------------------------------------------------------------- #
@st.composite
def small_graph_and_batch(draw):
    """A dense digraph on at most 8 vertices and 2-6 queries from few
    endpoints: exact duplicates, one (s, forward budget) under several k,
    and k = 1 and k = 2 all occur."""
    num_vertices = draw(st.integers(min_value=4, max_value=8))
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
    query = st.builds(
        HCSTQuery,
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=num_vertices - 2, max_value=num_vertices - 1),
        st.integers(min_value=1, max_value=6),
    )
    queries = draw(st.lists(query, min_size=2, max_size=5))
    queries.append(draw(st.sampled_from(queries)))  # an exact duplicate
    gamma = draw(st.sampled_from([0.0, 0.5]))
    return graph, queries, gamma


def _plain_roots(enum, graph, cluster):
    """Per position, the ``(forward, backward)`` root results of the plain
    search — no probe, every node cached and never released."""
    index = build_index(
        graph,
        [q.s for q in cluster.values()],
        [q.t for q in cluster.values()],
        max(q.k for q in cluster.values()),
    )
    roots = {}
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        forward = direction is Direction.FORWARD
        budgets = {
            position: query.forward_budget if forward else query.backward_budget
            for position, query in cluster.items()
        }
        outcome = detect_common_queries(
            graph, cluster, direction, index, budgets,
            max_depth=enum.max_detection_depth,
        )
        psi, cache = outcome.sharing_graph, ResultCache()
        for node in psi.topological_order():
            if isinstance(node, HCsPathQuery):
                paths = enum._enumerate_node(node, outcome, cache, "python")
                cache.put(node, paths, consumers=len(psi.consumers_of(node)))
        for position, root in outcome.root_by_position.items():
            roots.setdefault(position, []).append(cache.peek(root))
    return roots


@given(small_graph_and_batch())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probe_fed_by_the_search_equals_the_nested_loop(data):
    """Per position and in order: the Python search reading the probe
    inline == the numpy twin offered path by path == the nested loop over
    the plain search output; all equal brute force as a set."""
    graph, queries, gamma = data
    python_result = BatchEnum(graph, gamma=gamma, kernel="python").run(queries)
    if NUMPY_AVAILABLE:
        numpy_result = BatchEnum(graph, gamma=gamma, kernel="numpy").run(queries)
        assert numpy_result.paths_by_position == python_result.paths_by_position
        assert numpy_result.sharing == python_result.sharing

    enum = BatchEnum(graph, gamma=0.0)
    roots = _plain_roots(enum, graph, dict(enumerate(queries)))
    one_cluster = enum.run(queries)
    for position, query in enumerate(queries):
        forward, backward = roots[position]
        policy = PathJoinPolicy(query.forward_budget, query.backward_budget)
        expected = reference_join(forward, backward, query.t, policy)
        assert one_cluster.paths_by_position[position] == expected
        if gamma == 0.0:
            assert python_result.paths_by_position[position] == expected
        single = PathEnum(graph)
        assert single.enumerate(query) == reference_join(
            single._search(query, single._index_for(query), True, policy.forward_budget),
            single._search(query, single._index_for(query), False, policy.backward_budget),
            query.t,
            policy,
        )
    brute = oracle(graph, queries)
    assert_answers(brute, one_cluster, "the nested loop")
    assert_answers(brute, python_result, "the probe")


def _layered_graph():
    """Sources 1 -> 0, both fanning into a middle layer that reaches the
    targets 8 and 9: q[0, 3, G] is a forward root *and* the provider that
    the forward root q[1, 3, G] splices when it steps onto vertex 0."""
    edges = [(1, 0), (1, 2)]
    edges += [(0, v) for v in (2, 3, 4)]
    edges += [(u, v) for u in (2, 3, 4) for v in (5, 6, 7)]
    edges += [(u, v) for u in (5, 6, 7) for v in (8, 9)]
    edges += [(3, 8), (8, 9), (6, 2)]
    return DiGraph.from_edges(edges)


def test_forward_root_that_is_a_provider_and_one_that_splices_it(monkeypatch):
    graph = _layered_graph()
    queries = [HCSTQuery(0, 8, 5), HCSTQuery(0, 9, 5), HCSTQuery(1, 9, 6), HCSTQuery(1, 8, 6)]
    provider = HCsPathQuery(0, 3, Direction.FORWARD)
    splicer = HCsPathQuery(1, 3, Direction.FORWARD)

    puts, outcomes = {}, []
    put, materialize = ResultCache.put, BatchEnum._materialize

    def recording_put(self, node, paths, consumers):
        puts[node] = (list(paths), consumers)
        return put(self, node, paths, consumers)

    def recording_materialize(self, outcome, *args):
        outcomes.append(outcome)
        return materialize(self, outcome, *args)

    monkeypatch.setattr(ResultCache, "put", recording_put)
    monkeypatch.setattr(BatchEnum, "_materialize", recording_materialize)
    enum = BatchEnum(graph, gamma=0.0)
    result = enum.run(queries)
    monkeypatch.undo()

    # The shape: one root feeds the other, which really splices it.
    psi = next(o for o in outcomes if o.direction is Direction.FORWARD).sharing_graph
    assert splicer in psi.consumers_of(provider)
    assert result.sharing.cache_reuse_count >= 1

    # The provider root is cached for its one splicer with the list the
    # plain search returns (every path, not just join candidates); the
    # join-only root is searched, joined and never stored.
    roots = _plain_roots(enum, graph, dict(enumerate(queries)))
    assert puts[provider] == (list(roots[0][0]), 1)
    assert splicer not in puts
    assert len(puts[provider][0]) > sum(len(p) == 4 for p in puts[provider][0]) > 0

    spliced = 0
    for position, query in enumerate(queries):
        forward, backward = roots[position]
        policy = PathJoinPolicy(query.forward_budget, query.backward_budget)
        expected = reference_join(forward, backward, query.t, policy)
        assert result.paths_by_position[position] == expected
        spliced += sum(path[:2] == (1, 0) for path in expected)
    assert spliced > 0  # full-length paths through the splice were joined
    assert_answers(oracle(graph, queries), result)


def _search_into_probe(adjacency, budget, backward, target):
    """Run the forward search from vertex 0 over raw ``adjacency`` rows
    with every step admissible, joined against one backward side."""
    every_step_admissible = [([0] * len(adjacency), -len(adjacency))]

    def search(probe):
        return search_hc_s_paths(
            adjacency, 0, budget, every_step_admissible, (), False, True, probe=probe
        )

    return join_one(search, backward, target, PathJoinPolicy(budget, 1))


def test_corrupted_feed_raises_instead_of_emitting_a_wrong_path():
    backward = [(4,), (4, 3)]
    clean = [[1, 2], [3, 4], [3], [], []]
    assert _search_into_probe(clean, 2, backward, 4) == [(0, 1, 3, 4), (0, 1, 4), (0, 2, 3, 4)]

    # A last-hop row that repeats a neighbour would emit (0, 1, 3, 4) twice.
    with pytest.raises(ValueError, match="repeated"):
        _search_into_probe([[1, 2], [3, 3, 4], [3], [], []], 2, backward, 4)
    # An inner row that repeats a neighbour hands the prefix (0, 1) in twice.
    with pytest.raises(ValueError, match="repeated or not simple"):
        _search_into_probe([[1, 1, 2], [3, 4], [3], [], []], 2, backward, 4)
    # So does a row that does not ascend: prefixes must sort strictly.
    with pytest.raises(ValueError, match="repeated or not simple"):
        _search_into_probe([[2, 1], [3, 4], [3], [], []], 2, backward, 4)
