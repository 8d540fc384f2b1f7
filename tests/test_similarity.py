"""Unit tests for the query similarity measures (Definitions 4.4-4.6)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from full_rescan_clustering import cluster_by_full_rescan
from per_position_similarity import per_position_values
from repro.batch.clustering import cluster_by_similarity, cluster_queries
from repro.bfs.distance_index import NARROW_MAX_HOPS, build_index
from repro.graph.generators import paper_example_graph, random_directed_gnm
from repro.queries.query import HCSTQuery
from repro.queries.similarity import (
    QuerySimilarityMatrix,
    group_similarity,
    neighborhoods,
    query_similarity,
    similarity_from_neighborhoods,
)
from repro.queries.workload import QueryWorkload
from test_differential import GAMMAS, SETTINGS, workloads


def _paper_index(queries):
    return QueryWorkload(paper_example_graph(), queries).index


def test_similarity_is_symmetric_and_bounded():
    graph = random_directed_gnm(50, 300, seed=3)
    queries = [HCSTQuery(0, 10, 3), HCSTQuery(1, 11, 4), HCSTQuery(2, 12, 3)]
    index = QueryWorkload(graph, queries).index
    for a in queries:
        for b in queries:
            mu_ab = query_similarity(a, b, index)
            mu_ba = query_similarity(b, a, index)
            assert mu_ab == pytest.approx(mu_ba)
            assert 0.0 <= mu_ab <= 1.0


def test_identical_queries_have_similarity_one():
    queries = [HCSTQuery(0, 11, 5), HCSTQuery(0, 11, 5)]
    index = _paper_index(queries)
    assert query_similarity(queries[0], queries[1], index) == pytest.approx(1.0)


def test_disjoint_neighborhoods_have_similarity_zero():
    forward_a, backward_a = frozenset({1, 2}), frozenset({3})
    forward_b, backward_b = frozenset({7, 8}), frozenset({9})
    assert similarity_from_neighborhoods(forward_a, backward_a, forward_b, backward_b) == 0.0


def test_one_sided_overlap_is_zero():
    """The footnote of Definition 4.5: any empty intersection zeroes µ."""
    forward_a, backward_a = frozenset({1, 2}), frozenset({3})
    forward_b, backward_b = frozenset({1, 2}), frozenset({9})
    assert similarity_from_neighborhoods(forward_a, backward_a, forward_b, backward_b) == 0.0


def test_paper_example_q3_q4_similarity_is_one():
    """Example 4.1: µ(q3, q4) = 1."""
    q3 = HCSTQuery(4, 14, 4)
    q4 = HCSTQuery(9, 14, 3)
    index = _paper_index([q3, q4])
    assert query_similarity(q3, q4, index) == pytest.approx(1.0)


def test_paper_example_q0_q1_similarity():
    """Example 4.1 / Fig. 4: µ(q0, q1) ≈ 0.93."""
    q0 = HCSTQuery(0, 11, 5)
    q1 = HCSTQuery(2, 13, 5)
    index = _paper_index([q0, q1])
    assert query_similarity(q0, q1, index) == pytest.approx(0.93, abs=0.02)


def test_paper_example_neighborhoods_match_example_4_1():
    q3 = HCSTQuery(4, 14, 4)
    index = _paper_index([q3])
    forward, backward = neighborhoods(q3, index)
    assert forward == frozenset({4, 9, 3, 8, 15, 6, 11, 13, 14})
    assert backward == frozenset({14, 6, 3, 15, 9, 4})


def test_matrix_matches_pairwise_function():
    graph = random_directed_gnm(40, 240, seed=5)
    queries = [HCSTQuery(0, 8, 3), HCSTQuery(1, 9, 3), HCSTQuery(0, 9, 4)]
    index = QueryWorkload(graph, queries).index
    matrix = QuerySimilarityMatrix.from_queries(queries, index)
    for i, a in enumerate(queries):
        assert matrix.get(i, i) == 1.0
        for j, b in enumerate(queries):
            if i != j:
                assert matrix.get(i, j) == pytest.approx(
                    query_similarity(a, b, index), abs=1e-9
                )


def test_group_similarity_average():
    pairs = [
        (frozenset({1, 2}), frozenset({3, 4})),
        (frozenset({1, 2}), frozenset({3, 4})),
        (frozenset({9}), frozenset({10})),
    ]
    matrix = QuerySimilarityMatrix.from_neighborhood_sets(pairs)
    # Queries 0 and 1 are identical; query 2 is disjoint from both.
    assert group_similarity([0], [1], matrix) == pytest.approx(1.0)
    assert group_similarity([0, 1], [2], matrix) == pytest.approx(0.0)


def test_workload_similarity_single_query_is_zero():
    graph = random_directed_gnm(20, 80, seed=1)
    queries = [HCSTQuery(0, 5, 3)]
    index = QueryWorkload(graph, queries).index
    assert QuerySimilarityMatrix.from_queries(queries, index).average() == 0.0


@given(workloads(), st.sampled_from(GAMMAS))
@SETTINGS
def test_the_mask_matrix_is_the_neighbourhood_set_matrix(data, gamma):
    """µ from the index's bitmasks — a one-byte row's ``translate``, a wide
    row's levels — equals µ from the explicit Γ/Γr sets, and ClusterQuery
    on it merges what the full-rescan reference merges."""
    graph, queries = data
    sources, targets = [q.s for q in queries], [q.t for q in queries]
    deepest = max(q.k for q in queries)
    for max_hops in (deepest, NARROW_MAX_HOPS + 1):
        index = build_index(graph, sources, targets, max_hops)
        matrix = QuerySimilarityMatrix.from_queries(queries, index)
        by_sets = QuerySimilarityMatrix.from_neighborhood_sets(
            [neighborhoods(q, index) for q in queries]
        )
        assert matrix.values == by_sets.values
        workload = QueryWorkload(graph, queries, index=index)
        assert cluster_queries(workload, gamma) == cluster_by_full_rescan(
            matrix, gamma
        )


@given(workloads(), st.sampled_from(GAMMAS), st.integers(0, 2**16))
@SETTINGS
def test_repeats_cost_nothing_and_change_nothing(data, gamma, seed):
    """With every query repeated up to three times and the batch shuffled,
    the matrix built once per distinct query equals the per-position
    evaluation float for float, and ClusterQuery returns the lists the
    per-position matrix gives."""
    graph, queries = data
    rng = random.Random(seed)
    batch = [q for q in queries for _ in range(rng.randint(1, 3))]
    rng.shuffle(batch)
    index = QueryWorkload(graph, batch).index
    matrix = QuerySimilarityMatrix.from_queries(batch, index)
    reference = per_position_values(batch, index)
    assert matrix.values == reference
    # Rows are the caller's: no two positions share one list.
    assert len({id(row) for row in matrix.values}) == len(batch)
    assert cluster_queries(QueryWorkload(graph, batch, index=index), gamma) == (
        cluster_by_similarity(QuerySimilarityMatrix(reference), gamma)
    )


def test_identical_queries_in_one_batch_read_one():
    queries = [HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5), HCSTQuery(0, 11, 5)]
    index = _paper_index(queries)
    matrix = QuerySimilarityMatrix.from_queries(queries, index)
    assert matrix.get(0, 2) == matrix.get(2, 0) == 1.0
    assert matrix.values[0] == matrix.values[2]
    assert matrix.get(0, 1) == matrix.get(2, 1) == pytest.approx(0.93, abs=0.02)
