"""Unit tests for Algorithm 2 (ClusterQuery)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from full_rescan_clustering import cluster_by_full_rescan
from repro.batch.clustering import cluster_by_similarity, cluster_queries
from repro.graph.generators import paper_example_graph, random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery
from repro.queries.similarity import QuerySimilarityMatrix
from repro.queries.workload import QueryWorkload


def _matrix(values):
    return QuerySimilarityMatrix(values=values)


def test_paper_example_clusters_into_two_groups():
    """Fig. 4: with γ = 0.8 the batch splits into {q0, q1, q2} and {q3, q4}."""
    graph = paper_example_graph()
    queries = [
        HCSTQuery(0, 11, 5),
        HCSTQuery(2, 13, 5),
        HCSTQuery(5, 12, 5),
        HCSTQuery(4, 14, 4),
        HCSTQuery(9, 14, 3),
    ]
    workload = QueryWorkload(graph, queries)
    clusters = cluster_queries(workload, gamma=0.8)
    assert sorted(sorted(cluster) for cluster in clusters) == [[0, 1, 2], [3, 4]]


def test_gamma_one_keeps_singletons():
    graph = paper_example_graph()
    queries = [HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)]
    workload = QueryWorkload(graph, queries)
    clusters = cluster_queries(workload, gamma=1.0)
    assert sorted(clusters) == [[0], [1]]


def test_gamma_zero_merges_everything_with_positive_similarity():
    matrix = _matrix([
        [1.0, 0.4, 0.4],
        [0.4, 1.0, 0.4],
        [0.4, 0.4, 1.0],
    ])
    clusters = cluster_by_similarity(matrix, gamma=0.0)
    assert clusters == [[0, 1, 2]]


def test_disjoint_queries_never_merge():
    matrix = _matrix([
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    assert cluster_by_similarity(matrix, gamma=0.0) == [[0], [1]]


def test_merge_order_follows_highest_similarity_first():
    # 0-1 are near identical; 2 is moderately similar to both; 3 is isolated.
    matrix = _matrix([
        [1.0, 0.95, 0.60, 0.0],
        [0.95, 1.0, 0.60, 0.0],
        [0.60, 0.60, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    clusters = cluster_by_similarity(matrix, gamma=0.5)
    assert sorted(sorted(c) for c in clusters) == [[0, 1, 2], [3]]


def test_group_average_linkage_prevents_chaining():
    # 1 is similar to 0 and to 2, but 0 and 2 are dissimilar: with a high
    # threshold the three never collapse into one group.
    matrix = _matrix([
        [1.0, 0.9, 0.0],
        [0.9, 1.0, 0.9],
        [0.0, 0.9, 1.0],
    ])
    clusters = cluster_by_similarity(matrix, gamma=0.6)
    assert len(clusters) == 2


def test_every_query_appears_exactly_once():
    graph = random_directed_gnm(100, 600, seed=4)
    queries = generate_random_queries(graph, 25, min_k=3, max_k=4, seed=2)
    workload = QueryWorkload(graph, queries)
    clusters = cluster_queries(workload, gamma=0.5)
    flattened = sorted(position for cluster in clusters for position in cluster)
    assert flattened == list(range(25))


def test_invalid_gamma_rejected():
    matrix = _matrix([[1.0]])
    with pytest.raises(ValueError):
        cluster_by_similarity(matrix, gamma=1.5)


def test_single_query_single_cluster():
    matrix = _matrix([[1.0]])
    assert cluster_by_similarity(matrix, gamma=0.5) == [[0]]


class _CountedFloat(float):
    """A µ value that counts the group similarities evaluated from it:
    both loops divide a running pair sum by the product of the group sizes."""

    divisions = 0

    def __truediv__(self, other):
        _CountedFloat.divisions += 1
        return float(self) / other

    def __add__(self, other):
        return _CountedFloat(float(self) + other)


@st.composite
def similarity_matrices(draw):
    """Symmetric µ matrices on a coarse grid, so exact ties — and running
    sums that round to either side of one — occur."""
    count = draw(st.integers(min_value=2, max_value=9))
    grid = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    values = [[1.0] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            values[i][j] = values[j][i] = draw(grid)
    return values


@given(
    values=similarity_matrices(),
    gamma=st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_best_partner_clustering_merges_what_the_full_rescan_merges(values, gamma):
    assert cluster_by_similarity(_matrix(values), gamma) == (
        cluster_by_full_rescan(_matrix(values), gamma)
    )


def test_a_merged_group_can_round_past_the_partner_a_row_had_cached():
    """(0.1 + 0.1 + 0.1) / 3 > 0.1 in floats: query 0 ties with 1 and with
    each of 2, 3, 4, but once those three are one group their mean rounds
    above the tie — and above γ — so the rescan merges 0 into them.  A row
    that pointed elsewhere must still weigh the merged group."""
    values = [
        [1.0, 0.1, 0.1, 0.1, 0.1],
        [0.1, 1.0, 0.0, 0.0, 0.0],
        [0.1, 0.0, 1.0, 0.9, 0.8],
        [0.1, 0.0, 0.9, 1.0, 0.8],
        [0.1, 0.0, 0.8, 0.8, 1.0],
    ]
    assert cluster_by_full_rescan(_matrix(values), 0.1) == [[0, 2, 3, 4], [1]]
    assert cluster_by_similarity(_matrix(values), 0.1) == [[0, 2, 3, 4], [1]]


def test_a_chain_of_merges_evaluates_quadratically_many_similarities():
    """64 queries that merge one at a time into a single group: each merge
    re-scans the merged row (no other row pointed at the pair), not every
    pair, so the whole clustering evaluates O(|Q|²) group similarities."""
    count = 64
    values = [[_CountedFloat(1.0)] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            values[i][j] = values[j][i] = _CountedFloat(1.0 - (i + j) / (4.0 * count))
    evaluated = {}
    for cluster in (cluster_by_similarity, cluster_by_full_rescan):
        _CountedFloat.divisions = 0
        assert cluster(_matrix(values), gamma=0.0) == [list(range(count))]
        evaluated[cluster] = _CountedFloat.divisions
    assert evaluated[cluster_by_similarity] <= count * count
    assert evaluated[cluster_by_full_rescan] >= count ** 3 // 8
