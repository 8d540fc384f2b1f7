"""Reference for the ClusterQuery tests: the agglomerative loop as it stood
before ``cluster_by_similarity`` kept a best partner per group — every
active pair re-scanned after every merge, O(|Q|³).  Moved here verbatim."""

from __future__ import annotations

from typing import List

from repro.queries.similarity import QuerySimilarityMatrix
from repro.utils.validation import require


def cluster_by_full_rescan(
    matrix: QuerySimilarityMatrix, gamma: float
) -> List[List[int]]:
    """Agglomerative clustering of query positions given a pairwise µ matrix."""
    require(0.0 <= gamma <= 1.0, "gamma must be within [0, 1]")
    count = len(matrix)
    clusters: List[List[int]] = [[position] for position in range(count)]
    if count <= 1:
        return clusters

    # Group similarity δ(CA, CB) is the mean pairwise µ, which can be kept
    # as a running sum: sum(CA, CB) / (|CA| * |CB|).  Merging two clusters
    # only requires adding their sums against every other cluster.
    pair_sums: List[List[float]] = [[0.0] * count for _ in range(count)]
    for i in range(count):
        for j in range(count):
            if i != j:
                pair_sums[i][j] = matrix.get(i, j)

    active = list(range(count))
    while len(active) > 1:
        best_pair = None
        best_similarity = 0.0
        for index_a in range(len(active)):
            a = active[index_a]
            for index_b in range(index_a + 1, len(active)):
                b = active[index_b]
                denominator = len(clusters[a]) * len(clusters[b])
                similarity = pair_sums[a][b] / denominator
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_pair = (a, b)
        if best_pair is None or best_similarity <= gamma:
            break
        a, b = best_pair
        clusters[a].extend(clusters[b])
        clusters[b] = []
        for other in active:
            if other in (a, b):
                continue
            pair_sums[a][other] += pair_sums[b][other]
            pair_sums[other][a] += pair_sums[other][b]
        active.remove(b)

    return [sorted(cluster) for cluster in clusters if cluster]
