"""Algorithm 2 — ``ClusterQuery``: hierarchical query clustering.

Queries are grouped so that queries likely to share a large amount of
computation end up in the same group; the detection phase then only looks
for common HC-s path queries *within* a group.  The procedure is standard
agglomerative (hierarchical) clustering with group-average linkage over the
pairwise query similarity µ of Definition 4.5, stopping when no two groups
have similarity above the threshold γ.

Each merge joins the most similar pair of groups; among equally similar
pairs the first in scan order — lowest first group, then lowest second —
wins.  Every group caches its best *later* partner, so a merge re-scans
only the rows that pointed at one of the merged groups (Müllner 2011's
row-best form of the greedy procedure): O(|Q|²) similarity evaluations for
the whole clustering while merges leave the other rows' choices alone,
O(|Q|³) — what re-scanning every pair after every merge always costs — only
if every row keeps pointing at the pair being merged.  The merge sequence
is that of the full re-scan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.queries.similarity import QuerySimilarityMatrix
from repro.queries.workload import QueryWorkload
from repro.utils.validation import require


def cluster_queries(workload: QueryWorkload, gamma: float) -> List[List[int]]:
    """Cluster the workload's queries; returns lists of batch positions.

    ``gamma`` is the merge threshold: two groups are merged only while the
    most similar pair of groups has group similarity strictly greater than
    ``gamma`` (Algorithm 2, line 8).
    """
    require(0.0 <= gamma <= 1.0, "gamma must be within [0, 1]")
    matrix = workload.similarity_matrix
    return cluster_by_similarity(matrix, gamma)


def cluster_by_similarity(
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
    pair_sums: List[List[float]] = [list(row) for row in matrix.values]

    def best_later(a: int, later: Sequence[int]) -> Tuple[float, Optional[int]]:
        """The first of ``later`` most similar to ``a`` (above zero)."""
        best_similarity, best = 0.0, None
        sums, size = pair_sums[a], len(clusters[a])
        for b in later:
            similarity = sums[b] / (size * len(clusters[b]))
            if similarity > best_similarity:
                best_similarity, best = similarity, b
        return best_similarity, best

    active = list(range(count))  # ascending throughout
    best = [best_later(a, active[a + 1:]) for a in active]
    while len(active) > 1:
        best_similarity, a = 0.0, None
        for x in active:
            if best[x][0] > best_similarity:
                best_similarity, a = best[x][0], x
        if a is None or best_similarity <= gamma:
            break
        b = best[a][1]
        clusters[a].extend(clusters[b])
        clusters[b] = []
        for other in active:
            if other in (a, b):
                continue
            pair_sums[a][other] += pair_sums[b][other]
            pair_sums[other][a] += pair_sums[other][b]
        active.remove(b)
        # Rows past b never looked at a or b; a row before a that pointed
        # elsewhere only has to weigh the merged group against its choice.
        for i, x in enumerate(active):
            if x > b:
                break
            similarity, partner = best[x]
            if x == a or partner == a or partner == b:
                best[x] = best_later(x, active[i + 1:])
            elif x < a:
                merged = pair_sums[x][a] / (len(clusters[x]) * len(clusters[a]))
                if merged > similarity or (
                    merged == similarity and partner is not None and a < partner
                ):
                    best[x] = merged, a

    return [sorted(cluster) for cluster in clusters if cluster]
