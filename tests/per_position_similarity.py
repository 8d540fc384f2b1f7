"""Reference for the similarity tests: the µ matrix as it stood before
``QuerySimilarityMatrix.from_queries`` evaluated one pair per *distinct*
query — Definition 4.5 evaluated for every pair of batch positions,
repeats included.  Moved here verbatim."""

from __future__ import annotations

from typing import List, Sequence

from repro.bfs.distance_index import CSRDistanceIndex
from repro.queries.query import HCSTQuery


def per_position_values(
    queries: Sequence[HCSTQuery], index: CSRDistanceIndex
) -> List[List[float]]:
    """The pairwise µ matrix of ``queries``, one evaluation per position pair."""
    count = len(queries)
    forward_masks = {
        key: index.forward_mask(*key) for key in {(q.s, q.k) for q in queries}
    }
    backward_masks = {
        key: index.backward_mask(*key) for key in {(q.t, q.k) for q in queries}
    }
    encoded = [
        forward_masks[q.s, q.k] + backward_masks[q.t, q.k] for q in queries
    ]
    values = [[0.0] * count for _ in range(count)]
    for i, row in enumerate(values):
        row[i] = 1.0
        fwd_mask_i, fwd_size_i, bwd_mask_i, bwd_size_i = encoded[i]
        for j in range(i + 1, count):
            fwd_mask_j, fwd_size_j, bwd_mask_j, bwd_size_j = encoded[j]
            # µ as similarity_from_neighborhoods computes it (a shared
            # vertex means neither neighbourhood is empty).
            forward = (fwd_mask_i & fwd_mask_j).bit_count()
            if not forward:
                continue
            backward = (bwd_mask_i & bwd_mask_j).bit_count()
            if not backward:
                continue
            forward_ratio = forward / (
                fwd_size_i if fwd_size_i < fwd_size_j else fwd_size_j
            )
            backward_ratio = backward / (
                bwd_size_i if bwd_size_i < bwd_size_j else bwd_size_j
            )
            row[j] = values[j][i] = 2.0 / (
                1.0 / forward_ratio + 1.0 / backward_ratio
            )
    return values
