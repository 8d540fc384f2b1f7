"""HC-s-t path query similarity (Definitions 4.4-4.6).

The clustering phase needs a similarity measure between queries although a
query is described only by ``(s, t, k)``.  The paper uses the
*hop-constrained neighbourhoods*: ``Γ(q)`` is the set of vertices reachable
within ``k`` hops from ``s`` on ``G`` and ``Γr(q)`` the set of vertices that
can reach ``t`` within ``k`` hops (a ``k``-hop BFS from ``t`` on ``Gr``).
Two queries whose neighbourhoods overlap heavily will explore the same part
of the graph and thus very likely share HC-s path computation.

``query_similarity`` implements Definition 4.5 as the harmonic mean of the
forward and backward overlap ratios::

    ratio_f = |Γ(qA) ∩ Γ(qB)| / min(|Γ(qA)|, |Γ(qB)|)
    ratio_b = |Γr(qA) ∩ Γr(qB)| / min(|Γr(qA)|, |Γr(qB)|)
    µ(qA, qB) = 2 / (1/ratio_f + 1/ratio_b)

with µ = 0 whenever either intersection is empty (the footnote's special
case).  The measure therefore satisfies the three properties stated in the
paper: it lies in [0, 1], equals 1 when one query's results are nested in
the other's, and equals 0 when the neighbourhoods are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.bfs.distance_index import CSRDistanceIndex
from repro.queries.query import HCSTQuery


def neighborhoods(
    query: HCSTQuery, index: CSRDistanceIndex
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Return ``(Γ(q), Γr(q))`` for ``query`` using the batch index.

    The index is built from the same BFS traversals, so — as the paper
    notes — no extra traversal is needed to obtain the neighbourhoods.
    """
    forward = index.forward_neighborhood(query.s, query.k)
    backward = index.backward_neighborhood(query.t, query.k)
    return forward, backward


def query_similarity(
    query_a: HCSTQuery,
    query_b: HCSTQuery,
    index: CSRDistanceIndex,
) -> float:
    """µ(qA, qB) — Definition 4.5."""
    forward_a, backward_a = neighborhoods(query_a, index)
    forward_b, backward_b = neighborhoods(query_b, index)
    return similarity_from_neighborhoods(
        forward_a, backward_a, forward_b, backward_b
    )


def similarity_from_neighborhoods(
    forward_a: FrozenSet[int],
    backward_a: FrozenSet[int],
    forward_b: FrozenSet[int],
    backward_b: FrozenSet[int],
) -> float:
    """µ computed from pre-extracted neighbourhood sets."""
    forward_ratio = _overlap_ratio(forward_a, forward_b)
    backward_ratio = _overlap_ratio(backward_a, backward_b)
    if forward_ratio == 0.0 or backward_ratio == 0.0:
        return 0.0
    return 2.0 / (1.0 / forward_ratio + 1.0 / backward_ratio)


def _overlap_ratio(set_a: FrozenSet[int], set_b: FrozenSet[int]) -> float:
    """``|A ∩ B| / min(|A|, |B|)`` with 0 for empty inputs."""
    if not set_a or not set_b:
        return 0.0
    smaller, larger = (set_a, set_b) if len(set_a) <= len(set_b) else (set_b, set_a)
    intersection = len(smaller & larger)
    if intersection == 0:
        return 0.0
    return intersection / len(smaller)


def group_similarity(
    group_a: Sequence[int],
    group_b: Sequence[int],
    pairwise: "QuerySimilarityMatrix",
) -> float:
    """δ(CA, CB) — Definition 4.6: average pairwise µ across the groups."""
    if not group_a or not group_b:
        return 0.0
    total = 0.0
    for i in group_a:
        for j in group_b:
            total += pairwise.get(i, j)
    return total / (len(group_a) * len(group_b))


@dataclass
class QuerySimilarityMatrix:
    """Dense pairwise µ matrix over a query batch, indexed by position."""

    values: List[List[float]]

    @classmethod
    def from_queries(
        cls, queries: Sequence[HCSTQuery], index: CSRDistanceIndex
    ) -> "QuerySimilarityMatrix":
        """Build the pairwise µ matrix.

        The Γ/Γr sets are encoded as integer bitmasks (one bit per vertex)
        so the intersections run as C-level ``&``/``bit_count``
        operations.  A mask is encoded once per endpoint key — ``(s, k)``
        forward, ``(t, k)`` backward — from the row's BFS levels, so the
        cost follows the neighbourhood sizes, and µ is evaluated once per
        pair of *distinct* queries: a query repeated in the batch takes
        its first occurrence's row and column, and two copies of one query
        get µ = 1.0, the value Definition 4.5 gives them.  This keeps the
        ClusterQuery stage small relative to enumeration, as the paper
        reports (Exp-3), and a burst of repeats as cheap as its distinct
        queries.
        """
        # Keyed by the (s, t, k) tuple, which hashes in C; a dataclass
        # hash is a Python call.
        slot_of: Dict[Tuple[int, int, int], int] = {}
        distinct: List[HCSTQuery] = []
        slots = []
        for q in queries:
            key = (q.s, q.t, q.k)
            if key not in slot_of:
                slot_of[key] = len(distinct)
                distinct.append(q)
            slots.append(slot_of[key])
        forward_masks = {
            key: index.forward_mask(*key) for key in {(q.s, q.k) for q in distinct}
        }
        backward_masks = {
            key: index.backward_mask(*key) for key in {(q.t, q.k) for q in distinct}
        }
        encoded = [
            forward_masks[q.s, q.k] + backward_masks[q.t, q.k] for q in distinct
        ]
        count = len(distinct)
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
        if count < len(slots):
            # Every position reads its distinct query's row and column.
            columns = [[row[slot] for slot in slots] for row in values]
            values = [list(columns[slot]) for slot in slots]
        return cls(values=values)

    def get(self, i: int, j: int) -> float:
        return self.values[i][j]

    @classmethod
    def from_neighborhood_sets(
        cls,
        neighborhood_pairs: Sequence[Tuple[FrozenSet[int], FrozenSet[int]]],
    ) -> "QuerySimilarityMatrix":
        """Build the matrix from explicit (Γ, Γr) pairs (used in tests)."""
        count = len(neighborhood_pairs)
        values = [[0.0] * count for _ in range(count)]
        for i in range(count):
            values[i][i] = 1.0
            for j in range(i + 1, count):
                mu = similarity_from_neighborhoods(
                    neighborhood_pairs[i][0],
                    neighborhood_pairs[i][1],
                    neighborhood_pairs[j][0],
                    neighborhood_pairs[j][1],
                )
                values[i][j] = mu
                values[j][i] = mu
        return cls(values=values)

    def average(self) -> float:
        """Average off-diagonal similarity (µ_Q)."""
        count = len(self.values)
        if count < 2:
            return 0.0
        total = sum(
            self.values[i][j] for i in range(count) for j in range(count) if i != j
        )
        return total / (count * (count - 1))

    def __len__(self) -> int:
        return len(self.values)
