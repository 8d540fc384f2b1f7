"""Search-order optimisation for the "+" algorithm variants.

PathEnum's optimised variant splits each query's hop budget ``k`` between
the forward search on ``G`` and the backward search on ``Gr`` where the two
do the least work; the paper's ``BasicEnum+`` and ``BatchEnum+`` inherit
this optimisation (Section V, "Algorithms").  Any split is *correct* (the
join policy adapts), so this module only affects performance — and the
order of paths within a query's list, which follows the split.

The model prices a side by the work its search does, from the BFS levels
the distance index already holds (one O(k) pass per endpoint row).  For a
side whose own level sizes are ``L`` and whose other endpoint's are ``M``,
with ``d̄ = |E|/|V|`` of the sealed snapshot:

* branching ``b_i = max(|L_i| / |L_{i-1}|, d̄)`` — once the frontier has
  covered its region the BFS stops growing, but simple paths keep
  branching about ``d̄``-fold per hop;
* admissible prefixes ``P_0 = 1``, ``P_i = P_{i-1} · b_i · R(k-i) / R(k)``
  with ``R(r) = Σ_{j<=r} |M_j|``: the share of the other endpoint's k-hop
  region that Lemma 3.1 still admits after ``i`` hops;
* a forward budget ``f`` costs its neighbour scans ``Σ_{i<=f} P_{i-1}·b_i``
  (the last hop is joined inline, nothing is stored);
* a backward budget ``b`` costs the same scans plus
  α · ``Σ_{i<=b} P_i``: every backward prefix is materialised, reversed
  and filed into the ``JoinProbe``.  α (:data:`BACKWARD_PREFIX_WEIGHT`,
  15) is the measured cost of a stored prefix in neighbour scans; any α
  in about 7–58 picks the measured-best split on both planted benchmark
  workloads.

A query whose target lies beyond ``k`` hops admits no prefix and costs
nothing on either side.

:func:`choose_budget_split` prices the *roots* a group of queries will
search, not the queries: per hop constraint, a candidate split costs the
sum over distinct sources plus the sum over distinct targets, each root
taking the most expensive of its queries.  Only distinct queries are
priced — a query repeated in the batch costs its root nothing more — so a
burst of repeats pays for the split what its distinct queries pay.
``BatchEnum+`` calls it once per cluster (queries of one ``k`` share one
split, so identical roots stay shared); ``PathEnum`` — ``basic+`` and a
cluster of one — calls it with its one query.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.bfs.distance_index import CSRDistanceIndex
from repro.queries.query import HCSTQuery

#: Seconds per stored backward prefix ÷ seconds per neighbour scan: timed
#: single-query searches on the ``deep_paths`` and ``shared_hot`` graphs
#: of ``benchmarks/perf`` read 2.1–2.5 µs per prefix (search, reversal and
#: filing into the probe) against 140–156 ns per scan, a ratio of 14–17
#: (2 cores, Python 3.11.7).  Both workloads pick their measured-best split
#: for any weight in about 7–58.
BACKWARD_PREFIX_WEIGHT = 15.0


def mean_degree_of(graph) -> float:
    """``|E| / |V|`` of ``graph``'s sealed snapshot — the model's ``d̄``."""
    snapshot = graph.csr_snapshot()
    return snapshot.num_edges / max(1, snapshot.num_vertices)


def _side_work(
    own: Sequence[int],
    other: Sequence[int],
    k: int,
    hops: int,
    mean_degree: float,
) -> Tuple[List[float], List[float]]:
    """Modelled ``(neighbour scans, stored prefixes)`` of one side, summed
    up to every budget ``0..hops``: ``own`` and ``other`` are the level
    sizes (to depth ``k``) of the side's root and of the query's other
    endpoint."""
    region = list(accumulate(other[: k + 1]))
    whole = region[k]
    scans, prefixes = [0.0], [0.0]
    paths = 1.0
    for depth in range(1, hops + 1):
        branching = max(own[depth] / max(own[depth - 1], 1), mean_degree)
        scans.append(scans[-1] + paths * branching)
        paths *= branching * region[k - depth] / whole
        prefixes.append(prefixes[-1] + paths)
    return scans, prefixes


def _candidates(k: int) -> List[int]:
    """Forward budgets tried for hop constraint ``k``: the balanced
    ``⌈k/2⌉`` first, then its neighbours that leave both sides a hop."""
    balanced = (k + 1) // 2
    return [balanced] + [f for f in (balanced - 1, balanced + 1) if 1 <= f < k]


def _query_costs(
    query: HCSTQuery, index: CSRDistanceIndex, degree: float, candidates: List[int]
) -> Tuple[List[float], List[float]]:
    """``(forward costs, backward costs)`` of ``query``, one per candidate."""
    k = query.k
    if index.dense_from(query.s)[query.t] > k:
        zero = [0.0] * len(candidates)
        return zero, zero
    from_s = index.forward_level_sizes(query.s, k)
    to_t = index.backward_level_sizes(query.t, k)
    forward_scans, _ = _side_work(from_s, to_t, k, max(candidates), degree)
    backward_scans, stored = _side_work(to_t, from_s, k, k - min(candidates), degree)
    return (
        [forward_scans[f] for f in candidates],
        [
            backward_scans[k - f] + BACKWARD_PREFIX_WEIGHT * stored[k - f]
            for f in candidates
        ],
    )


def _cheapest(candidates: List[int], costs: List[float]) -> int:
    """The candidate of least cost; an exact tie keeps the earlier one, so
    the balanced split (first) wins every tie it is part of."""
    best = 0
    for i in range(1, len(candidates)):
        if costs[i] < costs[best]:
            best = i
    return candidates[best]


def choose_budget_split(
    queries: Sequence[HCSTQuery], index: CSRDistanceIndex, mean_degree: float
) -> Dict[int, int]:
    """``{k: forward budget}`` for the hop constraints of ``queries``.

    Each split is priced over the roots the queries of that ``k`` search:
    the sum over distinct sources of their forward costs plus the sum over
    distinct targets of their backward costs, each root taking the maximum
    over its queries.  Each distinct query is priced once: its copies cost
    what it costs, so they cannot raise a root's maximum.  Exact ties fall
    back to the paper's default ``(⌈k/2⌉, ⌊k/2⌋)``.
    """
    by_k: Dict[int, List[HCSTQuery]] = {}
    # Keyed by (s, t, k), which hashes in C; a dataclass hash is a Python call.
    distinct = {(query.s, query.t, query.k): query for query in queries}
    for query in distinct.values():
        by_k.setdefault(query.k, []).append(query)
    chosen: Dict[int, int] = {}
    for k, group in by_k.items():
        candidates = _candidates(k)
        # Root -> per-candidate cost of its most expensive query.
        sources: Dict[int, List[float]] = {}
        targets: Dict[int, List[float]] = {}
        for query in group:
            forward, backward = _query_costs(query, index, mean_degree, candidates)
            for roots, root, costs in (
                (sources, query.s, forward), (targets, query.t, backward)
            ):
                held = roots.get(root)
                roots[root] = costs if held is None else list(map(max, held, costs))
        totals = [
            sum(costs[i] for costs in sources.values())
            + sum(costs[i] for costs in targets.values())
            for i in range(len(candidates))
        ]
        chosen[k] = _cheapest(candidates, totals)
    return chosen
