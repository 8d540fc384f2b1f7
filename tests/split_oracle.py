"""Reference for the search-order tests: the exact work of a budget split.

For a group of queries sharing one hop constraint ``k``, the root searches
of a forward budget ``f`` are one forward search per distinct source (budget
``f``) and one backward search per distinct target (budget ``k - f``), each
serving the queries of its root.  This module walks every one of them by DFS
under Lemma 3.1 — a step onto ``v`` after ``i`` hops is admissible iff it is
simple and ``i + dist(v, other endpoint) <= k`` for some served query — and
counts what the search executes: one neighbour scan per neighbour of every
admissible prefix shorter than the budget, and, on the backward side, every
admissible prefix it keeps for the join, weighted by ``alpha``.  Splicing is
left out: every root is searched in full."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bfs.single_source import bfs_distances
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery


def _root_work(
    graph: DiGraph, root: int, forward: bool, rows: List[Dict[int, int]], k: int
) -> Tuple[List[int], List[int]]:
    """``(scans[i], prefixes[i])`` for ``i = 0..k-1``: neighbour scans made
    from, and the number of, the admissible prefixes of ``i`` hops."""
    neighbors = graph.out_neighbors if forward else graph.in_neighbors
    scans, prefixes = [0] * k, [0] * k
    on_path = {root}

    def walk(vertex: int, hops: int) -> None:
        prefixes[hops] += 1
        if hops == k - 1:
            return
        scans[hops] += len(neighbors(vertex))
        for neighbor in neighbors(vertex):
            if neighbor in on_path or not any(
                hops + 1 + row.get(neighbor, k + 1) <= k for row in rows
            ):
                continue
            on_path.add(neighbor)
            walk(neighbor, hops + 1)
            on_path.remove(neighbor)

    walk(root, 0)
    return scans, prefixes


def exact_split_costs(
    graph: DiGraph, queries: Sequence[HCSTQuery], alpha: float
) -> Dict[int, float]:
    """``{forward budget: exact cost}`` of every split of ``1..k-1`` for a
    group of queries of one hop constraint ``k``."""
    (k,) = {query.k for query in queries}
    to_target = {q.t: bfs_distances(graph, q.t, k, forward=False) for q in queries}
    from_source = {q.s: bfs_distances(graph, q.s, k) for q in queries}
    forward_work = [
        _root_work(graph, s, True, [to_target[q.t] for q in queries if q.s == s], k)
        for s in from_source
    ]
    backward_work = [
        _root_work(graph, t, False, [from_source[q.s] for q in queries if q.t == t], k)
        for t in to_target
    ]
    costs = {}
    for f in range(1, k):
        b = k - f
        cost = sum(sum(scans[:f]) for scans, _ in forward_work)
        for scans, prefixes in backward_work:
            cost += sum(scans[:b]) + alpha * sum(prefixes[1 : b + 1])
        costs[f] = cost
    return costs
