"""Adapted OnePass baseline (k-shortest paths with limited overlap,
Chondrogiannis et al.).

OnePass performs a single best-first sweep that expands partial paths in
order of their current length, checking the overlap constraint on the fly.
Adapted to HC-s-t path enumeration per the paper's recipe: the overlap
constraint is ignored and complete s-t paths are emitted in non-decreasing
hop order until the hop constraint is reached.  The sweep has no
distance-to-target pruning — partial paths are abandoned only when they
exceed the hop budget — which is precisely the inefficiency Exp-6
highlights.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.batch.results import BatchResult, drain, per_query_fragments
from repro.enumeration.paths import Path
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.utils.validation import require, require_vertex


def enumerate_paths_onepass(graph: DiGraph, s: int, t: int, k: int) -> List[Path]:
    """All HC-s-t simple paths via a best-first sweep over partial paths."""
    require_vertex(s, graph.num_vertices, "s")
    require_vertex(t, graph.num_vertices, "t")
    require(s != t, "source and target must differ")

    results: List[Path] = []
    # Priority queue of partial simple paths ordered by hop count (then by
    # the path tuple for determinism).
    heap: List[Tuple[int, Path]] = [(0, (s,))]
    while heap:
        hops, partial = heapq.heappop(heap)
        if hops > k:
            break
        tail = partial[-1]
        if tail == t:
            results.append(partial)
            continue
        if hops == k:
            continue
        for neighbor in graph.out_neighbors(tail):
            if neighbor in partial:
                continue
            heapq.heappush(heap, (hops + 1, partial + (neighbor,)))
    return results


def run_onepass_baseline(graph: DiGraph, queries: Sequence[HCSTQuery]) -> BatchResult:
    """Process a batch with the adapted OnePass baseline (independently per query)."""
    return drain(
        per_query_fragments(
            queries,
            lambda query: enumerate_paths_onepass(graph, query.s, query.t, query.k),
            "OnePass",
        )
    )
