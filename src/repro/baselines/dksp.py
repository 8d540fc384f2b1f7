"""Adapted DkSP baseline (diversified top-k route planning, Luo et al.).

Following the paper's adaptation recipe (Section V, "Algorithms"): the
diversity/similarity constraint is dropped and the algorithm simply keeps
producing the next shortest simple path until the hop constraint is
exceeded, which for unweighted graphs is exactly Yen-style deviation
enumeration in non-decreasing hop order.  Every produced path requires a
fresh constrained shortest-path computation per deviation prefix, which is
why this baseline is dramatically slower than index-pruned enumeration.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.yen import yen_k_shortest_paths
from repro.batch.results import BatchResult, drain, per_query_fragments
from repro.enumeration.paths import Path
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery


def enumerate_paths_dksp(graph: DiGraph, s: int, t: int, k: int) -> List[Path]:
    """All HC-s-t simple paths produced by the adapted DkSP procedure."""
    return list(yen_k_shortest_paths(graph, s, t, max_hops=k))


def run_dksp_baseline(graph: DiGraph, queries: Sequence[HCSTQuery]) -> BatchResult:
    """Process a batch with the adapted DkSP baseline (independently per query)."""
    return drain(
        per_query_fragments(
            queries,
            lambda query: enumerate_paths_dksp(graph, query.s, query.t, query.k),
            "DkSP",
        )
    )
