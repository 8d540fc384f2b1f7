"""Algorithm 1 — ``BasicEnum`` / ``BasicEnum+`` — and the PathEnum baseline.

``BasicEnum`` is the straightforward batch baseline: build the distance
index for all sources and targets at once (a truncated BFS each), then run
the bidirectional PathEnum enumeration for each query independently on top
of the shared index.  That is :class:`~repro.batch.batch_enum.BatchEnum`
with clustering off (every position a cluster of one), so ``BasicEnum`` is
that configuration and nothing more; ``BasicEnum+`` additionally enables
PathEnum's search-order optimisation (adaptive forward/backward budget
split).

``iter_pathenum_baseline`` processes each query completely independently
— including its own per-query index construction — which is how the paper
runs the original PathEnum as a competitor: one ``{position: paths}``
fragment per completed query, which is what the engine's streaming
front-end drains.
"""

from __future__ import annotations

from typing import Sequence

from repro.batch.batch_enum import BatchEnum
from repro.batch.results import FragmentStream, per_query_fragments
from repro.enumeration.path_enum import PathEnum
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery


class BasicEnum(BatchEnum):
    """Algorithm 1: :class:`BatchEnum` with ``cluster=False``."""

    def __init__(self, graph: DiGraph, optimize_search_order: bool = False) -> None:
        super().__init__(graph, optimize_search_order=optimize_search_order,
                         cluster=False)

    # trace.py wraps vars(BasicEnum)["iter_run"] by name (ROADMAP item 11).
    iter_run = BatchEnum.iter_run


def iter_pathenum_baseline(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    optimize_search_order: bool = False,
) -> FragmentStream:
    """Fragment generator for the per-query PathEnum baseline."""

    def enumerate_one(query: HCSTQuery):
        enumerator = PathEnum(graph, optimize_search_order=optimize_search_order)
        return enumerator.enumerate(query)

    return per_query_fragments(queries, enumerate_one, "PathEnum")
