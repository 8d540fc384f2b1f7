"""Algorithm 1 — ``BasicEnum`` / ``BasicEnum+`` and the PathEnum baseline.

``BasicEnum`` is the straightforward batch baseline: build the distance
index for all sources and targets at once (a truncated BFS each), then run
the bidirectional PathEnum enumeration for each query independently on top
of the shared index.  ``BasicEnum+`` additionally enables PathEnum's
search-order optimisation (adaptive forward/backward budget split).

``run_pathenum_baseline`` processes each query completely independently —
including its own per-query index construction — which is how the paper
runs the original PathEnum as a competitor.

Both runners are implemented as *fragment generators* (``iter_run`` /
``iter_pathenum_baseline``) that yield one ``{position: paths}`` fragment
per completed query, which is what the engine's streaming front-end drains;
the blocking ``run`` entry points collect the same generator to completion.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.batch.results import (
    BatchResult,
    FragmentStream,
    SharingStats,
    drain,
    per_query_fragments,
)
from repro.enumeration.path_enum import PathEnum
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.timer import StageTimer


class BasicEnum:
    """Batch baseline: shared index, independent per-query enumeration.

    ``kernel`` is forwarded to the underlying :class:`PathEnum` — see
    :mod:`repro.enumeration.kernels` for the selection semantics.
    """

    def __init__(
        self,
        graph: DiGraph,
        optimize_search_order: bool = False,
        kernel: str = "python",
    ) -> None:
        self.graph = graph
        self.optimize_search_order = optimize_search_order
        self.kernel = kernel

    @property
    def name(self) -> str:
        return "BasicEnum+" if self.optimize_search_order else "BasicEnum"

    def run(self, queries: Sequence[HCSTQuery]) -> BatchResult:
        """Process the batch and return a :class:`BatchResult`."""
        return drain(self.iter_run(queries))

    def iter_run(
        self,
        queries: Sequence[HCSTQuery],
        workload: Optional[QueryWorkload] = None,
    ) -> FragmentStream:
        """Fragment generator: one ``{position: paths}`` yield per query.

        The shared artefacts (distance index, CSR snapshot) are
        still built once for the whole batch before the first fragment is
        produced; only the per-query enumerations are interleaved with the
        consumer.  A caller that already owns a covering workload (the
        query planner, or a worker that received a shipped index) passes it
        via ``workload`` so the index is not rebuilt.
        """
        if workload is None:
            workload = QueryWorkload(self.graph, queries, stage_timer=StageTimer())
        stage_timer = workload.stage_timer
        result = BatchResult(
            queries=list(queries),
            stage_timer=stage_timer,
            sharing=SharingStats(num_clusters=len(queries)),
            algorithm=self.name,
        )
        index = workload.index  # "BuildIndex" stage
        # Pack the shared CSR snapshot up front so the per-query loop below
        # (and every other algorithm run on this graph) reads adjacency from
        # the same flat arrays; attribute the packing to BuildIndex.
        with stage_timer.stage("BuildIndex"):
            self.graph.csr_snapshot()
        enumerator = PathEnum(
            self.graph,
            index=index,
            optimize_search_order=self.optimize_search_order,
            kernel=self.kernel,
        )
        with stage_timer.stage("Enumeration"):
            for position, query in enumerate(queries):
                result.record(position, enumerator.enumerate(query))
                yield {position: result.paths_by_position[position]}
        return result


def run_pathenum_baseline(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    optimize_search_order: bool = False,
    kernel: str = "python",
) -> BatchResult:
    """Process each query independently with its own per-query index."""
    return drain(
        iter_pathenum_baseline(graph, queries, optimize_search_order, kernel)
    )


def iter_pathenum_baseline(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    optimize_search_order: bool = False,
    kernel: str = "python",
) -> FragmentStream:
    """Fragment generator for the per-query PathEnum baseline."""

    def enumerate_one(query: HCSTQuery):
        enumerator = PathEnum(
            graph, optimize_search_order=optimize_search_order, kernel=kernel
        )
        return enumerator.enumerate(query)

    return per_query_fragments(queries, enumerate_one, "PathEnum")
