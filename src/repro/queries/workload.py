"""Query workload container.

``QueryWorkload`` bundles a graph and a batch of HC-s-t path queries and
lazily provides the shared artefacts every batch algorithm needs: the
distance index, the pairwise similarity matrix and the average similarity
µ_Q.  Algorithms receive a workload instead of separately-threaded graph /
query / index arguments, so the index is guaranteed to be built exactly once
per batch run (and its construction time can be attributed to the
"BuildIndex" stage of the Fig. 9 decomposition).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bfs.distance_index import CSRDistanceIndex, build_index
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.queries.similarity import QuerySimilarityMatrix
from repro.utils.timer import StageTimer
from repro.utils.validation import require, require_vertex


class QueryWorkload:
    """A graph plus a batch of queries and their lazily built shared state."""

    def __init__(
        self,
        graph: DiGraph,
        queries: Sequence[HCSTQuery],
        stage_timer: Optional[StageTimer] = None,
        index: Optional[CSRDistanceIndex] = None,
        csr: Optional[CSRGraph] = None,
    ) -> None:
        require(bool(queries), "a workload needs at least one query")
        # The workload holds the sealed snapshot of the version it was
        # admitted under (copy-on-write): later graph mutations never
        # disturb its index or similarity matrix — concurrent batches
        # simply hold different snapshots.
        self.csr: CSRGraph = csr if csr is not None else graph.csr_snapshot()
        for query in queries:
            require_vertex(query.s, self.csr.num_vertices, "query source")
            require_vertex(query.t, self.csr.num_vertices, "query target")
        self.graph = graph
        self.queries: List[HCSTQuery] = list(queries)
        self.stage_timer = stage_timer if stage_timer is not None else StageTimer()
        # The queries are fixed after construction, so the batch-wide
        # aggregates are computed once here instead of on every property
        # access — the planner's cost loop and the clustering stage read
        # them repeatedly.
        self.max_hop_constraint: int = max(query.k for query in self.queries)
        self.sources: List[int] = sorted({query.s for query in self.queries})
        self.targets: List[int] = sorted({query.t for query in self.queries})
        if index is not None:
            # A prebuilt (possibly shipped-from-parent) index is accepted as
            # long as it covers every query; a covering superset prunes
            # identically (Lemma 3.1 only consults this workload's own
            # endpoint distances).
            require(
                index.max_hops >= self.max_hop_constraint,
                "prebuilt index max_hops does not cover this workload",
            )
            for query in self.queries:
                if not (index.has_source(query.s) and index.has_target(query.t)):
                    raise ValueError(f"prebuilt index does not cover {query}")
        self._index: Optional[CSRDistanceIndex] = index
        self._similarity: Optional[QuerySimilarityMatrix] = None

    # ------------------------------------------------------------------ #
    # Shared artefacts
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> CSRDistanceIndex:
        """The batch distance index, built on first access ("BuildIndex").

        Built against — and valid for — the workload's sealed snapshot
        (:attr:`csr`, version ``csr.version``).  Mutating the live
        graph afterwards does not invalidate it; a later batch builds its
        own workload against the new head.
        """
        if self._index is None:
            with self.stage_timer.stage("BuildIndex"):
                self._index = build_index(
                    self.csr,
                    self.sources,
                    self.targets,
                    self.max_hop_constraint,
                )
        return self._index

    @property
    def similarity_matrix(self) -> QuerySimilarityMatrix:
        """Pairwise µ matrix (built on first access, reuses the index)."""
        if self._similarity is None:
            index = self.index
            self._similarity = QuerySimilarityMatrix.from_queries(self.queries, index)
        return self._similarity

    def average_similarity(self) -> float:
        """µ_Q of the batch."""
        return self.similarity_matrix.average()

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __repr__(self) -> str:
        return (
            f"QueryWorkload(|Q|={len(self.queries)}, "
            f"graph={self.graph!r}, kmax={self.max_hop_constraint})"
        )
