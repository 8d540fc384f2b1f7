"""Algorithm 4 — ``BatchEnum`` / ``BatchEnum+``: shared batch enumeration.

Processing pipeline for a batch ``Q``:

1. **BuildIndex** — distance index over all query sources and targets,
   one truncated BFS each (shared with Algorithm 1).
2. **ClusterQuery** — Algorithm 2 groups queries by hop-constrained
   neighbourhood similarity.
3. **IdentifySubquery** — Algorithm 3 detects, per cluster and per
   direction, the dominating HC-s path queries and builds the query sharing
   graphs Ψ (forward) and Ψr (backward).
4. **Enumeration** — HC-s path query nodes are materialised in topological
   order of Ψr, then of Ψ; a node's enumeration splices in the cached
   results of its providers instead of re-exploring.  The final HC-s-t
   paths come from the ⊕ join of each query's two root HC-s path results,
   made while the forward root is searched: the cached backward roots of
   all its queries form one probe table, so a shared forward root is
   searched and joined once and only a node that is spliced is ever cached.
   Cached results are evicted as soon as their last consumer is done.

``BatchEnum+`` uses the search-order optimiser to pick, once per cluster,
the forward/backward budget split of each hop constraint before detection,
priced over the roots the cluster will search.

With ``cluster=False`` step 2 is skipped and every position is a cluster
of one, which runs PathEnum on the shared index with no detection, Ψ or
cache around it: that is Algorithm 1 (``BasicEnum``/``BasicEnum+``), the
engine's ``basic``/``basic+``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

from repro.batch.cache import ResultCache
from repro.batch.clustering import cluster_queries
from repro.batch.detection import DetectionOutcome, detect_common_queries
from repro.batch.results import BatchResult, FragmentStream, SharingStats, drain
from repro.batch.sharing_graph import QueryNode
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.hc_s_search import search_hc_s_paths
from repro.enumeration.join import (
    ForwardSide, JoinProbe, PathJoinPolicy, join_path_sets,
)
from repro.enumeration.path_enum import PathEnum
from repro.enumeration.paths import Path
from repro.enumeration.search_order import choose_budget_split, mean_degree_of
from repro.graph.digraph import DiGraph
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from repro.queries.workload import QueryWorkload
from repro.utils.timer import StageTimer
from repro.utils.validation import require

#: Default frontier-expansion depth of DetectCommonQuery (see the
#: ``max_detection_depth`` parameter below).  Every engine route — in-process
#: or in a worker — builds its enumerator without overriding it, so
#: sequential and sharded runs share identically.
DEFAULT_MAX_DETECTION_DEPTH: Optional[int] = 1


class BatchEnum:
    """The paper's batch HC-s-t path query processing algorithm.

    Parameters
    ----------
    graph:
        The data graph.
    gamma:
        Clustering threshold γ of Algorithm 2 (paper default 0.5).
    optimize_search_order:
        Enable the "+" variant's adaptive budget split.
    cluster:
        Run ClusterQuery (default).  ``False`` makes every position a
        cluster of one — Algorithm 1, reported as ``BasicEnum``.
    """

    def __init__(
        self,
        graph: DiGraph,
        gamma: float = 0.5,
        optimize_search_order: bool = False,
        max_detection_depth: Optional[int] = DEFAULT_MAX_DETECTION_DEPTH,
        cluster: bool = True,
    ) -> None:
        require(0.0 <= gamma <= 1.0, "gamma must be within [0, 1]")
        self.graph = graph
        self.gamma = gamma
        self.optimize_search_order = optimize_search_order
        self.cluster = cluster
        # How deep DetectCommonQuery expands the joint frontier beyond the
        # root vertices; None reproduces Algorithm 3 exactly (full depth),
        # the default of 1 keeps the detection overhead negligible on the
        # pure-Python substrate while catching the near-root sharing that
        # dominates in practice.
        self.max_detection_depth = max_detection_depth

    @property
    def name(self) -> str:
        name = "BatchEnum" if self.cluster else "BasicEnum"
        return name + "+" if self.optimize_search_order else name

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, queries: Sequence[HCSTQuery]) -> BatchResult:
        """Process the batch and return a :class:`BatchResult`."""
        return drain(self.iter_run(queries))

    def iter_run(
        self,
        queries: Sequence[HCSTQuery],
        workload: Optional[QueryWorkload] = None,
        clusters: Optional[List[List[int]]] = None,
    ) -> FragmentStream:
        """Fragment generator: one ``{position: paths}`` yield per forward
        root.

        The global stages (BuildIndex, ClusterQuery) run before the first
        fragment; from then on the queries of a forward root are flushable
        the moment its ⊕ join completes them, before the cluster's next
        root is searched (a cluster of one yields once, its query).  This
        is the sequential twin of the parallel executor's per-shard
        completions, so the engine's streaming front-end drains both
        through one reorder buffer.

        ``workload``/``clusters`` let a caller that already built the shared
        artefacts (the query planner) hand them over instead of rebuilding;
        the computation is identical either way, only performed once.
        """
        if workload is None:
            workload = QueryWorkload(self.graph, queries, stage_timer=StageTimer())
        stage_timer = workload.stage_timer
        result = BatchResult(
            queries=list(queries), stage_timer=stage_timer, algorithm=self.name
        )
        index = workload.index  # BuildIndex
        with stage_timer.stage("BuildIndex"):
            # Pack (or reuse) the shared CSR snapshot the enumeration reads.
            self.graph.csr_snapshot()

        if clusters is None and not self.cluster:
            clusters = [[position] for position in range(len(queries))]
        elif clusters is None:
            with stage_timer.stage("ClusterQuery"):
                clusters = cluster_queries(workload, self.gamma)

        sharing = SharingStats(num_clusters=len(clusters))
        for cluster in clusters:
            queries_by_position = {
                position: workload.queries[position] for position in cluster
            }
            for positions in self._process_cluster(
                queries_by_position, index, stage_timer, result, sharing
            ):
                yield {
                    position: result.paths_by_position[position]
                    for position in positions
                }
        result.sharing = sharing
        return result

    # ------------------------------------------------------------------ #
    # Per-cluster processing
    # ------------------------------------------------------------------ #
    def _process_cluster(
        self,
        queries_by_position: Dict[int, HCSTQuery],
        index: CSRDistanceIndex,
        stage_timer: StageTimer,
        result: BatchResult,
        sharing: SharingStats,
    ) -> Iterator[List[int]]:
        """Process one cluster of queries against ``index``, yielding the
        positions of each forward root once its join has recorded them.

        Clusters are independent of one another by construction, which makes
        this the shard boundary of :mod:`repro.batch.executor`: the parallel
        mode calls this method from worker processes with a per-cluster
        index and merges the per-position results afterwards.

        A cluster of one *is* a single query — every cluster under
        ``cluster=False``: it runs :meth:`PathEnum.enumerate` on the shared
        index and its two roots are counted, with no detection, Ψ or cache
        built around it.
        """
        if len(queries_by_position) == 1:
            ((position, query),) = queries_by_position.items()
            enumerator = PathEnum(
                self.graph,
                index=index,
                optimize_search_order=self.optimize_search_order,
            )
            with stage_timer.stage("Enumeration"):
                result.record(position, enumerator.enumerate(query))
            sharing.num_hc_s_nodes += 2
            # The backward root, held for the join.
            sharing.cache_peak_entries = max(sharing.cache_peak_entries, 1)
            yield [position]
            return

        if self.optimize_search_order:
            # The "+" variant prices one split per hop constraint over the
            # roots this cluster will search: mixing splits would break up
            # otherwise identical root HC-s path queries and destroy the
            # sharing the cluster was formed for.
            chosen = choose_budget_split(
                list(queries_by_position.values()), index, mean_degree_of(self.graph)
            )
        else:
            chosen = {
                query.k: query.forward_budget
                for query in queries_by_position.values()
            }
        forward_budgets = {
            position: chosen[query.k]
            for position, query in queries_by_position.items()
        }
        backward_budgets = {
            position: query.k - chosen[query.k]
            for position, query in queries_by_position.items()
        }

        with stage_timer.stage("IdentifySubquery"):
            forward_outcome = detect_common_queries(
                self.graph,
                queries_by_position,
                Direction.FORWARD,
                index,
                forward_budgets,
                max_depth=self.max_detection_depth,
            )
            backward_outcome = detect_common_queries(
                self.graph,
                queries_by_position,
                Direction.BACKWARD,
                index,
                backward_budgets,
                max_depth=self.max_detection_depth,
            )

        sharing.num_shared_nodes += (
            forward_outcome.num_shared_nodes + backward_outcome.num_shared_nodes
        )
        sharing.num_hc_s_nodes += len(
            forward_outcome.sharing_graph.hc_s_path_nodes()
        ) + len(backward_outcome.sharing_graph.hc_s_path_nodes())

        cache = ResultCache()
        # Ψr first: a forward root is joined while it is searched, and its
        # probe table is built from the cached backward roots.
        roots = chain(
            self._materialize(backward_outcome, cache),
            self._materialize(forward_outcome, cache, backward_outcome, result),
        )
        while True:
            # Timed per root, so the consumer between yields is not.
            with stage_timer.stage("Enumeration"):
                positions = next(roots, None)
            if positions is None:
                break
            yield positions
        sharing.cache_peak_entries = max(
            sharing.cache_peak_entries, cache.peak_entries
        )
        sharing.cache_reuse_count += cache.reuse_count

    def _materialize(
        self,
        outcome: DetectionOutcome,
        cache: ResultCache,
        backward_outcome: Optional[DetectionOutcome] = None,
        result: Optional[BatchResult] = None,
    ) -> Iterator[List[int]]:
        """Enumerate every HC-s path query node of one sharing graph in
        topological order, reusing cached provider results.  In the forward
        graph (the one given ``backward_outcome`` and ``result``) a root is
        joined for its queries, which read no cache entry, and their
        positions are yielded once it has released its providers: a node
        is cached only for the HC-s path queries that splice it, and the
        search of a root nobody splices is left to the join."""
        psi = outcome.sharing_graph
        for node in psi.topological_order():
            if not isinstance(node, HCsPathQuery):
                continue
            consumers = psi.consumers_of(node)
            positions = [
                consumer.position
                for consumer in consumers
                if result is not None and isinstance(consumer, QueryNode)
            ]
            # The node's paths or, for a root nobody splices, its search.
            paths = partial(self._enumerate_node, node, outcome, cache)
            if not positions or len(consumers) > len(positions):
                paths = paths()
                cache.put(node, paths, consumers=len(consumers) - len(positions))
            if positions:
                self._join_root(node, positions, paths, backward_outcome, cache, result)
            # This node has finished reading its providers.
            for provider in psi.providers_of(node):
                if isinstance(provider, HCsPathQuery):
                    cache.release(provider)
            if positions:
                yield positions

    @staticmethod
    def _join_root(
        root: HCsPathQuery,
        positions: List[int],
        forward: ForwardSide,
        backward_outcome: DetectionOutcome,
        cache: ResultCache,
        result: BatchResult,
    ) -> None:
        """⊕-join one forward root — ``forward`` is its search, or its
        paths — with the backward root of every query at ``positions``,
        then release those.  The two roots fix budgets and target, so
        queries identical up to their batch position (common in bursty
        real workloads) share one side and one list."""
        shared: Dict[HCsPathQuery, List[int]] = {}
        backward_root_of = backward_outcome.root_by_position
        for position in positions:
            shared.setdefault(backward_root_of[position], []).append(position)
        sides = []
        for backward_root in shared:
            backward_paths = cache.peek(backward_root)
            require(
                backward_paths is not None,
                "a backward root was evicted before its join: consumer accounting bug",
            )
            policy = PathJoinPolicy(root.budget, backward_root.budget)
            sides.append((backward_paths, backward_root.vertex, policy))
        for backward_root, paths in zip(shared, join_path_sets(forward, sides)):
            for position in shared[backward_root]:
                result.record(position, paths)
                cache.release(backward_root)

    def _enumerate_node(
        self,
        node: HCsPathQuery,
        outcome: DetectionOutcome,
        cache: ResultCache,
        probe: Optional[JoinProbe] = None,
    ) -> List[Path]:
        """Enumerate all hop-constrained paths of one HC-s path query:
        assemble the arguments of Algorithm 4's Search and run the one
        explicit-stack search.  Where it would step onto the root of one
        of the node's cached providers with a budget the provider covers,
        it splices the provider's paths in instead of re-exploring (Search
        lines 22-23).  With ``probe`` the search of a node nobody splices
        joins its paths as it finds them and returns none.
        """
        psi = outcome.sharing_graph
        forward = node.direction is Direction.FORWARD
        queries_by_position = outcome.queries_by_position

        # The deepest provider rooted at each vertex, handed over as
        # (budget, fetch) when its result is cached: fetch is a live
        # cache.get so the reuse statistics count one access per splice.
        deepest_at: Dict[int, HCsPathQuery] = {}
        for provider in psi.providers_of(node):
            if isinstance(provider, HCsPathQuery):
                best = deepest_at.get(provider.vertex)
                if best is None or provider.budget > best.budget:
                    deepest_at[provider.vertex] = provider
        providers = {
            vertex: (provider.budget, (lambda p=provider: cache.get(p)))
            for vertex, provider in deepest_at.items()
            if provider != node and provider in cache
        }

        # A node consumed only by the final ⊕ join (no HC-s path query
        # consumer) keeps just what the join reads, see search_hc_s_paths.
        keep_all = any(
            isinstance(consumer, HCsPathQuery)
            for consumer in psi.consumers_of(node)
        )
        served_endpoints = {
            queries_by_position[position].t if forward
            else queries_by_position[position].s
            for position in outcome.served_queries.get(node, ())
        }
        return search_hc_s_paths(
            self.graph.csr_snapshot().adjacency_lists(forward),
            node.vertex,
            node.budget,
            outcome.distance_rows(node),
            served_endpoints,
            keep_all,
            forward,
            providers,
            probe=probe,
        )
