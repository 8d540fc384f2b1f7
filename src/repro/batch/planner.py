"""Plan/execute split: the cost-model query planner.

A :class:`QueryPlanner` inspects the workload and the graph snapshot, runs
the cheap global stages once (BuildIndex, ClusterQuery), and emits an
:class:`ExecutionPlan` that the executor consumes verbatim:

* **shard assignments** — one shard per cluster for the sharing-aware
  algorithms (``batch``/``batch+``), contiguous batch slices for the
  per-query algorithms, each with an estimated enumeration cost;
* **worker count** — ``num_workers="auto"`` resolves against the config's
  :class:`~repro.batch.config.CostModel` (fixed default constants that
  ``CostModel.from_observed`` recalibrates from live traffic): sharding is
  only chosen when the estimated enumeration makespan saving clears the
  process-pool spawn overhead (plus the cost of shipping the index rows)
  by a safety margin;
* **index strategy** — whether this batch's array-backed
  :class:`~repro.bfs.distance_index.CSRDistanceIndex` is built fresh,
  reused from the planner's previous batch, or delta-repaired from it.
  Workers never build one: the executor ships every shard the rows of its
  own endpoints.

``BatchQueryEngine.explain(queries)`` returns the plan without executing
it; ``run``/``stream`` build the same plan and hand its prebuilt artefacts
(workload with its index, clusters) to whichever path executes, so planning
work is never repeated.  The options a plan follows (algorithm, γ, worker
request and ceiling, kernel policy, cost model) arrive as one validated
:class:`~repro.batch.config.ExecutionConfig`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.batch.clustering import cluster_queries
from repro.batch.config import ALGORITHM_TABLE, ExecutionConfig, NumWorkers
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.kernels import resolve_kernel
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.snapshots import PinnedSnapshot
from repro.obs.feedback import (
    INDEX_BUILD_ENTRIES_TOTAL,
    INDEX_BUILD_SECONDS_TOTAL,
    INDEX_DELTA_EDGE_ROWS_TOTAL,
    INDEX_DELTA_SECONDS_TOTAL,
    PLAN_INDEX_STRATEGY_TOTAL,
)
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import resolve_tracer
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.timer import StageTimer
from repro.utils.validation import require

def _lpt_makespan(costs: List[float], num_workers: int) -> float:
    """Cost units of the busiest bin under an LPT greedy assignment
    (sort descending, always feed the least-loaded worker) — the single
    shared model for both the worker-count decision and the reported
    parallel-seconds estimate."""
    if not costs:
        return 0.0
    if num_workers <= 1:
        return sum(costs)
    bins = [0.0] * num_workers
    for cost in sorted(costs, reverse=True):
        bins[bins.index(min(bins))] += cost
    return max(bins)


@dataclass
class ShardPlan:
    """One executable unit: a cluster or a contiguous batch slice."""

    kind: str  # "cluster" | "slice"
    positions: List[int]
    estimated_cost: float  # enumeration cost units
    #: Concrete enumeration kernel the executor runs this shard on
    #: ("python" | "numpy").
    kernel: str = "python"

    def __post_init__(self) -> None:
        require(self.kind in ("cluster", "slice"), f"unknown shard kind {self.kind!r}")


@dataclass
class ExecutionPlan:
    """Everything the executor needs to run a batch, decided up front.

    The sealed snapshot and the prebuilt workload/clusters are runtime
    handles (excluded from ``repr``); the remaining fields are the
    inspectable planning outcome that :meth:`describe` renders and the
    tests assert on.
    """

    algorithm: str
    gamma: float
    requested_workers: NumWorkers
    num_workers: int
    shards: List[ShardPlan]
    #: Row bytes of the batch's distance index — what a parallel plan ships
    #: in total when its shards share no endpoint (0 for unindexed
    #: algorithms).
    index_payload_bytes: int
    estimated_sequential_seconds: float
    estimated_parallel_seconds: float
    estimated_spawn_seconds: float
    estimated_index_ship_seconds: float
    #: ``graph.version`` the plan's sealed snapshot (and index) belong to.
    #: Execution resolves this exact snapshot, so a graph that mutates
    #: between planning and execution never changes what the batch reads.
    graph_version: int = -1
    #: How the plan obtained its distance index: freshly ``"built"``,
    #: reused ``"cached"`` from the planner's previous batch (same
    #: endpoints, same version), or ``"delta"``-repaired from the cached
    #: one via ``CSRDistanceIndex.apply_delta``.
    index_strategy: str = "built"
    #: The sealed CSR snapshot every execution artefact was derived from.
    snapshot: Optional[CSRGraph] = field(default=None, repr=False)
    workload: Optional[QueryWorkload] = field(default=None, repr=False)
    clusters: Optional[List[List[int]]] = field(default=None, repr=False)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_estimated_cost(self) -> float:
        return sum(shard.estimated_cost for shard in self.shards)

    @property
    def stage_timer(self) -> Optional[StageTimer]:
        """Timer that recorded the planning stages (BuildIndex etc.)."""
        return self.workload.stage_timer if self.workload is not None else None

    def describe(self) -> str:
        """Human-readable rendering (what ``engine.explain`` prints)."""
        if self.workload is None:
            index = "none"
        elif self.num_workers <= 1:
            index = f"shared in-process (sequential) [{self.index_strategy}]"
        else:
            index = (
                f"ship {self.index_payload_bytes} bytes, each shard its own "
                f"endpoints' rows [{self.index_strategy}]"
            )
        kernels = Counter(shard.kernel for shard in self.shards)
        lines = [
            f"ExecutionPlan[{self.algorithm}]",
            f"  workers:      {self.num_workers} "
            f"(requested {self.requested_workers!r})",
            f"  shards:       {self.num_shards} "
            f"({', '.join(sorted({s.kind for s in self.shards})) or 'none'})",
            f"  index:        {index}",
            "  kernel:       " + (
                ", ".join(f"{n} {kernel}" for kernel, n in sorted(kernels.items()))
                or "none"
            ),
            f"  est seq:      {self.estimated_sequential_seconds:.4f}s",
            f"  est parallel: {self.estimated_parallel_seconds:.4f}s "
            f"(spawn {self.estimated_spawn_seconds:.4f}s)",
            f"  est index:    ship {self.estimated_index_ship_seconds:.4f}s",
        ]
        for shard in self.shards:
            lines.append(
                f"    {shard.kind:<7} positions={shard.positions} "
                f"cost={shard.estimated_cost:.1f} kernel={shard.kernel}"
            )
        return "\n".join(lines)


def estimate_side_cost(level_sizes: Iterable[int]) -> float:
    """Rough cost of enumerating all prefixes down to the deepest level.

    Models the partial-path count as the running product of average
    branching per level, which over-penalises explosive frontiers.
    ``CostModel.seconds_per_cost_unit`` converts this unit to seconds.
    """
    sizes = [size for size in level_sizes]
    if not sizes:
        return 0.0
    cost = 0.0
    partial_paths = 1.0
    for depth in range(1, len(sizes)):
        branching = sizes[depth] / max(sizes[depth - 1], 1)
        partial_paths *= max(branching, 1.0)
        cost += partial_paths + sizes[depth]
    return cost


def estimate_query_cost(
    query: HCSTQuery,
    index: Optional[CSRDistanceIndex],
    graph: DiGraph,
    side_cost_cache: Optional[Dict[Tuple, float]] = None,
) -> float:
    """Estimated enumeration cost units of one query.

    With an index available the estimate runs a per-level frontier model
    (partial-path counts from the BFS level sizes, see
    :func:`estimate_side_cost`) over the balanced split.  Without one
    (``pathenum``, where building a global index just to plan would cost
    more than it saves) the estimate falls back to an average-branching
    model capped by the graph size, doubled because ``pathenum`` builds a
    per-query index before enumerating.

    ``side_cost_cache`` memoises the per-(endpoint, budget) side costs —
    each is a read of the row's BFS level sizes plus the frontier model,
    and real batches repeat endpoints heavily, so the planner shares one
    cache across the whole workload.
    """
    forward_budget = query.forward_budget
    backward_budget = query.backward_budget
    if index is not None and index.has_source(query.s) and index.has_target(query.t):
        cache = side_cost_cache if side_cost_cache is not None else {}
        forward_key = ("f", query.s, forward_budget)
        forward_cost = cache.get(forward_key)
        if forward_cost is None:
            forward_cost = estimate_side_cost(
                index.forward_level_sizes(query.s, forward_budget)
            )
            cache[forward_key] = forward_cost
        backward_key = ("b", query.t, backward_budget)
        backward_cost = cache.get(backward_key)
        if backward_cost is None:
            backward_cost = estimate_side_cost(
                index.backward_level_sizes(query.t, backward_budget)
            )
            cache[backward_key] = backward_cost
        return forward_cost + backward_cost + 1.0
    branching = max(1.0, graph.num_edges / max(1, graph.num_vertices))
    cap = float(graph.num_edges * max(1, query.k))
    return 2.0 * min(
        branching ** min(forward_budget, 8) + branching ** min(backward_budget, 8),
        cap,
    )


class QueryPlanner:
    """Builds :class:`ExecutionPlan` objects for a graph + config pair.

    Parameters
    ----------
    graph:
        The data graph (its CSR snapshot anchors the index vertex range).
    config:
        The validated execution options (see
        :class:`~repro.batch.config.ExecutionConfig`); the planner reads
        them and re-checks nothing.
    metrics / tracer:
        Telemetry sinks (see :mod:`repro.obs`); default to the no-op
        singletons.  With a live registry every ``plan()`` records the
        index strategy it resolved and the build/delta work it performed —
        the feedback half of ``CostModel.from_observed``.
    """

    def __init__(
        self,
        graph: DiGraph,
        config: ExecutionConfig = ExecutionConfig(),
        metrics=None,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.config = config
        self._metrics = resolve_registry(metrics)
        self._tracer = resolve_tracer(tracer)
        self._m_plans = self._metrics.counter("repro_plans_total")
        self._m_plan_seconds = self._metrics.histogram("repro_plan_seconds")
        #: ``(endpoint key, graph version, index)`` of the previous batch's
        #: distance index — the substrate of the cached / delta
        #: strategies in :meth:`_resolve_index`.
        self._index_cache: Optional[Tuple[Tuple, int, CSRDistanceIndex]] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def plan(
        self,
        queries: Sequence[HCSTQuery],
        pool_ready: bool = False,
        snapshot: Optional[Union[CSRGraph, PinnedSnapshot]] = None,
    ) -> ExecutionPlan:
        """Emit the execution plan for ``queries``.

        The config's ``num_workers`` is either a positive integer (honoured
        as given) or ``"auto"`` (resolved by the cost model).  ``pool_ready``
        declares that the caller already holds a spawned, reusable
        :class:`~repro.batch.executor.WorkerPool`, so parallel estimates
        carry no pool-spawn overhead — without it, a continuous-ingestion
        micro-batch would be charged a full pool spawn it never pays and
        ``auto`` would stay sequential even when sharding wins.

        ``snapshot`` pins the sealed CSR (or a
        :class:`~repro.graph.snapshots.PinnedSnapshot` holding one) the
        whole plan→execute pipeline reads — the version the batch was
        *admitted* under.  When omitted, the plan seals the graph's current
        head.  Every artefact (index, clusters, cost estimates) is derived
        from that one immutable packing, so graph mutations during or after
        planning never leak into the batch.  An empty batch plans to a
        trivial sequential no-op.
        """
        self._m_plans.inc()
        start = time.perf_counter()
        with self._tracer.span(
            "plan",
            tags={"queries": len(queries), "algorithm": self.config.algorithm},
        ):
            plan = self._plan_impl(queries, pool_ready, snapshot)
        self._m_plan_seconds.observe(time.perf_counter() - start)
        return plan

    def _plan_impl(
        self,
        queries: Sequence[HCSTQuery],
        pool_ready: bool,
        snapshot: Optional[Union[CSRGraph, PinnedSnapshot]],
    ) -> ExecutionPlan:
        config = self.config
        spec = ALGORITHM_TABLE[config.algorithm]
        model = config.cost_model
        queries = list(queries)
        if isinstance(snapshot, PinnedSnapshot):
            snapshot = snapshot.csr
        csr = snapshot if snapshot is not None else self.graph.csr_snapshot()
        pinned_version = csr.version
        if not queries:
            return ExecutionPlan(
                algorithm=config.algorithm,
                gamma=config.gamma,
                requested_workers=config.num_workers,
                num_workers=1,
                shards=[],
                index_payload_bytes=0,
                estimated_sequential_seconds=0.0,
                estimated_parallel_seconds=0.0,
                estimated_spawn_seconds=0.0,
                estimated_index_ship_seconds=0.0,
                graph_version=pinned_version,
                snapshot=csr,
            )

        workload: Optional[QueryWorkload] = None
        clusters: Optional[List[List[int]]] = None
        index: Optional[CSRDistanceIndex] = None
        index_strategy = "built"
        if spec.indexed:
            stage_timer = StageTimer()
            endpoint_key = (
                tuple(sorted({q.s for q in queries})),
                tuple(sorted({q.t for q in queries})),
                max(q.k for q in queries),
            )
            prebuilt, index_strategy = self._resolve_index(
                endpoint_key, csr, stage_timer
            )
            workload = QueryWorkload(
                self.graph,
                queries,
                stage_timer=stage_timer,
                index=prebuilt,
                csr=csr,
            )
            index = workload.index
            self._index_cache = (endpoint_key, pinned_version, index)
            self._metrics.counter(
                PLAN_INDEX_STRATEGY_TOTAL, labels={"strategy": index_strategy}
            ).inc()
            if index_strategy == "built":
                self._metrics.counter(INDEX_BUILD_SECONDS_TOTAL).inc(
                    stage_timer.total("BuildIndex")
                )
                self._metrics.counter(INDEX_BUILD_ENTRIES_TOTAL).inc(
                    index.size_in_entries
                )
        else:
            self._metrics.counter(
                PLAN_INDEX_STRATEGY_TOTAL, labels={"strategy": "none"}
            ).inc()
        if spec.clustered:
            assert workload is not None
            with self._tracer.span("shard", tags={"queries": len(queries)}):
                with workload.stage_timer.stage("ClusterQuery"):
                    clusters = cluster_queries(workload, config.gamma)

        side_cost_cache: Dict[Tuple, float] = {}
        query_costs = [
            estimate_query_cost(query, index, csr, side_cost_cache)
            for query in queries
        ]

        # What a parallel plan pays to ship the index rows to its workers.
        payload_size = index.nbytes if index is not None else 0
        ship_seconds = payload_size * model.seconds_per_shipped_byte

        resolved = self._resolve_workers(
            query_costs, clusters, ship_seconds, pool_ready=pool_ready
        )
        shards = self._build_shards(query_costs, clusters, resolved)

        total_cost = sum(query_costs)
        for shard in shards:
            shard.kernel = resolve_kernel(config.kernel)
            self._metrics.counter(
                "repro_plan_kernel_total", labels={"kernel": shard.kernel}
            ).inc()
        return ExecutionPlan(
            algorithm=config.algorithm,
            gamma=config.gamma,
            requested_workers=config.num_workers,
            num_workers=resolved,
            shards=shards,
            index_payload_bytes=payload_size,
            estimated_sequential_seconds=total_cost * model.seconds_per_cost_unit,
            estimated_parallel_seconds=self._parallel_seconds(
                resolved, shards, ship_seconds, pool_ready=pool_ready
            ),
            estimated_spawn_seconds=(
                0.0 if pool_ready else model.spawn_seconds(resolved)
            ),
            estimated_index_ship_seconds=ship_seconds,
            graph_version=pinned_version,
            index_strategy=index_strategy,
            snapshot=csr,
            workload=workload,
            clusters=clusters,
        )

    def _resolve_index(
        self, endpoint_key: Tuple, csr: CSRGraph, stage_timer: StageTimer
    ) -> Tuple[Optional[CSRDistanceIndex], str]:
        """Pick the cheapest way to obtain this batch's distance index.

        Three-way decision: reuse the previous batch's index verbatim when
        endpoints and snapshot version both match (``"cached"``);
        delta-repair a copy of it when only the version moved, the snapshot
        store can net the edge changes, and the cost model says repair
        beats a fresh build (``"delta"``); otherwise fall
        through to a fresh build (``"built"``,
        returned as ``None`` so the workload builds lazily).
        """
        cached = self._index_cache
        if cached is None:
            return None, "built"
        cached_key, cached_version, cached_index = cached
        if (
            cached_key != endpoint_key
            or cached_index.num_vertices != csr.num_vertices
        ):
            return None, "built"
        if cached_version == csr.version:
            return cached_index, "cached"
        store = getattr(self.graph, "snapshots", None)
        if store is None:
            return None, "built"
        delta = store.delta(cached_version, csr.version)
        if delta is None:
            return None, "built"
        added, removed = delta
        if not self.config.cost_model.delta_repair_wins(
            len(added) + len(removed), cached_index
        ):
            return None, "built"
        start = time.perf_counter()
        with stage_timer.stage("BuildIndex"):
            repaired = cached_index.copy().apply_delta(csr, added, removed)
        self._metrics.counter(INDEX_DELTA_SECONDS_TOTAL).inc(
            time.perf_counter() - start
        )
        self._metrics.counter(INDEX_DELTA_EDGE_ROWS_TOTAL).inc(
            (len(added) + len(removed)) * cached_index.num_rows
        )
        return repaired, "delta"

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _build_shards(
        self,
        query_costs: List[float],
        clusters: Optional[List[List[int]]],
        num_workers: int,
    ) -> List[ShardPlan]:
        if clusters is not None:
            return [
                ShardPlan(
                    kind="cluster",
                    positions=sorted(cluster),
                    estimated_cost=sum(query_costs[p] for p in cluster),
                )
                for cluster in clusters
            ]
        slices = _contiguous_slices(list(range(len(query_costs))), num_workers)
        return [
            ShardPlan(
                kind="slice",
                positions=chunk,
                estimated_cost=sum(query_costs[p] for p in chunk),
            )
            for chunk in slices
        ]

    def _makespan(
        self,
        query_costs: List[float],
        clusters: Optional[List[List[int]]],
        num_workers: int,
    ) -> float:
        """Estimated cost units of the busiest worker under ``num_workers``.

        Clusters land on workers in ``as_completed`` order, modelled as an
        LPT greedy assignment; per-query algorithms are split into the same
        contiguous slices the executor will actually run.
        """
        if clusters is not None:
            costs = [
                sum(query_costs[p] for p in cluster) for cluster in clusters
            ]
            return _lpt_makespan(costs, num_workers)
        slices = _contiguous_slices(list(range(len(query_costs))), num_workers)
        if not slices:
            return 0.0
        return max(sum(query_costs[p] for p in chunk) for chunk in slices)

    def _parallel_seconds(
        self,
        num_workers: int,
        shards: List[ShardPlan],
        ship_seconds: float,
        pool_ready: bool = False,
    ) -> float:
        model = self.config.cost_model
        costs = [shard.estimated_cost for shard in shards]
        if num_workers <= 1 or not shards:
            return sum(costs) * model.seconds_per_cost_unit
        return (
            (0.0 if pool_ready else model.spawn_seconds(num_workers))
            + ship_seconds
            + _lpt_makespan(costs, num_workers) * model.seconds_per_cost_unit
        )

    def _resolve_workers(
        self,
        query_costs: List[float],
        clusters: Optional[List[List[int]]],
        ship_seconds: float,
        pool_ready: bool = False,
    ) -> int:
        if self.config.num_workers != "auto":
            return self.config.num_workers
        model = self.config.cost_model
        sequential_seconds = sum(query_costs) * model.seconds_per_cost_unit
        max_useful = len(clusters) if clusters is not None else len(query_costs)
        limit = min(self.config.max_workers, max_useful)

        best_workers = 1
        best_seconds = sequential_seconds
        for candidate in range(2, limit + 1):
            estimate = (
                (0.0 if pool_ready else model.spawn_seconds(candidate))
                + ship_seconds
                + self._makespan(query_costs, clusters, candidate)
                * model.seconds_per_cost_unit
            )
            if estimate < best_seconds:
                best_seconds = estimate
                best_workers = candidate
        if (
            best_workers > 1
            and best_seconds > sequential_seconds * model.parallel_benefit_margin
        ):
            # Predicted win is within the margin of estimation error: play
            # it safe, the sequential plan can never be a regression.
            return 1
        return best_workers


def _contiguous_slices(positions: List[int], num_workers: int) -> List[List[int]]:
    """Split ``positions`` into at most ``num_workers`` contiguous,
    near-equal slices (empty slices are dropped)."""
    count = len(positions)
    shard_count = min(num_workers, count)
    if shard_count == 0:
        return []
    base, extra = divmod(count, shard_count)
    slices: List[List[int]] = []
    start = 0
    for shard in range(shard_count):
        size = base + (1 if shard < extra else 0)
        if size:
            slices.append(positions[start:start + size])
        start += size
    return slices
