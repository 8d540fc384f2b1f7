"""Plan/execute split: the query planner.

A :class:`QueryPlanner` runs the cheap global stages of a batch once
(BuildIndex, ClusterQuery) against one sealed snapshot and emits an
:class:`ExecutionPlan` recording what will run — nothing in it is a
forecast:

* **workers** — the config's ``num_workers`` (1 by default: a batch runs
  in the caller's process unless the caller asks for a number of
  processes);
* **shards** — one per cluster for the sharing-aware algorithms
  (``batch``/``batch+``), contiguous batch slices, one per worker, for the
  per-query algorithms;
* **index strategy** — whether this batch's array-backed
  :class:`~repro.bfs.distance_index.CSRDistanceIndex` is built fresh,
  reused from the planner's previous batch, or delta-repaired from it.

``BatchQueryEngine.explain(queries)`` returns the plan without executing
it; every ``run``/``stream`` call and every served micro-batch executes
one, handing its prebuilt artefacts (index, clusters) to
:func:`~repro.batch.config.run_shard` in this process or in the workers,
so planning work is never repeated.  The options a plan follows arrive as
one validated :class:`~repro.batch.config.ExecutionConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from repro.batch.clustering import cluster_queries
from repro.batch.config import ALGORITHM_TABLE, ExecutionConfig
from repro.bfs.distance_index import CSRDistanceIndex
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.obs.metrics import resolve_registry
from repro.obs.tracing import resolve_tracer
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.timer import StageTimer

#: Guessed costs behind the ``delta``-or-``built`` choice: seconds per
#: reachable (vertex, distance) entry of a fresh BFS build, and per
#: (changed edge × index row) of an ``apply_delta`` repair.  ROADMAP item 8
#: replaces the strategy, and these two constants with it.
SECONDS_PER_INDEX_ENTRY = 4e-7
SECONDS_PER_DELTA_EDGE = 2e-5


def _delta_repair_wins(num_changed_edges: int, index: CSRDistanceIndex) -> bool:
    """Whether repairing ``index`` for a netted edge delta beats a rebuild.

    Repair touches each indexed row once per changed edge in the worst
    case (affected-region detection is per row), hence ``edges × rows``.
    """
    repair = num_changed_edges * index.num_rows * SECONDS_PER_DELTA_EDGE
    return repair < index.size_in_entries * SECONDS_PER_INDEX_ENTRY


@dataclass
class ShardPlan:
    """One executable unit: a cluster or a contiguous batch slice."""

    kind: str  # "cluster" | "slice"
    positions: List[int]
    #: Every shard runs the one search.  A constant, not a field: only the
    #: benchmark harness reads it, until its contract moves (ROADMAP item 9).
    kernel: ClassVar[str] = "python"

    def __post_init__(self) -> None:
        if self.kind not in ("cluster", "slice"):
            raise ValueError(f"unknown shard kind {self.kind!r}")


@dataclass
class ExecutionPlan:
    """Everything needed to run a batch, decided up front.

    The sealed snapshot and the prebuilt workload/clusters are runtime
    handles (excluded from ``repr``); the remaining fields are the
    inspectable outcome that :meth:`describe` renders and the tests
    assert on.
    """

    algorithm: str
    gamma: float
    num_workers: int
    shards: List[ShardPlan]
    #: The batch the plan was built for; shard positions index into it.
    queries: List[HCSTQuery] = field(repr=False)
    #: How the plan obtained its distance index: freshly ``"built"``,
    #: reused ``"cached"`` from the planner's previous batch (same
    #: endpoints, same version), ``"delta"``-repaired from the cached one
    #: via ``CSRDistanceIndex.apply_delta``, or ``"none"`` for an
    #: algorithm that reads no shared index.
    index_strategy: str = "none"
    #: Always 0.0: nothing is forecast.  Kept only because the benchmark
    #: harness reads it, until its contract moves (ROADMAP item 9).
    estimated_sequential_seconds: float = 0.0
    #: The sealed CSR snapshot every execution artefact was derived from;
    #: its ``version`` is the graph version the batch reads.  Execution
    #: reads this object, so a graph that mutates between planning and
    #: execution never changes what the batch reads.
    snapshot: Optional[CSRGraph] = field(default=None, repr=False)
    workload: Optional[QueryWorkload] = field(default=None, repr=False)
    clusters: Optional[List[List[int]]] = field(default=None, repr=False)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def stage_timer(self) -> Optional[StageTimer]:
        """Timer that recorded the planning stages (BuildIndex etc.)."""
        return self.workload.stage_timer if self.workload is not None else None

    def describe(self) -> str:
        """Human-readable rendering (what ``engine.explain`` prints)."""
        lines = [
            f"ExecutionPlan[{self.algorithm}]",
            f"  workers: {self.num_workers}",
            f"  shards:  {self.num_shards} "
            f"({', '.join(sorted({s.kind for s in self.shards})) or 'none'})",
            f"  index:   {self.index_strategy}",
        ]
        for shard in self.shards:
            lines.append(f"    {shard.kind:<7} positions={shard.positions}")
        return "\n".join(lines)


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
        index strategy it resolved and the build/delta work it performed.
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
        snapshot: Optional[CSRGraph] = None,
    ) -> ExecutionPlan:
        """Emit the execution plan for ``queries``.

        ``snapshot`` is the sealed CSR the whole plan→execute pipeline
        reads — the version the batch was *admitted* under.  When omitted,
        the plan seals the graph's current head.  Every artefact (index,
        clusters) is derived from that one immutable object, and the plan
        holds it, so graph mutations during or after planning never leak
        into the batch, and the version lives exactly as long as the plan
        or a stream over it.  An empty batch plans to a trivial no-op.
        """
        self._m_plans.inc()
        start = time.perf_counter()
        with self._tracer.span(
            "plan",
            tags={"queries": len(queries), "algorithm": self.config.algorithm},
        ):
            plan = self._plan_impl(queries, snapshot)
        self._m_plan_seconds.observe(time.perf_counter() - start)
        return plan

    def _plan_impl(
        self,
        queries: Sequence[HCSTQuery],
        snapshot: Optional[CSRGraph],
    ) -> ExecutionPlan:
        config = self.config
        spec = ALGORITHM_TABLE[config.algorithm]
        queries = list(queries)
        csr = snapshot if snapshot is not None else self.graph.csr_snapshot()
        if not queries:
            return ExecutionPlan(
                algorithm=config.algorithm,
                gamma=config.gamma,
                num_workers=1,
                shards=[],
                queries=queries,
                snapshot=csr,
            )

        workload: Optional[QueryWorkload] = None
        clusters: Optional[List[List[int]]] = None
        index_strategy = "none"
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
            self._index_cache = (endpoint_key, csr.version, index)
            if index_strategy == "built":
                self._metrics.counter("repro_index_build_seconds_total").inc(
                    stage_timer.total("BuildIndex")
                )
                self._metrics.counter("repro_index_build_entries_total").inc(
                    index.size_in_entries
                )
        self._metrics.counter(
            "repro_plan_index_strategy_total", labels={"strategy": index_strategy}
        ).inc()
        if spec.clustered:
            assert workload is not None
            with self._tracer.span("shard", tags={"queries": len(queries)}):
                with workload.stage_timer.stage("ClusterQuery"):
                    clusters = cluster_queries(workload, config.gamma)
            pieces = [("cluster", sorted(cluster)) for cluster in clusters]
        else:
            pieces = [
                ("slice", chunk)
                for chunk in _contiguous_slices(
                    list(range(len(queries))), config.num_workers
                )
            ]

        return ExecutionPlan(
            algorithm=config.algorithm,
            gamma=config.gamma,
            num_workers=config.num_workers,
            shards=[ShardPlan(kind, positions) for kind, positions in pieces],
            queries=queries,
            index_strategy=index_strategy,
            snapshot=csr,
            workload=workload,
            clusters=clusters,
        )

    def _resolve_index(
        self, endpoint_key: Tuple, csr: CSRGraph, stage_timer: StageTimer
    ) -> Tuple[Optional[CSRDistanceIndex], str]:
        """Pick how to obtain this batch's distance index.

        Reuse the previous batch's index verbatim when endpoints and
        snapshot version both match (``"cached"``); delta-repair a copy of
        it when only the version moved, the snapshot store can net the
        edge changes, and :func:`_delta_repair_wins` (``"delta"``);
        otherwise fall through to a fresh build (``"built"``, returned as
        ``None`` so the workload builds lazily).
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
        if not _delta_repair_wins(len(added) + len(removed), cached_index):
            return None, "built"
        start = time.perf_counter()
        with stage_timer.stage("BuildIndex"):
            repaired = cached_index.copy().apply_delta(csr, added, removed)
        self._metrics.counter("repro_index_delta_seconds_total").inc(
            time.perf_counter() - start
        )
        self._metrics.counter("repro_index_delta_edge_rows_total").inc(
            (len(added) + len(removed)) * cached_index.num_rows
        )
        return repaired, "delta"


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
