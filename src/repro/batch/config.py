"""Execution options and the per-algorithm table, each declared once.

:class:`ExecutionConfig` is the one place the execution options
(``algorithm``, ``gamma``, ``num_workers``, ``max_workers``, ``kernel``,
``cost_model``) are declared and validated; the public facades
(:class:`~repro.batch.engine.BatchQueryEngine`,
:class:`~repro.batch.service.IngestionService`, ``serve``) build one from
their keywords and the planner, the executor and the worker processes
receive it untouched.  :data:`ALGORITHM_TABLE` is the one place an
algorithm name is turned into anything — its display label, how the
planner shards and prices it, and the fragment generator that runs it.

This module sits below ``engine``, ``planner``, ``executor`` and
``service``: all four import it, it imports none of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Union

from repro.batch.basic_enum import BasicEnum, iter_pathenum_baseline
from repro.batch.batch_enum import BatchEnum
from repro.batch.results import FragmentStream
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.kernels import validate_kernel
from repro.graph.csr import CSRGraph
from repro.obs.feedback import cost_model_fields_from_snapshot
from repro.utils.validation import require, require_positive

NumWorkers = Union[int, str]


def validate_num_workers(value: NumWorkers) -> NumWorkers:
    """Validate a ``num_workers`` setting.

    Accepts a positive integer or the string ``"auto"``; anything else
    (zero, negatives, bools, floats, other strings) raises ``ValueError``.
    """
    if isinstance(value, str):
        require(
            value == "auto",
            f"num_workers must be a positive integer or 'auto', got {value!r}",
        )
        return value
    require(
        isinstance(value, int) and not isinstance(value, bool),
        f"num_workers must be a positive integer or 'auto', got {value!r}",
    )
    require(value >= 1, f"num_workers must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class CostModel:
    """Calibration constants translating plan statistics into seconds.

    The defaults are fixed constants (pure-Python substrate, fork-server
    process pool); :meth:`from_observed` recalibrates them from live
    traffic.

    Attributes
    ----------
    spawn_overhead_base:
        Fixed cost of standing up the process pool at all (pool creation,
        initializer pickling of the graph).
    spawn_overhead_per_worker:
        Additional cost per worker process.
    seconds_per_cost_unit:
        Wall seconds per estimated enumeration cost unit
        (:func:`~repro.batch.planner.estimate_query_cost`).
    seconds_per_index_entry:
        Per reachable (vertex, distance) entry cost of running the
        per-endpoint BFS that builds the index.
    seconds_per_shipped_byte:
        Per-byte cost of serializing + piping + deserializing the
        array-backed index rows into the workers.
    seconds_per_delta_edge:
        Per (changed edge × index row) cost of incremental
        :meth:`~repro.bfs.distance_index.CSRDistanceIndex.apply_delta`
        repair: fix up the previous batch's index instead of re-running
        every BFS from scratch.
    parallel_benefit_margin:
        ``auto`` only shards when the predicted parallel wall time is below
        this fraction of the predicted sequential wall time — a hedge
        against estimation error, biased toward the (always correct)
        sequential plan.
    """

    spawn_overhead_base: float = 0.04
    spawn_overhead_per_worker: float = 0.03
    seconds_per_cost_unit: float = 5e-6
    seconds_per_index_entry: float = 4e-7
    seconds_per_shipped_byte: float = 2e-9
    seconds_per_delta_edge: float = 2e-5
    parallel_benefit_margin: float = 0.75

    def delta_repair_seconds(
        self, num_changed_edges: int, index: CSRDistanceIndex
    ) -> float:
        """Estimated cost of repairing ``index`` for a netted edge delta.

        Repair touches each indexed row once per changed edge in the worst
        case (affected-region detection is per row), hence the
        ``edges × rows`` product.
        """
        return num_changed_edges * index.num_rows * self.seconds_per_delta_edge

    def delta_repair_wins(
        self, num_changed_edges: int, index: CSRDistanceIndex
    ) -> bool:
        """Whether repairing beats rebuilding the index."""
        rebuild = index.size_in_entries * self.seconds_per_index_entry
        return self.delta_repair_seconds(num_changed_edges, index) < rebuild

    def spawn_seconds(self, num_workers: int) -> float:
        """Estimated pool spawn overhead for ``num_workers`` processes."""
        if num_workers <= 1:
            return 0.0
        return (
            self.spawn_overhead_base
            + self.spawn_overhead_per_worker * num_workers
        )

    @classmethod
    def from_observed(cls, registry, **overrides: float) -> "CostModel":
        """Recalibrate from live traffic recorded in a metrics registry.

        ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or
        any object with a ``snapshot()`` method, or an already-taken
        snapshot dict).  The instrumented planner/executor record
        predicted-cost-units vs. actual-enumeration-seconds, index-build
        entries vs. seconds, delta-repair edge-rows vs. seconds, and
        shipped bytes vs. deserialize seconds; each pair with signal
        recalibrates the corresponding rate constant.  Fields without
        observed signal keep their defaults, and explicit ``overrides``
        win over both — so recalibration degrades gracefully on sparse
        traffic instead of zeroing constants.
        """
        snapshot = registry.snapshot() if hasattr(registry, "snapshot") else registry
        fields = cost_model_fields_from_snapshot(snapshot)
        fields.update(overrides)
        return cls(**fields)


#: What a table row's ``runner`` returns: ``queries -> FragmentStream``
#: (the index-sharing enumerators' ``iter_run`` also accepts the planner's
#: prebuilt ``workload``/``clusters``/``kernels``).
Runner = Callable[..., FragmentStream]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One row of :data:`ALGORITHM_TABLE`: everything the pipeline needs
    to know about an algorithm name.

    Attributes
    ----------
    display_name:
        Label reported in ``BatchResult.algorithm`` (the paper's name).
    runner:
        ``(sealed snapshot, config, concrete kernel) -> Runner``.
    clustered:
        Sharing-aware: a batch is sharded per cluster, otherwise into
        contiguous batch slices.
    indexed:
        Reads the shared distance index; a parallel plan ships each
        shard its endpoints' rows of the parent-built index.
    optimize_search_order:
        The "+" variants' adaptive forward/backward budget split.
    """

    display_name: str
    runner: Callable[[CSRGraph, "ExecutionConfig", str], Runner]
    clustered: bool = False
    indexed: bool = False
    optimize_search_order: bool = False


def make_enumerator(
    snapshot: CSRGraph, config: "ExecutionConfig", kernel: str
) -> Union[BatchEnum, BasicEnum]:
    """The index-sharing enumerator of ``config.algorithm`` on ``snapshot``.

    The one place ``BatchEnum``/``BasicEnum`` are constructed for the
    engine (planned or not) and for both worker tasks, so a shard meets the
    same object whoever runs it.
    """
    spec = ALGORITHM_TABLE[config.algorithm]
    if spec.clustered:
        return BatchEnum(
            snapshot,
            gamma=config.gamma,
            optimize_search_order=spec.optimize_search_order,
            kernel=kernel,
        )
    return BasicEnum(
        snapshot,
        optimize_search_order=spec.optimize_search_order,
        kernel=kernel,
    )


def _enumerator_runner(snapshot, config, kernel) -> Runner:
    return make_enumerator(snapshot, config, kernel).iter_run


def _pathenum_runner(snapshot, config, kernel) -> Runner:
    return partial(iter_pathenum_baseline, snapshot, kernel=kernel)


#: Engine algorithm name -> its :class:`AlgorithmSpec` (the paper's
#: Section V line-up, less the Exp-6 k-shortest-path baselines, which are
#: plain :mod:`repro.baselines` functions).
ALGORITHM_TABLE: Dict[str, AlgorithmSpec] = {
    "pathenum": AlgorithmSpec("PathEnum", _pathenum_runner),
    "basic": AlgorithmSpec("BasicEnum", _enumerator_runner, indexed=True),
    "basic+": AlgorithmSpec(
        "BasicEnum+", _enumerator_runner, indexed=True,
        optimize_search_order=True,
    ),
    "batch": AlgorithmSpec(
        "BatchEnum", _enumerator_runner, clustered=True, indexed=True
    ),
    "batch+": AlgorithmSpec(
        "BatchEnum+", _enumerator_runner, clustered=True, indexed=True,
        optimize_search_order=True,
    ),
}

#: Canonical algorithm names accepted by the engine.
ALGORITHMS = tuple(ALGORITHM_TABLE)


@dataclass(frozen=True)
class ExecutionConfig:
    """The execution options of one engine/service, validated on
    construction and immutable afterwards (hashable, picklable: it travels
    to the workers through the pool initializer).

    Attributes
    ----------
    algorithm:
        One of :data:`ALGORITHMS`.
    gamma:
        Clustering threshold γ for the sharing-aware algorithms.
    num_workers:
        Positive integer, or ``"auto"`` to let the planner's cost model
        decide per batch.
    max_workers:
        Ceiling for ``"auto"`` resolution; ``None`` resolves to
        ``os.cpu_count()`` here.  Explicit integer ``num_workers``
        requests are honoured beyond it.
    kernel:
        ``"auto"`` and ``"python"`` run the pure-Python search on every
        route; ``"numpy"`` forces the vectorized kernel and is refused
        here when numpy is absent.
    cost_model:
        The planner's calibration constants; ``None`` resolves to the
        default :class:`CostModel` here.
    """

    algorithm: str = "batch+"
    gamma: float = 0.5
    num_workers: NumWorkers = "auto"
    max_workers: Optional[int] = None
    kernel: str = "auto"
    cost_model: Optional[CostModel] = None

    def __post_init__(self) -> None:
        require(
            self.algorithm in ALGORITHM_TABLE,
            f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}",
        )
        require(0.0 <= self.gamma <= 1.0, "gamma must be within [0, 1]")
        validate_num_workers(self.num_workers)
        validate_kernel(self.kernel)
        if self.max_workers is None:
            object.__setattr__(self, "max_workers", os.cpu_count() or 1)
        require_positive(self.max_workers, "max_workers")
        if self.cost_model is None:
            object.__setattr__(self, "cost_model", CostModel())
        require(
            isinstance(self.cost_model, CostModel),
            f"cost_model must be a CostModel, got {self.cost_model!r}",
        )
