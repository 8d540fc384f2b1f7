"""Execution options and the per-algorithm table, each declared once.

:class:`ExecutionConfig` is the one place the execution options
(``algorithm``, ``gamma``, ``num_workers``, ``max_workers``) are declared
and validated; the public facades
(:class:`~repro.batch.engine.BatchQueryEngine`,
:class:`~repro.batch.service.IngestionService`, ``serve``) build one from
their keywords and the planner, the executor and the worker processes
receive it untouched.  :data:`ALGORITHM_TABLE` is the one place an
algorithm name is turned into anything — its display label and how the
planner shards it — and :func:`run_shard` the one place it is turned
into the fragment generator that runs it, which is how every plan
executes: the whole batch in this process, or one shard in a worker.

This module sits below ``engine``, ``planner``, ``executor`` and
``service``: all four import it, it imports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.batch.basic_enum import iter_pathenum_baseline
from repro.batch.batch_enum import BatchEnum
from repro.batch.results import FragmentStream
from repro.graph.csr import CSRGraph
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.validation import require, require_positive


def validate_num_workers(value: int) -> int:
    """Validate a ``num_workers`` setting.

    Accepts a positive integer; anything else (zero, negatives, bools,
    floats, strings) raises ``ValueError``.
    """
    require(
        isinstance(value, int) and not isinstance(value, bool),
        f"num_workers must be a positive integer, got {value!r}",
    )
    require(value >= 1, f"num_workers must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class AlgorithmSpec:
    """One row of :data:`ALGORITHM_TABLE`: everything the pipeline needs
    to know about an algorithm name.

    Attributes
    ----------
    display_name:
        Label reported in ``BatchResult.algorithm`` (the paper's name).
    clustered:
        Runs ClusterQuery: a batch is sharded per cluster, otherwise into
        contiguous batch slices, and every query is a cluster of one.
    indexed:
        Reads the plan's shared distance index (runs :class:`BatchEnum`),
        in this process or in a worker.  ``pathenum`` alone builds one per
        query.
    optimize_search_order:
        The "+" variants' adaptive forward/backward budget split.
    """

    display_name: str
    clustered: bool = False
    indexed: bool = False
    optimize_search_order: bool = False


def run_shard(
    snapshot: CSRGraph,
    config: "ExecutionConfig",
    queries: Sequence[HCSTQuery],
    workload: Optional[QueryWorkload] = None,
    clusters: Optional[List[List[int]]] = None,
) -> FragmentStream:
    """Run ``queries`` on ``workload``'s index with ``clusters`` under
    ``config.algorithm``: the one execution call of a plan, made for the
    whole batch in this process and for each shard in a worker, so a shard
    meets the same enumerator whoever runs it — the per-query PathEnum
    baseline, or :class:`BatchEnum` (``cluster=False`` for
    ``basic``/``basic+``).

    ``workload`` holds ``queries`` and the plan's distance index (``None``
    for ``pathenum``, which builds one per query); its stage timer records
    the stages.  ``clusters`` lists positions into ``queries``; ``None``
    makes every position a cluster of one for ``basic``/``basic+``.
    Fragments are keyed by position in ``queries``.
    """
    spec = ALGORITHM_TABLE[config.algorithm]
    if not spec.indexed:
        return iter_pathenum_baseline(snapshot, queries)
    enumerator = BatchEnum(
        snapshot,
        gamma=config.gamma,
        optimize_search_order=spec.optimize_search_order,
        cluster=spec.clustered,
    )
    return enumerator.iter_run(queries, workload=workload, clusters=clusters)


#: Engine algorithm name -> its :class:`AlgorithmSpec` (the paper's
#: Section V line-up, less the Exp-6 k-shortest-path baselines, which are
#: plain :mod:`repro.baselines` functions).
ALGORITHM_TABLE: Dict[str, AlgorithmSpec] = {
    "pathenum": AlgorithmSpec("PathEnum"),
    "basic": AlgorithmSpec("BasicEnum", indexed=True),
    "basic+": AlgorithmSpec(
        "BasicEnum+", indexed=True, optimize_search_order=True
    ),
    "batch": AlgorithmSpec("BatchEnum", clustered=True, indexed=True),
    "batch+": AlgorithmSpec(
        "BatchEnum+", clustered=True, indexed=True, optimize_search_order=True
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
        Positive integer: the number of processes a batch runs on.  The
        default, 1, runs it in the caller's process — nothing forecasts
        whether a fan-out would pay, so only a caller asking for a number
        gets one.
    max_workers:
        Inert: validated when given, read by nothing.  It stays a keyword
        only because the benchmark harness passes it (ROADMAP item 9).
    """

    algorithm: str = "batch+"
    gamma: float = 0.5
    num_workers: int = 1
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        require(
            self.algorithm in ALGORITHM_TABLE,
            f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}",
        )
        require(0.0 <= self.gamma <= 1.0, "gamma must be within [0, 1]")
        validate_num_workers(self.num_workers)
        if self.max_workers is not None:
            require_positive(self.max_workers, "max_workers")
