"""Execution options and the per-algorithm table, each declared once.

:class:`ExecutionConfig` is the one place the execution options
(``algorithm``, ``gamma``, ``num_workers``, ``max_workers``, ``kernel``)
are declared and validated; the public facades
(:class:`~repro.batch.engine.BatchQueryEngine`,
:class:`~repro.batch.service.IngestionService`, ``serve``) build one from
their keywords and the planner, the executor and the worker processes
receive it untouched.  :data:`ALGORITHM_TABLE` is the one place an
algorithm name is turned into anything — its display label and how the
planner shards it — and :func:`fragment_generator` the one place it is
turned into the fragment generator that runs it.

This module sits below ``engine``, ``planner``, ``executor`` and
``service``: all four import it, it imports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Union

from repro.batch.basic_enum import iter_pathenum_baseline
from repro.batch.batch_enum import BatchEnum
from repro.batch.results import FragmentStream
from repro.enumeration.kernels import validate_kernel
from repro.graph.csr import CSRGraph
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
        Reads the shared distance index (runs :class:`BatchEnum`); a
        parallel plan ships each shard its endpoints' rows of the
        parent-built index.  ``pathenum`` alone builds one per query.
    optimize_search_order:
        The "+" variants' adaptive forward/backward budget split.
    """

    display_name: str
    clustered: bool = False
    indexed: bool = False
    optimize_search_order: bool = False


def make_enumerator(
    snapshot: CSRGraph, config: "ExecutionConfig", kernel: str
) -> BatchEnum:
    """The index-sharing enumerator of ``config.algorithm`` on ``snapshot``.

    The one place ``BatchEnum`` is constructed for the engine (planned or
    not) and for both worker tasks, so a shard meets the same object
    whoever runs it; ``basic``/``basic+`` are its ``cluster=False`` form.
    """
    spec = ALGORITHM_TABLE[config.algorithm]
    return BatchEnum(
        snapshot,
        gamma=config.gamma,
        optimize_search_order=spec.optimize_search_order,
        kernel=kernel,
        cluster=spec.clustered,
    )


def fragment_generator(
    snapshot: CSRGraph, config: "ExecutionConfig", kernel: str
) -> Callable[..., FragmentStream]:
    """``queries -> FragmentStream`` for ``config.algorithm`` on
    ``snapshot``: the per-query PathEnum baseline, or the enumerator's
    ``iter_run`` (which also accepts the planner's prebuilt
    ``workload``/``clusters``)."""
    if not ALGORITHM_TABLE[config.algorithm].indexed:
        return partial(iter_pathenum_baseline, snapshot, kernel=kernel)
    return make_enumerator(snapshot, config, kernel).iter_run


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
        Positive integer: the number of processes a batch runs on.
        ``"auto"`` is 1 — nothing forecasts whether a fan-out would pay,
        so a batch runs in the caller's process unless the caller asks
        for a number (see :attr:`processes`).
    max_workers:
        Inert: validated when given, read by nothing.  It stays a keyword
        only because the benchmark harness passes it (ROADMAP item 9).
    kernel:
        ``"auto"`` and ``"python"`` run the pure-Python search on every
        route; ``"numpy"`` forces the vectorized kernel and is refused
        here when numpy is absent.
    """

    algorithm: str = "batch+"
    gamma: float = 0.5
    num_workers: NumWorkers = "auto"
    max_workers: Optional[int] = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        require(
            self.algorithm in ALGORITHM_TABLE,
            f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}",
        )
        require(0.0 <= self.gamma <= 1.0, "gamma must be within [0, 1]")
        validate_num_workers(self.num_workers)
        validate_kernel(self.kernel)
        if self.max_workers is not None:
            require_positive(self.max_workers, "max_workers")

    @property
    def processes(self) -> int:
        """How many processes a batch runs on: ``num_workers``, with
        ``"auto"`` as 1."""
        return 1 if self.num_workers == "auto" else self.num_workers
