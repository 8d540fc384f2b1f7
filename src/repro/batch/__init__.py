"""Batch HC-s-t path query processing — the paper's core contribution.

* :mod:`repro.batch.batch_enum` — Algorithm 4 (``BatchEnum``/``BatchEnum+``):
  shared enumeration with materialised HC-s path queries, the one
  index-sharing enumerator.  With ``cluster=False`` every query is a
  cluster of one (shared index, independent per-query PathEnum), which is
  Algorithm 1.
* :mod:`repro.batch.basic_enum` — ``BasicEnum``/``BasicEnum+``, that
  ``cluster=False`` configuration as a class, and the per-query PathEnum
  baseline (``pathenum``).
* :mod:`repro.batch.clustering` — Algorithm 2 (``ClusterQuery``).
* :mod:`repro.batch.detection` — Algorithm 3 (``DetectCommonQuery``) and the
  query sharing graph Ψ.
* :mod:`repro.batch.config` — the execution options, declared and
  validated once as the frozen :class:`ExecutionConfig`, and the one
  per-algorithm table (display name, clustered, indexed, "+") that engine,
  planner, executor and service all read.
* :mod:`repro.batch.engine` — the :class:`BatchQueryEngine` facade, with a
  blocking ``run``, a streaming ``stream`` front-end that flushes
  ``(batch_position, paths)`` tuples as shards, clusters or queries
  complete, and an ``explain()`` API returning the execution plan
  without running it.  A batch runs in the caller's
  process unless the caller asks for ``num_workers >= 2``.
* :mod:`repro.batch.planner` — :class:`QueryPlanner` emits an
  :class:`ExecutionPlan` (worker count as configured, shard assignments,
  index strategy) that the ingestion service and an
  explicit multi-process run execute.
* :mod:`repro.batch.executor` — the explicit multi-process fan-out: a
  process pool opened for the call (the sealed graph pickled once through
  its initializer, each shard task carrying its own endpoints' rows of the
  parent-built index), shard futures drained as they complete and result
  fragments keyed by batch position — plus the reorder-buffer flushing
  core every streaming route shares.
* :mod:`repro.batch.service` — continuous ingestion: an
  :class:`IngestionService` (module-level :func:`serve`) admits queries
  into micro-batches under an :class:`AdmissionPolicy` while earlier
  batches are in flight, resolving per-query :class:`QueryTicket` handles
  as results stream out.
"""

from repro.batch.results import BatchResult, SharingStats, drain
from repro.batch.cache import ResultCache
from repro.batch.sharing_graph import QuerySharingGraph, QueryNode
from repro.batch.clustering import cluster_queries
from repro.batch.detection import detect_common_queries, DetectionOutcome
from repro.batch.basic_enum import BasicEnum
from repro.batch.batch_enum import BatchEnum
from repro.batch.config import ALGORITHMS, ExecutionConfig, validate_num_workers
from repro.batch.engine import BatchQueryEngine
from repro.batch.planner import ExecutionPlan, QueryPlanner, ShardPlan
from repro.batch.executor import flush_fragments, stream_parallel
from repro.batch.service import (
    AdmissionPolicy,
    IngestionService,
    QueryTicket,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceStats,
    serve,
)

__all__ = [
    "stream_parallel",
    "flush_fragments",
    "AdmissionPolicy",
    "IngestionService",
    "QueryTicket",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceStats",
    "serve",
    "validate_num_workers",
    "ExecutionConfig",
    "ExecutionPlan",
    "QueryPlanner",
    "ShardPlan",
    "drain",
    "BatchResult",
    "SharingStats",
    "ResultCache",
    "QuerySharingGraph",
    "QueryNode",
    "cluster_queries",
    "detect_common_queries",
    "DetectionOutcome",
    "BasicEnum",
    "BatchEnum",
    "BatchQueryEngine",
    "ALGORITHMS",
]
