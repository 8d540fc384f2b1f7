"""repro — batch hop-constrained s-t simple path query processing.

A faithful, pure-Python reproduction of "Batch Hop-Constrained s-t Simple
Path Query Processing in Large Graphs" (ICDE 2024): the BatchEnum /
BatchEnum+ algorithms, the BasicEnum and PathEnum baselines, the adapted
k-shortest-path competitors, and one replay that regenerates the paper's
tables and figures as rows of one table on synthetic stand-ins for its
datasets (:mod:`repro.experiments.replay`).

Quickstart
----------
>>> from repro import DiGraph, HCSTQuery, BatchQueryEngine
>>> graph = DiGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
>>> engine = BatchQueryEngine(graph, algorithm="batch+")
>>> result = engine.run([HCSTQuery(s=0, t=3, k=3)])
>>> sorted(result.paths_at(0))
[(0, 1, 2, 3), (0, 2, 3)]

A batch runs in this process by default — plan (distance index,
clustering), then execute — and ``engine.explain(queries)`` returns that
plan without running it::

    engine = BatchQueryEngine(graph, algorithm="batch+")  # num_workers=1
    print(engine.explain(queries).describe())
    result = engine.run(queries)

An explicit ``num_workers >= 2`` shards the batch across worker
processes; results are merged by batch position and are identical to the
single-process run.

Results can also be *streamed*: ``engine.stream(queries)`` yields
``(batch_position, paths)`` tuples as soon as the owning shard/cluster
completes — with ``ordered=False`` the first finished cluster is
delivered immediately instead of waiting on the slowest one::

    for position, paths in engine.stream(queries, ordered=False):
        handle(position, paths)

For continuous traffic, :func:`serve` stands up an
:class:`IngestionService` that accepts queries *while batches are in
flight*, grouping arrivals into micro-batches and resolving per-query
:class:`QueryTicket` handles as results stream out::

    with serve(graph, algorithm="batch+") as service:
        ticket = service.submit(HCSTQuery(0, 3, 3))
        paths = ticket.result(timeout=30.0)

The enumeration hot paths are iterative (explicit-stack) searches over a
shared :class:`CSRGraph` snapshot, so arbitrarily deep hop constraints
never hit Python's recursion limit.
"""

from repro.graph.digraph import DiGraph
from repro.graph.csr import CSRGraph
from repro.queries.query import HCSTQuery, HCsPathQuery, Direction
from repro.queries.workload import QueryWorkload
from repro.enumeration.path_enum import PathEnum, enumerate_paths
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.batch.engine import BatchQueryEngine, ALGORITHMS
from repro.batch.basic_enum import BasicEnum
from repro.batch.batch_enum import BatchEnum
from repro.batch.results import BatchResult, SharingStats
from repro.batch.service import (
    AdmissionPolicy,
    IngestionService,
    QueryTicket,
    ServiceStats,
    serve,
)

__version__ = "1.1.0"

__all__ = [
    "DiGraph",
    "CSRGraph",
    "HCSTQuery",
    "HCsPathQuery",
    "Direction",
    "QueryWorkload",
    "PathEnum",
    "enumerate_paths",
    "enumerate_paths_brute_force",
    "BatchQueryEngine",
    "ALGORITHMS",
    "BasicEnum",
    "BatchEnum",
    "BatchResult",
    "SharingStats",
    "AdmissionPolicy",
    "IngestionService",
    "QueryTicket",
    "ServiceStats",
    "serve",
    "__version__",
]
