"""Telemetry demo: the ingestion service under load, fully observed.

Stands up :func:`repro.serve` with a live
:class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.Tracer`
injected (the default is the no-op null objects — telemetry is strictly
opt-in), replays a burst of queries, and then prints what the
instrumentation saw:

* the span tree of one dispatched micro-batch — ``batch`` at the root,
  the planner's ``plan`` and its ``shard`` (clustering) phase;
* how each micro-batch's plan obtained its distance index — built fresh,
  reused from the previous batch, or delta-repaired — from the
  ``repro_plan_index_strategy_total{strategy}`` counters;
* the full registry in Prometheus text exposition format — exactly what
  a ``/metrics`` endpoint would serve.

Run with::

    PYTHONPATH=src python examples/metrics_demo.py
"""

from __future__ import annotations

import time

from repro import DiGraph, HCSTQuery, serve
from repro.graph.generators import random_directed_gnm
from repro.obs import MetricsRegistry, Tracer
from repro.queries.generation import generate_random_queries

COMMUNITIES = ((60, 280, 4), (40, 150, 4), (30, 90, 3))
QUERIES_PER_COMMUNITY = 5


def build_workload():
    edges, queries, offset = [], [], 0
    for index, (num_vertices, num_edges, k) in enumerate(COMMUNITIES):
        community = random_directed_gnm(num_vertices, num_edges, seed=index)
        edges.extend((offset + u, offset + v) for u, v in community.edges())
        for query in generate_random_queries(
            community, QUERIES_PER_COMMUNITY, min_k=k, max_k=k, seed=index
        ):
            queries.append(HCSTQuery(offset + query.s, offset + query.t, query.k))
        offset += num_vertices
    return DiGraph.from_edges(edges, num_vertices=offset), queries


def main() -> None:
    graph, queries = build_workload()
    registry, tracer = MetricsRegistry(), Tracer()
    print(f"Graph: {graph}; {len(queries)} queries, telemetry ON\n")

    with serve(
        graph,
        algorithm="batch+",
        max_batch_size=5,
        metrics=registry,
        tracer=tracer,
    ) as service:
        tickets = []
        for query in queries:
            tickets.append(service.submit(query))
            time.sleep(0.002)
        for ticket in tickets:
            ticket.result(timeout=60.0)
        stats = service.stats()

    print("=== span tree of one micro-batch ===")
    print(tracer.render_tree(tracer.find_trace("batch")))

    print("\n=== index strategy per micro-batch plan ===")
    for series, count in sorted(registry.snapshot()["counters"].items()):
        if series.startswith("repro_plan_index_strategy_total"):
            print(f"  {series} {count:.0f}")

    print(
        f"\n=== Prometheus snapshot "
        f"({stats.batches_dispatched} micro-batches dispatched) ==="
    )
    print(registry.render_prometheus())


if __name__ == "__main__":
    main()
