"""Continuous-ingestion demo: serve queries while batches are in flight.

Simulates a trickle of arrivals against a multi-community graph through
:func:`repro.serve`:

* each ``submit`` returns immediately with a :class:`QueryTicket`;
* the background scheduler groups arrivals into micro-batches
  (``max_batch_size`` / ``max_delay_s``), and ClusterQuery shares work
  among the look-alike queries inside each batch;
* tickets resolve as their shard/cluster completes — the demo prints each
  resolution with its submit→result latency, then the service stats.

Run with::

    PYTHONPATH=src python examples/service_demo.py
"""

from __future__ import annotations

import random
import time

from repro import DiGraph, HCSTQuery, serve
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries

COMMUNITIES = ((60, 280, 4), (40, 150, 4), (30, 90, 3))


def build_workload():
    edges, queries, offset = [], [], 0
    for index, (num_vertices, num_edges, k) in enumerate(COMMUNITIES):
        community = random_directed_gnm(num_vertices, num_edges, seed=index)
        edges.extend((offset + u, offset + v) for u, v in community.edges())
        for query in generate_random_queries(
            community, 4, min_k=k, max_k=k, seed=index
        ):
            queries.append(HCSTQuery(offset + query.s, offset + query.t, query.k))
        offset += num_vertices
    rng = random.Random(0)
    rng.shuffle(queries)
    return DiGraph.from_edges(edges, num_vertices=offset), queries


def main() -> None:
    graph, queries = build_workload()
    print(f"Graph: {graph}; {len(queries)} queries arriving continuously\n")

    with serve(
        graph,
        algorithm="batch+",
        max_batch_size=4,      # dispatch at 4 waiting queries...
        max_delay_s=0.01,      # ...once arrivals go quiet, at most 10ms
                               # after the first one arrived
    ) as service:
        start = time.perf_counter()
        tickets = []
        for index, query in enumerate(queries):
            tickets.append(service.submit(query))
            time.sleep(0.003)  # ~333 arrivals/s
        for index, ticket in enumerate(tickets):
            paths = ticket.result(timeout=60.0)
            print(
                f"  query {index:2d} {str(ticket.query):<24} -> "
                f"{len(paths):3d} path(s) in {ticket.latency_s * 1000:7.2f}ms"
            )
        wall = time.perf_counter() - start
        stats = service.stats()

    print(f"\nall {len(queries)} tickets resolved in {wall:.3f}s")
    print(
        f"micro-batches: {stats.batches_dispatched} dispatched, "
        f"mean size {stats.mean_batch_size:.1f}"
    )
    print(
        f"latency: mean {stats.mean_ticket_latency_s * 1000:.2f}ms | "
        f"sharing: {stats.sharing.num_shared_nodes} shared HC-s nodes, "
        f"{stats.sharing.cache_reuse_count} cache reuses"
    )


if __name__ == "__main__":
    main()
