"""Quickstart: batch hop-constrained s-t simple path queries.

Builds the paper's running example graph (Fig. 1), submits the five example
queries as one batch, and prints every result path, the per-stage timing
decomposition and the sharing statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import BatchQueryEngine, HCSTQuery
from repro.graph.generators import PAPER_EXAMPLE_QUERIES, paper_example_graph


def main() -> None:
    graph = paper_example_graph()
    queries = [HCSTQuery(s, t, k) for s, t, k in PAPER_EXAMPLE_QUERIES]

    print(f"Graph: {graph}")
    print(f"Batch: {len(queries)} HC-s-t path queries\n")

    # "batch+" is BatchEnum+ — the paper's best algorithm.  Other choices:
    # "pathenum", "basic", "basic+", "batch".
    engine = BatchQueryEngine(graph, algorithm="batch+", gamma=0.8)
    result = engine.run(queries)

    for position, query in enumerate(queries):
        paths = result.sorted_paths_at(position)
        print(f"{query}: {len(paths)} path(s)")
        for path in paths:
            print("   " + " -> ".join(f"v{vertex}" for vertex in path))

    print("\nStage decomposition (seconds):")
    for stage, seconds in sorted(result.stage_timer.totals.items()):
        print(f"   {stage:<18s} {seconds:.6f}")

    sharing = result.sharing
    print(
        f"\nSharing: {sharing.num_clusters} cluster(s), "
        f"{sharing.num_shared_nodes} shared HC-s path queries, "
        f"{sharing.cache_reuse_count} cache reuses"
    )


if __name__ == "__main__":
    main()
