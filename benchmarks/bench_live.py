"""Live-graph serving benchmark: delta repair vs. rebuild, stream continuity.

Two measurements back the PR 7 multi-version serving claims:

1. **Index repair latency** — for a sweep of graph sizes, apply single-edge
   mutations and time ``CSRDistanceIndex.apply_delta`` (bounded-frontier
   BFS re-relaxation on a copy) against a fresh ``build_index``
   (multi-source BFS from scratch).  Every repaired index is verified
   byte-identical to the rebuild before its timing counts.  The acceptance
   gate: mean repair latency beats mean rebuild latency on single-edge
   updates.

2. **Stream continuity under churn** — run a streaming batch while N
   interleaved ``add_edge``/``remove_edge`` mutations land on the live
   graph.  Before multi-version snapshots, the first flush after a
   mutation raised ``RuntimeError``; now the run must complete with zero
   errors and match the closed-batch oracle of the admitted version.

Writes ``BENCH_live.json`` next to the repo root.  Standalone::

    PYTHONPATH=src python benchmarks/bench_live.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path

from repro.batch.engine import BatchQueryEngine
from repro.bfs.distance_index import build_index
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_live.json"

#: (vertices, edges) sweep for the repair-vs-rebuild comparison.
REPAIR_SIZES = ((200, 800), (400, 1600), (800, 3200))
ENDPOINTS = 6
MAX_HOPS = 5
MUTATIONS_PER_SIZE = 20

#: Stream-continuity workload.
STREAM_GRAPH = (60, 240)
STREAM_QUERIES = 8
STREAM_MUTATIONS = 25
ALGORITHM = "batch+"


def _random_single_edge_mutation(graph, rng):
    """Apply one add or remove; return ``(added, removed)`` lists."""
    if rng.random() < 0.5 and graph.num_edges > 0:
        edge = rng.choice(sorted(graph.edges()))
        graph.remove_edge(*edge)
        return [], [edge]
    while True:
        u = rng.randrange(graph.num_vertices)
        v = rng.randrange(graph.num_vertices)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            return [(u, v)], []


def bench_repair(num_vertices, num_edges, mutations, seed=0):
    rng = random.Random(seed)
    graph = random_directed_gnm(num_vertices, num_edges, seed=seed)
    sources = sorted(rng.sample(range(num_vertices), ENDPOINTS))
    targets = sorted(rng.sample(range(num_vertices), ENDPOINTS))
    index = build_index(graph, sources, targets, MAX_HOPS)
    repair_s, rebuild_s = [], []
    for _ in range(mutations):
        added, removed = _random_single_edge_mutation(graph, rng)

        start = time.perf_counter()
        fresh = build_index(graph, sources, targets, MAX_HOPS)
        rebuild_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        repaired = index.copy().apply_delta(graph, added, removed)
        repair_s.append(time.perf_counter() - start)

        assert repaired.to_bytes() == fresh.to_bytes(), (
            "apply_delta diverged from build_index"
        )
        index = repaired  # chain: next mutation repairs the repaired index
    mean_repair = sum(repair_s) / len(repair_s)
    mean_rebuild = sum(rebuild_s) / len(rebuild_s)
    return {
        "num_vertices": num_vertices,
        "num_edges": num_edges,
        "mutations": mutations,
        "index_rows": index.num_rows,
        "mean_repair_s": mean_repair,
        "mean_rebuild_s": mean_rebuild,
        "speedup": mean_rebuild / mean_repair if mean_repair > 0 else float("inf"),
        "repair_beats_rebuild": mean_repair < mean_rebuild,
    }


def bench_stream_continuity(num_mutations, seed=1):
    graph = random_directed_gnm(*STREAM_GRAPH, seed=seed)
    rng = random.Random(seed)
    queries = generate_random_queries(
        graph, STREAM_QUERIES, min_k=2, max_k=4, seed=seed
    )
    oracle = (
        BatchQueryEngine(graph.copy(), algorithm=ALGORITHM)
        .run(queries)
        .paths_by_position
    )
    engine = BatchQueryEngine(graph, algorithm=ALGORITHM)
    errors = 0
    start = time.perf_counter()
    stream = engine.stream(queries, ordered=True)
    streamed = {}
    try:
        position, paths = next(stream)
        streamed[position] = paths
        for _ in range(num_mutations):
            _random_single_edge_mutation(graph, rng)
        streamed.update(stream)
    except RuntimeError:
        errors += 1
    wall_s = time.perf_counter() - start
    return {
        "num_mutations": num_mutations,
        "num_queries": len(queries),
        "runtime_errors": errors,
        "matches_pinned_oracle": streamed == oracle,
        "wall_s": wall_s,
    }


def run(quick: bool = False) -> dict:
    sizes = REPAIR_SIZES[:1] if quick else REPAIR_SIZES
    mutations = 6 if quick else MUTATIONS_PER_SIZE
    stream_mutations = 10 if quick else STREAM_MUTATIONS

    repair_records = []
    for num_vertices, num_edges in sizes:
        record = bench_repair(num_vertices, num_edges, mutations)
        repair_records.append(record)
        print(
            f"  repair V={num_vertices:4d} E={num_edges:5d} | "
            f"repair {record['mean_repair_s'] * 1e3:7.3f}ms | "
            f"rebuild {record['mean_rebuild_s'] * 1e3:7.3f}ms | "
            f"speedup {record['speedup']:5.1f}x"
        )

    continuity = bench_stream_continuity(stream_mutations)
    print(
        f"  stream continuity: {continuity['num_mutations']} mutations, "
        f"{continuity['runtime_errors']} RuntimeErrors, "
        f"oracle match={continuity['matches_pinned_oracle']}"
    )

    artifact = {
        "benchmark": "live_graph_serving",
        "algorithm": ALGORITHM,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "delta_repair": repair_records,
        "stream_continuity": continuity,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    return artifact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sweep")
    args = parser.parse_args()
    artifact = run(quick=args.quick)
    continuity = artifact["stream_continuity"]
    # Continuity is gated even on --quick: it is a correctness property,
    # not a timing race.  The repair-beats-rebuild gate is timing and only
    # binds on the full sweep (quick runs on tiny graphs where a rebuild
    # is already microseconds).
    assert continuity["runtime_errors"] == 0, (
        "mutation killed an in-flight stream"
    )
    assert continuity["matches_pinned_oracle"], (
        "stream diverged from its admitted version's oracle"
    )
    if not args.quick:
        assert all(
            record["repair_beats_rebuild"]
            for record in artifact["delta_repair"]
        ), "apply_delta failed to beat a full rebuild on single-edge updates"


if __name__ == "__main__":
    main()
