"""Vectorized-kernel benchmark (perf artifact).

Two measurements back the numpy-kernel claims:

1. **Kernel speedup** — time the pure-Python explicit-stack enumeration
   against the numpy level-synchronous kernel on workloads whose frontiers
   are wide enough to vectorize (dense random digraphs, meet-in-the-middle
   ``pathenum`` plus the sharing-aware ``batch+``).  Every numpy run is
   verified **byte-identical** to its pure-Python twin before its timing
   counts.  Full-mode gate: the heavy workload clears
   :data:`SPEEDUP_GATE`x.

2. **Parallel vs sequential** — the heavy batch at ``num_workers=2``
   against the single-process run.  The speedup gate only binds when the
   machine actually has ≥ 2 CPUs; on smaller containers the record is
   still written, with a printed skip note.

numpy is optional: without it the kernel section is skipped (recorded as
``"skipped"``) and the parallel section still runs on the pure-Python
substrate.  Writes ``BENCH_kernels.json`` next to the repo root.
Standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.batch.engine import BatchQueryEngine
from repro.bfs.distance_index import build_index
from repro.enumeration.kernels import NUMPY_AVAILABLE
from repro.enumeration.path_enum import PathEnum
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Full-mode single-query kernel workloads: (vertices, edges, k).  The last
#: one is the gated heavy workload — a wide, prune-heavy frontier where the
#: level-synchronous expansion dominates bytecode dispatch.
KERNEL_SWEEP = ((2000, 60_000, 5), (4000, 120_000, 5), (8000, 320_000, 4))
QUICK_KERNEL_SWEEP = ((1000, 30_000, 4),)
SPEEDUP_GATE = 3.0
KERNEL_ROUNDS = 3

#: Batch workload for the parallel-vs-sequential arm.
BATCH_GRAPH = (600, 6000)
BATCH_QUERIES = 12
PARALLEL_WORKERS = 2
ALGORITHM = "batch+"


def _best_of(fn, rounds=KERNEL_ROUNDS):
    best, value = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_kernel_speedup(sweep, rounds=KERNEL_ROUNDS, seed=3):
    """Pure-Python vs numpy search kernel, byte-identity gated.

    Measures ``PathEnum._search`` over a *pre-built* distance index at the
    full hop budget — the enumeration hot loop in isolation, without the
    index-build and ⊕-join stages both kernels share (those would dilute
    the comparison to the point of measuring BFS, not the kernel).  The
    full budget makes the tail levels prune hard under Lemma 3.1, which is
    exactly the explored >> recorded regime the level-synchronous
    expansion is built for.
    """
    records = []
    for num_vertices, num_edges, k in sweep:
        graph = random_directed_gnm(num_vertices, num_edges, seed=seed)
        query = HCSTQuery(0, num_vertices - 1, k)
        index = build_index(graph, [query.s], [query.t], k)

        def _search(kernel):
            return PathEnum(graph, index=index, kernel=kernel)._search(
                query, index, forward=True, budget=k
            )

        python_s, python_paths = _best_of(lambda: _search("python"), rounds)
        numpy_s, numpy_paths = _best_of(lambda: _search("numpy"), rounds)
        assert numpy_paths == python_paths, (
            f"numpy kernel diverged on V={num_vertices} E={num_edges} k={k}"
        )
        records.append(
            {
                "num_vertices": num_vertices,
                "num_edges": num_edges,
                "k": k,
                "num_paths": len(python_paths),
                "python_s": python_s,
                "numpy_s": numpy_s,
                "speedup": python_s / numpy_s if numpy_s > 0 else float("inf"),
                "byte_identical": True,
            }
        )
        print(
            f"  kernel V={num_vertices:5d} E={num_edges:6d} k={k} | "
            f"py {python_s * 1e3:8.2f}ms | np {numpy_s * 1e3:8.2f}ms | "
            f"speedup {records[-1]['speedup']:4.2f}x | "
            f"paths {len(python_paths)}"
        )
    return records


def _batch_workload(seed):
    graph = random_directed_gnm(*BATCH_GRAPH, seed=seed)
    queries = generate_random_queries(
        graph, BATCH_QUERIES, min_k=3, max_k=5, seed=seed
    )
    return graph, queries


def bench_parallel_vs_sequential():
    """Two workers against the single process on the heavy batch."""
    graph, queries = _batch_workload(5)
    sequential = BatchQueryEngine(
        graph, algorithm=ALGORITHM, kernel="python", num_workers=1
    )
    start = time.perf_counter()
    reference = sequential.run(queries)
    sequential_s = time.perf_counter() - start

    parallel = BatchQueryEngine(
        graph,
        algorithm=ALGORITHM,
        kernel="python",
        num_workers=PARALLEL_WORKERS,
    )
    start = time.perf_counter()
    result = parallel.run(queries)
    parallel_s = time.perf_counter() - start
    assert result.paths_by_position == reference.paths_by_position, (
        "parallel run diverged from the sequential reference"
    )
    return {
        "num_workers": PARALLEL_WORKERS,
        "cpu_count": os.cpu_count(),
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "speedup": sequential_s / parallel_s if parallel_s > 0 else float("inf"),
        "byte_identical": True,
    }


def run(quick: bool = False) -> dict:
    if NUMPY_AVAILABLE:
        sweep = QUICK_KERNEL_SWEEP if quick else KERNEL_SWEEP
        kernel_records = bench_kernel_speedup(sweep, rounds=2 if quick else KERNEL_ROUNDS)
    else:
        kernel_records = "skipped"
        print("  kernel sweep skipped: numpy not importable")

    parallel = bench_parallel_vs_sequential()
    print(
        f"  parallel x{parallel['num_workers']}: "
        f"seq {parallel['sequential_s']:6.3f}s | "
        f"par {parallel['parallel_s']:6.3f}s | "
        f"speedup {parallel['speedup']:4.2f}x "
        f"(cpu_count={parallel['cpu_count']})"
    )

    artifact = {
        "benchmark": "kernels",
        "algorithm": ALGORITHM,
        "quick": quick,
        "numpy_available": NUMPY_AVAILABLE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_speedup": kernel_records,
        "parallel_vs_sequential": parallel,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    return artifact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sweep")
    args = parser.parse_args()
    artifact = run(quick=args.quick)

    # Byte-identity is gated even on --quick (correctness, not timing): the
    # run() helpers assert it inline before any timing is recorded.  Timing
    # gates bind on the full sweep only — and the parallel gate only on
    # machines that can actually run two workers at once.
    if not args.quick and artifact["kernel_speedup"] != "skipped":
        heavy = artifact["kernel_speedup"][-1]
        assert heavy["speedup"] >= SPEEDUP_GATE, (
            f"numpy kernel speedup {heavy['speedup']:.2f}x fell below the "
            f"{SPEEDUP_GATE}x gate on the heavy workload"
        )
    cpu_count = os.cpu_count() or 1
    if not args.quick and cpu_count >= 2:
        parallel = artifact["parallel_vs_sequential"]
        assert parallel["speedup"] > 1.0, (
            "two workers failed to beat the sequential run"
        )
    elif cpu_count < 2:
        print(
            f"  parallel-beats-sequential gate skipped: cpu_count={cpu_count}"
        )


if __name__ == "__main__":
    main()
