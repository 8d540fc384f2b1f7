"""Vectorized-kernel benchmark (perf artifact).

**Kernel speedup** — time the pure-Python explicit-stack search against the
numpy level-synchronous kernel on single-query workloads whose frontiers
are wide enough to vectorize (dense random digraphs).  Every numpy run is
verified **byte-identical** to its pure-Python twin before its timing
counts.  Full-mode gate: the heavy workload clears :data:`SPEEDUP_GATE`x.

The parallel speed-up is not measured here: it is ``deep_paths`` against
``deep_paths_sharded`` in ``benchmarks/perf/run.py``.

numpy is optional: without it the sweep is skipped (recorded as
``"skipped"``).  Writes ``BENCH_kernels.json`` next to the repo root.
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

from repro.bfs.distance_index import build_index
from repro.enumeration.kernels import NUMPY_AVAILABLE
from repro.enumeration.path_enum import PathEnum
from repro.graph.generators import random_directed_gnm
from repro.queries.query import HCSTQuery

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Full-mode single-query kernel workloads: (vertices, edges, k).  The last
#: one is the gated heavy workload — a wide, prune-heavy frontier where the
#: level-synchronous expansion dominates bytecode dispatch.
KERNEL_SWEEP = ((2000, 60_000, 5), (4000, 120_000, 5), (8000, 320_000, 4))
QUICK_KERNEL_SWEEP = ((1000, 30_000, 4),)
SPEEDUP_GATE = 3.0
KERNEL_ROUNDS = 3


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


def run(quick: bool = False) -> dict:
    if NUMPY_AVAILABLE:
        sweep = QUICK_KERNEL_SWEEP if quick else KERNEL_SWEEP
        kernel_records = bench_kernel_speedup(sweep, rounds=2 if quick else KERNEL_ROUNDS)
    else:
        kernel_records = "skipped"
        print("  kernel sweep skipped: numpy not importable")

    artifact = {
        "benchmark": "kernels",
        "quick": quick,
        "numpy_available": NUMPY_AVAILABLE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_speedup": kernel_records,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    return artifact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sweep")
    args = parser.parse_args()
    artifact = run(quick=args.quick)

    # Byte-identity is gated even on --quick (correctness, not timing):
    # bench_kernel_speedup asserts it inline before any timing is recorded.
    # The timing gate binds on the full sweep only.
    if not args.quick and artifact["kernel_speedup"] != "skipped":
        heavy = artifact["kernel_speedup"][-1]
        assert heavy["speedup"] >= SPEEDUP_GATE, (
            f"numpy kernel speedup {heavy['speedup']:.2f}x fell below the "
            f"{SPEEDUP_GATE}x gate on the heavy workload"
        )


if __name__ == "__main__":
    main()
