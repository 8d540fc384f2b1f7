"""Telemetry overhead benchmark: instrumented vs. null-registry engine.

Replays the Fig.-11-style workload (a Table-I dataset sample, 15 random
queries, ``batch+``) through two otherwise identical engines:

* ``null`` — the default: no ``metrics=``/``tracer=``, so every telemetry
  call hits the no-op ``NULL_REGISTRY``/``NULL_TRACER`` singletons;
* ``live`` — a fresh :class:`~repro.obs.MetricsRegistry` and
  :class:`~repro.obs.Tracer` injected, spans and counters recording.

The two modes alternate (null, live, null, live, ...) so slow drift in
machine load hits both equally.  Two acceptance gates:

* **identical results** — every repeat of either mode must return exactly
  the same paths per batch position as the first null run (the null
  objects are allocation-free *and* behaviour-free, and live
  instrumentation must never change what is computed);
* **< 3% wall overhead** — comparing best-of-repeats wall times (the
  stable point estimate under scheduler jitter; medians are also
  recorded), the live engine must stay within ``MAX_OVERHEAD_FRACTION``
  of the null engine.  The gate applies to full runs only — ``--quick``
  (the CI configuration) still verifies identical results but skips the
  timing assertion, which needs the larger workload to rise above noise.

Writes ``BENCH_obs.json`` next to the repo root.  Standalone::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

from repro.batch.engine import BatchQueryEngine
from repro.experiments.datasets import load_dataset
from repro.graph.sampling import sample_vertices
from repro.obs import MetricsRegistry, Tracer
from repro.queries.generation import generate_random_queries

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

ALGORITHM = "batch+"
NUM_QUERIES = 15
#: (dataset, vertex-sample fraction, timed repeats per mode).
FULL_CONFIG = ("BK", 1.0, 7)
QUICK_CONFIG = ("EP", 0.4, 2)

MAX_OVERHEAD_FRACTION = 0.03


def build_workload(dataset: str, fraction: float):
    graph = sample_vertices(load_dataset(dataset), fraction, seed=0)
    queries = generate_random_queries(
        graph, NUM_QUERIES, min_k=3, max_k=4, seed=0
    )
    return graph, queries


def run_mode(graph, queries, live: bool):
    """One timed run; returns (wall seconds, result, registry, tracer)."""
    registry = MetricsRegistry() if live else None
    tracer = Tracer() if live else None
    engine = BatchQueryEngine(
        graph,
        algorithm=ALGORITHM,
        metrics=registry,
        tracer=tracer,
    )
    start = time.perf_counter()
    result = engine.run(queries)
    return time.perf_counter() - start, result, registry, tracer


def paths_signature(result, num_queries: int):
    """Exact per-position paths — byte-identical comparison across modes."""
    return [result.paths_at(position) for position in range(num_queries)]


def run(quick: bool = False) -> dict:
    dataset, fraction, repeats = QUICK_CONFIG if quick else FULL_CONFIG
    graph, queries = build_workload(dataset, fraction)
    print(
        f"workload: {dataset} fraction={fraction} -> {graph}, "
        f"{len(queries)} queries, algorithm={ALGORITHM}"
    )

    # Warm both code paths (imports, dataset caches, freq scaling).
    _, oracle, _, _ = run_mode(graph, queries, live=False)
    expected = paths_signature(oracle, len(queries))
    _, warm_live, _, _ = run_mode(graph, queries, live=True)
    assert paths_signature(warm_live, len(queries)) == expected, (
        "instrumented engine changed results"
    )

    walls = {"null": [], "live": []}
    last_registry = last_tracer = None
    for _ in range(repeats):
        for mode in ("null", "live"):
            wall, result, registry, tracer = run_mode(
                graph, queries, live=mode == "live"
            )
            assert paths_signature(result, len(queries)) == expected, (
                f"{mode} run diverged from the baseline result"
            )
            walls[mode].append(wall)
            if registry is not None:
                last_registry, last_tracer = registry, tracer

    best_null, best_live = min(walls["null"]), min(walls["live"])
    overhead = best_live / best_null - 1.0
    spans = len(last_tracer.spans())
    series = len(last_registry.snapshot()["counters"]) + len(
        last_registry.snapshot()["histograms"]
    )
    print(
        f"  null best {best_null * 1000:7.2f}ms (median "
        f"{statistics.median(walls['null']) * 1000:7.2f}ms) | "
        f"live best {best_live * 1000:7.2f}ms (median "
        f"{statistics.median(walls['live']) * 1000:7.2f}ms) | "
        f"overhead {overhead * 100:+.2f}% | {spans} spans, {series} series"
    )
    if not quick:
        assert overhead < MAX_OVERHEAD_FRACTION, (
            f"instrumentation overhead {overhead * 100:.2f}% exceeds the "
            f"{MAX_OVERHEAD_FRACTION * 100:.0f}% gate"
        )

    artifact = {
        "benchmark": "telemetry_overhead",
        "algorithm": ALGORITHM,
        "dataset": dataset,
        "fraction": fraction,
        "num_queries": len(queries),
        "repeats": repeats,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "null_wall_s": walls["null"],
        "live_wall_s": walls["live"],
        "best_null_s": best_null,
        "best_live_s": best_live,
        "median_null_s": statistics.median(walls["null"]),
        "median_live_s": statistics.median(walls["live"]),
        "overhead_fraction": overhead,
        "gate_max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "gate_enforced": not quick,
        "identical_results": True,
        "live_spans_recorded": spans,
        "live_metric_series": series,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    return artifact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload, no timing gate (CI configuration)",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick)


if __name__ == "__main__":
    main()
