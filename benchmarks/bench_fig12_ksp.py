"""Fig. 12 — comparison with the adapted k-shortest-path algorithms (Exp-6).

The KSP adaptations are orders of magnitude slower, so this benchmark uses
a deliberately small batch; the per-group comparison table shows the gap on
each dataset.
"""

import pytest

from benchmarks.conftest import bench_random_workload
from repro.experiments.harness import run_algorithm

ALGORITHMS = ("dksp", "onepass", "batch+")
DATASETS = ("EP", "BK")


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig12_ksp_comparison(benchmark, dataset, algorithm):
    graph, queries = bench_random_workload(dataset, count=6)
    benchmark.group = f"fig12-{dataset}"
    run = benchmark.pedantic(
        run_algorithm, args=(graph, list(queries), algorithm), rounds=1, iterations=1
    )
    benchmark.extra_info["paths"] = run.total_paths
