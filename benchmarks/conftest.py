"""Shared fixtures and workload builders for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on the
synthetic dataset suite.  Workload construction (graph generation, query
generation, index-independent setup) happens outside the measured region;
the measured callable is exactly the algorithm or experiment under study.

The suite is sized so that ``pytest benchmarks/ --benchmark-only`` finishes
in a few minutes; the full-scale sweeps are available through the
``repro.experiments.exp_*`` modules' ``main()`` entry points.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import pytest

from repro.experiments.datasets import load_dataset
from repro.queries.generation import generate_random_queries, generate_similar_workload
from repro.queries.query import HCSTQuery

#: Representative datasets: one small social graph, one sparse encyclopedia
#: graph, one dense web graph, one large social graph.
BENCH_DATASETS = ("EP", "BK", "UK", "LJ")

#: Default benchmark workload parameters (kept small: the datasets are
#: already scaled-down stand-ins).
BENCH_QUERIES = 20
BENCH_MIN_K = 3
BENCH_MAX_K = 4


@lru_cache(maxsize=None)
def bench_random_workload(
    dataset: str,
    count: int = BENCH_QUERIES,
    min_k: int = BENCH_MIN_K,
    max_k: int = BENCH_MAX_K,
    seed: int = 0,
) -> Tuple[object, Tuple[HCSTQuery, ...]]:
    """Graph + random query batch for ``dataset`` (cached across benches)."""
    graph = load_dataset(dataset)
    queries = generate_random_queries(graph, count, min_k=min_k, max_k=max_k, seed=seed)
    return graph, tuple(queries)


@lru_cache(maxsize=None)
def bench_similar_workload(
    dataset: str,
    similarity: float,
    count: int = BENCH_QUERIES,
    min_k: int = BENCH_MIN_K,
    max_k: int = BENCH_MAX_K,
    seed: int = 0,
) -> Tuple[object, Tuple[HCSTQuery, ...]]:
    """Graph + similarity-controlled query batch (cached across benches)."""
    graph = load_dataset(dataset)
    queries, _ = generate_similar_workload(
        graph, count, target_similarity=similarity,
        min_k=min_k, max_k=max_k, seed=seed, measure=False,
    )
    return graph, tuple(queries)


@pytest.fixture(scope="session")
def bench_datasets() -> Tuple[str, ...]:
    return BENCH_DATASETS
