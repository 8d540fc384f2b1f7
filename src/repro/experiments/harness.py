"""Shared experiment machinery: timed algorithm runs and comparisons."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.baselines import run_dksp_baseline, run_onepass_baseline
from repro.batch.config import ALGORITHMS
from repro.batch.engine import BatchQueryEngine
from repro.batch.results import BatchResult
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.utils.validation import require

#: The algorithms compared throughout the paper's figures 7, 8 and 11.
DEFAULT_ALGORITHMS: Sequence[str] = ("pathenum", "basic", "basic+", "batch", "batch+")

#: Fig. 12's adapted k-shortest-path baselines: plain functions, not engine
#: algorithms, timed on the same workload under the same names.
BASELINES: Dict[str, Callable[[DiGraph, Sequence[HCSTQuery]], BatchResult]] = {
    "dksp": run_dksp_baseline,
    "onepass": run_onepass_baseline,
}


@dataclass
class AlgorithmRun:
    """One timed execution of one algorithm on one workload."""

    algorithm: str
    #: The paper's name for the algorithm.
    display_name: str
    seconds: float
    total_paths: int
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    num_clusters: int = 0
    num_shared_nodes: int = 0
    timed_out: bool = False


def run_algorithm(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    algorithm: str,
    gamma: float = 0.5,
    timeout_seconds: Optional[float] = None,
) -> AlgorithmRun:
    """Run ``algorithm`` — an engine algorithm or one of :data:`BASELINES`
    — on the workload and record wall-clock time.

    ``timeout_seconds`` mirrors the paper's 10,000 s "OT" cut-off: it is a
    *reporting* threshold (the run is not interrupted, only flagged) so the
    result counts stay comparable across algorithms.
    """
    if algorithm in BASELINES:
        run = partial(BASELINES[algorithm], graph)
    else:
        require(algorithm in ALGORITHMS, f"unknown algorithm {algorithm!r}")
        run = BatchQueryEngine(graph, algorithm=algorithm, gamma=gamma).run
    started = time.perf_counter()
    result: BatchResult = run(queries)
    elapsed = time.perf_counter() - started
    return AlgorithmRun(
        algorithm=algorithm,
        display_name=result.algorithm,
        seconds=elapsed,
        total_paths=result.total_paths(),
        stage_seconds=result.stage_timer.totals,
        num_clusters=result.sharing.num_clusters,
        num_shared_nodes=result.sharing.num_shared_nodes,
        timed_out=timeout_seconds is not None and elapsed > timeout_seconds,
    )


def compare_algorithms(
    graph: DiGraph,
    queries: Sequence[HCSTQuery],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    gamma: float = 0.5,
    timeout_seconds: Optional[float] = None,
) -> Dict[str, AlgorithmRun]:
    """Run several algorithms on the same workload.

    All runs also cross-check that every algorithm returned the same number
    of result paths — a cheap consistency guard that has caught real bugs
    during development (full path-set equality is covered by the tests).
    """
    runs: Dict[str, AlgorithmRun] = {}
    for algorithm in algorithms:
        runs[algorithm] = run_algorithm(
            graph, queries, algorithm, gamma=gamma, timeout_seconds=timeout_seconds
        )
    path_counts = {run.total_paths for run in runs.values()}
    require(
        len(path_counts) == 1,
        f"algorithms disagree on the total number of result paths: "
        f"{ {name: run.total_paths for name, run in runs.items()} }",
    )
    return runs
