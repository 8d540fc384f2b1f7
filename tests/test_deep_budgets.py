"""Regression tests for deep hop budgets.

The enumeration core used to recurse once per hop, so any budget beyond
Python's recursion limit (1000 by default) crashed with ``RecursionError``.
The iterative explicit-stack search over CSR adjacency must handle chain
graphs with hop constraints far beyond that limit on every algorithm the
engine exposes, and so must the Exp-6 baselines.
"""

import pytest

from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.experiments.harness import BASELINES
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery

DEEP_K = 2100  # > default recursion limit, including the split halves


def _chain(num_vertices: int) -> DiGraph:
    return DiGraph.from_edges([(i, i + 1) for i in range(num_vertices - 1)])


@pytest.mark.parametrize("algorithm", ALGORITHMS + tuple(BASELINES))
def test_deep_chain_does_not_hit_recursion_limit(algorithm):
    graph = _chain(DEEP_K + 1)
    query = HCSTQuery(0, DEEP_K, DEEP_K)
    if algorithm in BASELINES:
        result = BASELINES[algorithm](graph, [query])
    else:
        result = BatchQueryEngine(graph, algorithm=algorithm).run([query])
    assert result.counts() == [1]
    assert result.paths_at(0) == [tuple(range(DEEP_K + 1))]


@pytest.mark.parametrize("algorithm", ["pathenum", "basic", "basic+", "batch", "batch+"])
def test_deep_chain_with_shortcut_counts_both_paths(algorithm):
    # A chain with one chord skipping a middle vertex: exactly two simple
    # paths within the full budget, one of them maximal-length.
    graph = _chain(DEEP_K + 1)
    middle = DEEP_K // 2
    graph.add_edge(middle - 1, middle + 1)
    query = HCSTQuery(0, DEEP_K, DEEP_K)
    result = BatchQueryEngine(graph, algorithm=algorithm).run([query])
    assert result.counts() == [2]


def test_acceptance_chain_k5000_batch_plus():
    k = 5000
    graph = _chain(k + 1)
    result = BatchQueryEngine(graph, algorithm="batch+").run(
        [HCSTQuery(0, k, k)]
    )
    assert result.counts() == [1]
    assert result.paths_at(0) == [tuple(range(k + 1))]
