"""Property-based tests (hypothesis) for invariants beside the answers:
clustering partitions the batch, the ⊕ join of unpruned halves, and the
stream position contracts.  That every algorithm answers what the
brute-force oracle answers is ``tests/test_differential.py``'s to check.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.batch.clustering import cluster_queries
from repro.batch.engine import BatchQueryEngine
from repro.enumeration.join import PathJoinPolicy, join_path_sets
from repro.graph.digraph import DiGraph
from repro.queries.workload import QueryWorkload
from test_differential import assert_answers, oracle, workloads

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(workloads())
@SETTINGS
def test_clustering_is_a_partition(data):
    graph, queries = data
    workload = QueryWorkload(graph, queries)
    clusters = cluster_queries(workload, gamma=0.5)
    flattened = sorted(position for cluster in clusters for position in cluster)
    assert flattened == list(range(len(queries)))


@given(workloads())
@SETTINGS
def test_join_never_emits_duplicates_or_invalid_paths(data):
    """Every simple path from the first query's source within its forward
    budget, joined at once with the unpruned backward sides of every
    target that source is asked for at that hop constraint: the oracle's
    paths, each once."""
    graph, queries = data
    first = queries[0]
    asked = {q for q in queries if (q.s, q.k) == (first.s, first.k)}
    batch = sorted(asked, key=lambda query: query.t)
    policy = PathJoinPolicy(first.forward_budget, first.backward_budget)
    forward = _all_paths_from(graph, first.s, policy.forward_budget, True)
    sides = [
        (_all_paths_from(graph, q.t, policy.backward_budget, False), q.t, policy)
        for q in batch
    ]
    assert_answers(oracle(graph, batch), join_path_sets(forward, sides))


def test_stream_empty_batch_yields_nothing_without_raising():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    for algorithm in ("pathenum", "basic", "batch+"):
        for ordered in (True, False):
            engine = BatchQueryEngine(graph, algorithm=algorithm)
            assert list(engine.stream([], ordered=ordered)) == []


def _all_paths_from(graph, start, budget, forward):
    neighbors = graph.out_neighbors if forward else graph.in_neighbors
    results = []
    prefix = [start]

    def extend(vertex, used):
        results.append(tuple(prefix))
        if used == budget:
            return
        for neighbor in neighbors(vertex):
            if neighbor in prefix:
                continue
            prefix.append(neighbor)
            extend(neighbor, used + 1)
            prefix.pop()

    extend(start, 0)
    return results
