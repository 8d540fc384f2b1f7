"""Differential suite for the vectorized enumeration kernels.

The contract: for every algorithm, every worker count and every graph, the
``"numpy"`` kernel returns **byte-identical** results to the ``"python"``
kernel — same paths, same order, per batch position — and both match the
brute-force ground truth.  The suite also pins the selection policy
(``"auto"`` is pure-Python on every route; the numpy kernel runs only when
asked for by name) and the no-numpy degradation (``"auto"``/``"python"``
keep working with the import blocked; ``"numpy"`` fails eagerly at
construction).
"""

from __future__ import annotations

import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.batch import batch_enum
from repro.batch.cache import ResultCache
from repro.batch.config import ExecutionConfig
from repro.batch.detection import detect_common_queries
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.planner import QueryPlanner
from repro.batch.results import drain
from repro.bfs.distance_index import build_index
from repro.enumeration import kernels, path_enum
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.kernels import (
    NUMPY_AVAILABLE,
    resolve_kernel,
    validate_kernel,
)
from repro.enumeration.path_enum import PathEnum
from repro.enumeration.paths import sort_paths
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    PAPER_EXAMPLE_QUERIES,
    paper_example_graph,
    random_directed_gnm,
)
from repro.queries.generation import generate_random_queries
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")


SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _workload(seed, num_vertices=30, num_edges=110, count=8):
    graph = random_directed_gnm(num_vertices, num_edges, seed=seed)
    queries = generate_random_queries(graph, count, min_k=2, max_k=4, seed=seed)
    return graph, queries


# --------------------------------------------------------------------- #
# Selection policy
# --------------------------------------------------------------------- #
def test_validate_kernel_rejects_unknown():
    with pytest.raises(ValueError):
        validate_kernel("cuda")


def test_resolve_kernel_policy():
    assert resolve_kernel("python") == "python"
    # "auto" is the pure-Python search on every route, numpy present or not.
    assert resolve_kernel("auto") == "python"
    if NUMPY_AVAILABLE:
        assert resolve_kernel("numpy") == "numpy"
    else:
        with pytest.raises(ValueError, match="numpy"):
            resolve_kernel("numpy")
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("cuda")


@needs_numpy
def test_planner_resolves_kernel_per_shard():
    """Every shard carries the concrete kernel its plan resolved: "python"
    under "auto" however heavy the shard, "numpy" only by name."""
    graph, queries = _workload(3, num_vertices=60, num_edges=300, count=10)
    for requested, resolved in (("auto", "python"), ("numpy", "numpy")):
        plan = QueryPlanner(graph, ExecutionConfig(kernel=requested)).plan(queries)
        assert {shard.kernel for shard in plan.shards} == {resolved}
        assert f"{plan.num_shards} {resolved}" in plan.describe()


def test_planner_kernel_python_pins_all_shards():
    graph, queries = _workload(3)
    plan = QueryPlanner(graph, ExecutionConfig(kernel="python")).plan(queries)
    assert all(shard.kernel == "python" for shard in plan.shards)
    assert "kernel:" in plan.describe()


def _blocks_workload(heavy):
    """Disjoint blocks, so clusters cannot merge: 28 sparse blocks with one
    tiny query each (its target in reach, so its search runs) and, with
    ``heavy``, one dense block whose four similar queries form a single
    cluster far heavier than all the others."""
    edges, queries, offset = [], [], 0
    if heavy:
        edges += list(random_directed_gnm(40, 240, seed=3).edges())
        queries += [HCSTQuery(s, t, 6) for s in (0, 1) for t in (20, 21)]
        offset = 40
    for block in range(28):
        sparse = random_directed_gnm(12, 30, seed=100 + block)
        edges += [(u + offset, v + offset) for u, v in sparse.edges()]
        source, target = min(sparse.edges())
        queries.append(HCSTQuery(offset + source, offset + target, 4))
        offset += 12
    return DiGraph.from_edges(edges, num_vertices=offset), queries


@pytest.mark.parametrize("heavy", [True, False])
def test_a_shard_runs_on_its_planned_kernel_whoever_executes_it(heavy, monkeypatch):
    """One plan, one kernel per shard: the in-process route reaches the
    numpy kernel from exactly the clusters whose ``ShardPlan.kernel`` says
    so — none under "auto", however heavy the shard or the batch, all of
    them when asked for by name — and the worker route returns the same
    lists."""
    pytest.importorskip("numpy")
    graph, queries = _blocks_workload(heavy)

    in_flight, callers = [], set()
    process_cluster = batch_enum.BatchEnum._process_cluster

    def watched_cluster(self, queries_by_position, *args):
        in_flight.append(tuple(sorted(queries_by_position)))
        try:
            return process_cluster(self, queries_by_position, *args)
        finally:
            in_flight.pop()

    def watched(kernel):
        def watched_kernel(*args):
            callers.add(in_flight[-1])
            return kernel(*args)

        return watched_kernel

    monkeypatch.setattr(batch_enum.BatchEnum, "_process_cluster", watched_cluster)
    # A cluster reaches the numpy twin as enumerate_node_paths, a cluster
    # of one as search_paths (through PathEnum).
    monkeypatch.setattr(
        batch_enum, "enumerate_node_paths", watched(batch_enum.enumerate_node_paths)
    )
    monkeypatch.setattr(path_enum, "search_paths", watched(path_enum.search_paths))
    results = {}
    for kernel in ("auto", "numpy"):
        engine = BatchQueryEngine(graph, kernel=kernel, max_workers=1)
        plan = engine.explain(queries)
        assert plan.num_workers == 1 and plan.num_shards >= 28
        wanted = {
            tuple(shard.positions) for shard in plan.shards if shard.kernel == "numpy"
        }
        assert len(wanted) == (plan.num_shards if kernel == "numpy" else 0)
        callers.clear()
        results[kernel] = engine.run(queries)
        assert callers == wanted
    in_process = results["auto"]
    assert results["numpy"].paths_by_position == in_process.paths_by_position

    sharded = BatchQueryEngine(graph, kernel="auto", num_workers=2).run(queries)
    assert sharded.paths_by_position == in_process.paths_by_position
    for position, query in enumerate(queries[:6]):
        assert sort_paths(in_process.paths_at(position)) == sort_paths(
            enumerate_paths_brute_force(graph, query.s, query.t, query.k)
        )


def test_iter_run_rejects_a_kernel_list_that_does_not_match_the_clusters():
    """``zip`` would silently drop the clusters past the shorter list."""
    queries = [HCSTQuery(*triple) for triple in PAPER_EXAMPLE_QUERIES]
    enum = batch_enum.BatchEnum(paper_example_graph(), gamma=1.0)
    assert drain(enum.iter_run(queries)).sharing.num_clusters == len(queries)
    for kernels in (["python"], ["python"] * (len(queries) + 1)):
        with pytest.raises(ValueError, match="kernels"):
            next(enum.iter_run(queries, kernels=kernels))
    full = drain(enum.iter_run(queries, kernels=["python"] * len(queries)))
    assert all(full.counts())


# --------------------------------------------------------------------- #
# Differential: hypothesis-randomized graphs, sequential
# --------------------------------------------------------------------- #
@st.composite
def graph_and_query(draw):
    num_vertices = draw(st.integers(min_value=4, max_value=12))
    possible = [
        (u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v
    ]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=num_vertices,
            max_size=4 * num_vertices,
        )
    )
    graph = DiGraph.from_edges(set(edges), num_vertices=num_vertices)
    s = draw(st.integers(min_value=0, max_value=num_vertices - 1))
    t = draw(
        st.integers(min_value=0, max_value=num_vertices - 1).filter(lambda v: v != s)
    )
    k = draw(st.integers(min_value=1, max_value=5))
    return graph, HCSTQuery(s=s, t=t, k=k)


@needs_numpy
@SETTINGS
@given(graph_and_query())
def test_pathenum_numpy_kernel_byte_identical(data):
    graph, query = data
    python_paths = PathEnum(graph, kernel="python").enumerate(query)
    numpy_paths = PathEnum(graph, kernel="numpy").enumerate(query)
    assert numpy_paths == python_paths  # identical order, not just set
    assert sort_paths(python_paths) == sort_paths(
        enumerate_paths_brute_force(graph, query.s, query.t, query.k)
    )


@needs_numpy
@SETTINGS
@given(graph_and_query(), st.sampled_from(["batch+", "batch", "basic+"]))
def test_engine_numpy_kernel_byte_identical(data, algorithm):
    graph, query = data
    queries = [query]
    python_result = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="python", num_workers=1
    ).run(queries)
    numpy_result = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="numpy", num_workers=1
    ).run(queries)
    assert numpy_result.paths_by_position == python_result.paths_by_position
    assert numpy_result.sharing == python_result.sharing


# --------------------------------------------------------------------- #
# Differential: every node of a sharing graph, python search vs numpy twin
# --------------------------------------------------------------------- #
@st.composite
def graph_and_cluster(draw):
    """A small dense digraph and 2-5 queries drawn from few endpoints, so
    the cluster's Ψ has shared roots, created providers and splices."""
    num_vertices = draw(st.integers(min_value=6, max_value=10))
    possible = [
        (u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v
    ]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=2 * num_vertices,
            max_size=4 * num_vertices,
        )
    )
    graph = DiGraph.from_edges(set(edges), num_vertices=num_vertices)
    sources = st.integers(min_value=0, max_value=2)
    targets = st.integers(min_value=num_vertices - 3, max_value=num_vertices - 1)
    queries = draw(
        st.lists(
            st.builds(HCSTQuery, sources, targets, st.integers(2, 5)),
            min_size=2,
            max_size=5,
        )
    )
    max_depth = draw(st.sampled_from([None, 1, 2]))
    return graph, dict(enumerate(queries)), max_depth


def _simple_paths_from(adjacency, root, budget):
    """Every simple path leaving ``root`` with at most ``budget`` hops."""
    found, pending = [], [(root,)]
    while pending:
        path = pending.pop()
        found.append(path)
        if len(path) <= budget:
            pending += [path + (v,) for v in adjacency[path[-1]] if v not in path]
    return found


def _allowed_paths(graph, outcome, node):
    """Brute-force filter of ``node``'s simple paths by what its served
    queries can use.  Returns ``(must, may)``: ``may`` passes the record
    rule; ``must`` also takes only steps some served query can still finish
    from (Lemma 3.1, scalar form on the index's ``dist_*`` accessors).
    Without a provider the node returns exactly ``must``; a spliced
    provider serves a superset of queries, so it may add paths of ``may``.
    """
    forward = node.direction is Direction.FORWARD
    index, psi = outcome.index, outcome.sharing_graph
    served = [
        (outcome.queries_by_position[p], outcome.budget_by_position[p])
        for p in outcome.served_queries[node]
    ]
    endpoints = {query.t if forward else query.s for query, _ in served}
    keep_all = any(isinstance(c, HCsPathQuery) for c in psi.consumers_of(node))

    def useful(vertex, remaining):
        return any(
            (index.dist_to(q.t, vertex) if forward else index.dist_from(q.s, vertex))
            + root_budget + 1 - q.k <= remaining
            for q, root_budget in served
        )

    must, may = set(), set()
    adjacency = graph.csr_snapshot().adjacency_lists(forward)
    for path in _simple_paths_from(adjacency, node.vertex, node.budget):
        hops = len(path) - 1
        if keep_all or not forward or hops == node.budget or path[-1] in endpoints:
            may.add(path)
            if all(
                useful(path[i], node.budget - i + 1) for i in range(1, len(path))
            ):
                must.add(path)
    return must, may


@SETTINGS
@given(graph_and_cluster())
def test_every_psi_node_python_search_equals_numpy_twin(data):
    pytest.importorskip("numpy")
    graph, cluster, max_depth = data
    enum = batch_enum.BatchEnum(graph)
    index = build_index(
        graph,
        [q.s for q in cluster.values()],
        [q.t for q in cluster.values()],
        max(q.k for q in cluster.values()),
    )
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        forward = direction is Direction.FORWARD
        budgets = {
            position: query.forward_budget if forward else query.backward_budget
            for position, query in cluster.items()
        }
        outcome = detect_common_queries(
            graph, cluster, direction, index, budgets, max_depth=max_depth
        )
        psi, cache = outcome.sharing_graph, ResultCache()
        for node in psi.topological_order():
            if not isinstance(node, HCsPathQuery):
                continue
            paths = enum._enumerate_node(node, outcome, cache, "python")
            assert enum._enumerate_node(node, outcome, cache, "numpy") == paths
            assert paths == sorted(set(paths))
            must, may = _allowed_paths(graph, outcome, node)
            assert must <= set(paths) <= may
            if not any(isinstance(p, HCsPathQuery) for p in psi.providers_of(node)):
                assert set(paths) == must
            # Never released: every later node finds its providers cached.
            cache.put(node, paths, consumers=len(psi.consumers_of(node)))


# --------------------------------------------------------------------- #
# Differential: all algorithms x worker counts
# --------------------------------------------------------------------- #
@needs_numpy
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_algorithms_numpy_equals_python_sequential(algorithm):
    graph, queries = _workload(7)
    python_result = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="python", num_workers=1
    ).run(queries)
    numpy_result = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="numpy", num_workers=1
    ).run(queries)
    assert numpy_result.paths_by_position == python_result.paths_by_position
    assert numpy_result.sharing == python_result.sharing
    for position, query in enumerate(queries):
        assert sort_paths(python_result.paths_at(position)) == sort_paths(
            enumerate_paths_brute_force(graph, query.s, query.t, query.k)
        )


@needs_numpy
@pytest.mark.parametrize("num_workers", [2, "auto"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernelized_algorithms_across_worker_counts(algorithm, num_workers):
    graph, queries = _workload(5)
    reference = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="python", num_workers=1
    ).run(queries)
    result = BatchQueryEngine(
        graph, algorithm=algorithm, kernel="numpy", num_workers=num_workers
    ).run(queries)
    assert result.paths_by_position == reference.paths_by_position


# --------------------------------------------------------------------- #
# No-numpy degradation
# --------------------------------------------------------------------- #
def test_numpy_kernel_rejected_when_unavailable(monkeypatch):
    monkeypatch.setattr(kernels, "NUMPY_AVAILABLE", False)
    with pytest.raises(ValueError):
        validate_kernel("numpy")
    assert resolve_kernel("auto") == "python"


def test_fallback_with_numpy_import_blocked():
    """End-to-end degradation with the numpy import genuinely blocked.

    A fresh interpreter poisons ``sys.modules["numpy"]`` *before* any
    repro import, so the kernels module sees a failing import — exactly
    the situation on a numpy-less deployment.  ``"auto"`` must degrade to
    pure Python with correct results; ``"numpy"`` must raise eagerly.
    """
    code = """
import sys
sys.modules["numpy"] = None  # blocks `import numpy` with ImportError
from repro.batch.engine import BatchQueryEngine
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.kernels import NUMPY_AVAILABLE
from repro.enumeration.paths import sort_paths
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries

assert not NUMPY_AVAILABLE
graph = random_directed_gnm(30, 110, seed=7)
queries = generate_random_queries(graph, 6, min_k=2, max_k=4, seed=7)
engine = BatchQueryEngine(graph, algorithm="batch+", kernel="auto", num_workers=1)
result = engine.run(queries)
for position, query in enumerate(queries):
    expected = enumerate_paths_brute_force(graph, query.s, query.t, query.k)
    assert sort_paths(result.paths_at(position)) == sort_paths(expected)
try:
    BatchQueryEngine(graph, algorithm="batch+", kernel="numpy")
except ValueError:
    print("OK")
else:
    raise AssertionError("kernel='numpy' must raise without numpy")
"""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "OK" in completed.stdout
