"""The front end answers from the BFS levels, never by walking a dense row.

Deterministic, not timed: every index the pipeline builds (and every copy
it delta-repairs) gets dense rows of an ``array`` subclass that still
supports what the enumeration loops do — ``row[v]``, the buffer protocol —
but raises on ``__iter__`` and ``count``.  Budget split, µ masks, plan
estimates and entry counts must all complete against such rows with the
oracle's paths.  The one permitted walk is the derive-on-first-use pass,
and only for a row that arrived without levels (here: the rows a worker
process unpacks with ``from_bytes``, which are plain arrays again).

The same kind of count holds one layer down, for the graph itself: a served
round after a mutation gets a snapshot that shares every adjacency row the
mutation did not write — nothing is packed, nothing is re-listed.
"""

from array import array

import pytest

from repro.batch.engine import BatchQueryEngine
from repro.batch.service import serve
from repro.bfs.distance_index import (
    TYPECODE,
    UNREACHABLE,
    CSRDistanceIndex,
    build_index,
)
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.graph.snapshots import SnapshotStore
from repro.obs import MetricsRegistry
from repro.queries.generation import generate_random_queries


class UnwalkableRow(array):
    """A dense row that can be indexed and shipped but not scanned."""

    def __iter__(self):
        raise AssertionError("a dense distance row was walked")

    def count(self, value):
        raise AssertionError("a dense distance row was counted")


def unwalkable(index):
    """Swap every dense row of ``index`` for an :class:`UnwalkableRow`."""
    for rows in (index._from_rows, index._to_rows):
        for endpoint, row in rows.items():
            rows[endpoint] = UnwalkableRow(TYPECODE, row)
    return index


@pytest.fixture
def unwalkable_rows(monkeypatch):
    """Every index a workload builds, and every ``copy()`` the planner
    delta-repairs, carries unwalkable rows."""
    copy = CSRDistanceIndex.copy
    monkeypatch.setattr(
        "repro.queries.workload.build_index",
        lambda *args, **kwargs: unwalkable(build_index(*args, **kwargs)),
    )
    monkeypatch.setattr(
        CSRDistanceIndex, "copy", lambda self: unwalkable(copy(self))
    )


def graph_with_a_far_corner():
    """G(120, 480) plus ten isolated vertices no query endpoint reaches."""
    core = random_directed_gnm(120, 480, seed=21)
    return DiGraph.from_edges(core.edges(), num_vertices=130)


def oracle(graph, queries):
    return [
        sorted(enumerate_paths_brute_force(graph, q.s, q.t, q.k))
        for q in queries
    ]


def test_the_guard_trips_on_the_derive_pass_only():
    row = UnwalkableRow(TYPECODE, [0, 1, UNREACHABLE])
    index = CSRDistanceIndex(3, 2, {0: row}, {})
    assert index.dist_from(0, 1) == 1 and index.dense_from(0)[2] == UNREACHABLE
    assert index.to_bytes()  # shipping copies the buffer, it does not walk
    with pytest.raises(AssertionError, match="walked"):
        index.forward_level_sizes(0, 2)  # arrived without levels: derives


@pytest.mark.parametrize("num_workers", [1, 2])
@pytest.mark.parametrize("algorithm", ["batch+", "basic+"])
def test_plan_and_run_never_walk_a_row(unwalkable_rows, algorithm, num_workers):
    graph = graph_with_a_far_corner()
    queries = generate_random_queries(graph, 8, min_k=2, max_k=4, seed=21)
    engine = BatchQueryEngine(graph, algorithm=algorithm, num_workers=num_workers)
    plan = engine.explain(queries)
    assert isinstance(plan.workload.index.dense_from(queries[0].s), UnwalkableRow)
    assert plan.workload.index.size_in_entries > 0
    result = engine.run(queries)
    expected = oracle(graph, queries)
    assert [sorted(result.paths_at(i)) for i in range(len(queries))] == expected


def test_a_served_micro_batch_through_the_delta_path_never_walks_a_row(
    unwalkable_rows,
):
    graph = graph_with_a_far_corner()
    queries = generate_random_queries(graph, 6, min_k=2, max_k=4, seed=21)
    expected = oracle(graph, queries)
    registry = MetricsRegistry()
    with serve(
        graph,
        algorithm="batch+",
        num_workers=1,
        max_batch_size=len(queries),
        # A full batch goes out at once; the window only has to outlast a
        # stall between two submits, which would split the round and leave
        # the second batch nothing to delta-repair.
        max_delay_s=2.0,
        metrics=registry,
    ) as service:
        for mutate in (False, True):
            if mutate:
                graph.add_edge(124, 127)  # far from every endpoint
            tickets = service.submit_many(queries)
            served = [sorted(ticket.result(timeout=30.0)) for ticket in tickets]
            assert served == expected
        assert service.stats().failed == 0
    repaired = registry.counter(
        "repro_plan_index_strategy_total", labels={"strategy": "delta"}
    )
    assert repaired.value >= 1


def test_a_served_round_after_a_mutation_copies_only_the_rows_it_wrote(
    monkeypatch,
):
    graph = graph_with_a_far_corner()
    queries = generate_random_queries(graph, 6, min_k=2, max_k=4, seed=21)
    expected = oracle(graph, queries)
    packs, sealed = [], {}
    pack, seal = CSRGraph._pack, SnapshotStore.seal

    def counting_pack(adjacency):
        packs.append(len(adjacency))
        return pack(adjacency)

    def recording_seal(store):
        csr = seal(store)
        sealed[csr.version] = csr
        return csr

    monkeypatch.setattr(CSRGraph, "_pack", staticmethod(counting_pack))
    monkeypatch.setattr(SnapshotStore, "seal", recording_seal)
    with serve(
        graph,
        algorithm="batch+",
        num_workers=1,
        max_batch_size=len(queries),
        max_delay_s=2.0,
    ) as service:
        for corner in range(120, 125):
            graph.add_edge(corner, corner + 1)  # far from every endpoint
            tickets = service.submit_many(queries)
            served = [sorted(ticket.result(timeout=30.0)) for ticket in tickets]
            assert served == expected
        assert service.stats().failed == 0
    assert packs == []  # the default kernel never asks for the flat arrays
    versions = sorted(sealed)
    assert len(versions) >= 5
    for older, newer in zip(versions, versions[1:]):
        replaced = sum(
            old is not new
            for forward in (True, False)
            for old, new in zip(
                sealed[older].adjacency_lists(forward),
                sealed[newer].adjacency_lists(forward),
            )
        )
        # One out-row and one in-row per single-edge mutation; the other
        # 2|V| - 2 rows of the served version are the previous version's.
        assert replaced == 2 * (newer - older)
