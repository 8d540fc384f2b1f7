"""The front end answers from the BFS levels, never by walking a dense row.

Deterministic, not timed: every index the pipeline builds (and every copy
it delta-repairs) gets one-byte dense rows of a ``bytearray`` subclass that
still supports what the enumeration loops do — ``row[v]``, the buffer
protocol — and the one C-level pass a µ mask makes (``translate``), but
raises on ``__iter__`` and ``count``.  Budget split, µ masks, plan
estimates and entry counts must all complete against such rows with the
oracle's paths.  The one permitted Python-level walk is the
derive-on-first-use pass, and only for a row that arrived without levels
(here: the rows a worker process unpacks with ``from_bytes``, which are
plain bytearrays again).

The same kind of count holds one layer down, for the graph itself: a served
round after a mutation gets a snapshot that shares every adjacency row the
mutation did not write — nothing is packed, nothing is re-listed.
"""

import pytest

from repro.batch.engine import BatchQueryEngine
from repro.batch.service import serve
from repro.bfs.distance_index import (
    NARROW_UNREACHABLE,
    CSRDistanceIndex,
    build_index,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.graph.snapshots import SnapshotStore
from repro.obs import MetricsRegistry
from repro.queries.generation import generate_random_queries
from test_differential import assert_answers, oracle


class UnwalkableRow(bytearray):
    """A one-byte dense row that can be indexed, shipped and translated but
    not scanned."""

    def __iter__(self):
        raise AssertionError("a dense distance row was walked")

    def count(self, *args):
        raise AssertionError("a dense distance row was counted")


def unwalkable(index):
    """Swap every dense row of ``index`` for an :class:`UnwalkableRow`."""
    for rows in (index._from_rows, index._to_rows):
        for endpoint, row in rows.items():
            assert isinstance(row, bytearray), "these batches have k <= 254"
            rows[endpoint] = UnwalkableRow(row)
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


def test_the_guard_trips_on_the_derive_pass_only():
    row = UnwalkableRow([0, 1, NARROW_UNREACHABLE])
    index = CSRDistanceIndex(3, 2, {0: row}, {})
    assert index.dist_from(0, 1) == 1
    assert index.dense_from(0)[2] == NARROW_UNREACHABLE
    assert index.to_bytes()  # shipping copies the buffer, it does not walk
    assert index.forward_mask(0, 2) == (0b011, 2)  # one translate, no walk
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
    assert_answers(oracle(graph, queries), engine.run(queries))


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
        # Each round's submit_many is admitted whole and goes out as one
        # batch, so the second round has the first's index to delta-repair.
        max_batch_size=len(queries),
        metrics=registry,
    ) as service:
        for mutate in (False, True):
            if mutate:
                graph.add_edge(124, 127)  # far from every endpoint
            tickets = service.submit_many(queries)
            assert_answers(expected, [t.result(timeout=30.0) for t in tickets])
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
    sealed = {}
    seal = SnapshotStore.seal

    def recording_seal(store):
        csr = seal(store)
        sealed[csr.version] = csr
        return csr

    monkeypatch.setattr(SnapshotStore, "seal", recording_seal)
    with serve(
        graph,
        algorithm="batch+",
        num_workers=1,
        max_batch_size=len(queries),
    ) as service:
        for corner in range(120, 125):
            graph.add_edge(corner, corner + 1)  # far from every endpoint
            tickets = service.submit_many(queries)
            assert_answers(expected, [t.result(timeout=30.0) for t in tickets])
        assert service.stats().failed == 0
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
