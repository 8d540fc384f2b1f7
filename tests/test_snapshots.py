"""Unit tests for the multi-version :class:`SnapshotStore` (PR 7).

Covers the copy-on-write seal/pin/release lifecycle, the bounded mutation
log behind ``delta()`` (netting, barriers, trim floor), the new
``DiGraph.remove_edge`` mutator, the bulk ``reverse()`` path and
pickling (the store holds an RLock, so it must be rebuilt on unpickle);
and, as one rule-based state machine, that versions share their untouched
adjacency rows while no sealed snapshot ever changes.
"""

import pickle
import random
import threading
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.graph.snapshots import DEFAULT_MAX_LOG, SnapshotStore


# --------------------------------------------------------------------- #
# Seal / pin / release lifecycle
# --------------------------------------------------------------------- #
def test_seal_caches_per_head_version_and_forgets_unpinned():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    first = graph.csr_snapshot()
    assert graph.csr_snapshot() is first  # cached per head version
    assert first.version == graph.version
    old_version = graph.version
    graph.add_edge(0, 2)
    fresh = graph.csr_snapshot()
    assert fresh is not first
    assert fresh.version == graph.version == old_version + 1
    # The unpinned old head was dropped by the mutation.
    assert graph.snapshots.live_versions() == [graph.version]
    with pytest.raises(KeyError, match="not live"):
        graph.snapshots.resolve(old_version)


def test_pin_refcounts_keep_old_versions_alive():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    store = graph.snapshots
    pin_a = store.pin()
    pin_b = store.pin()
    assert pin_a.csr is pin_b.csr
    assert store.pin_count(pin_a.version) == 2
    pinned_version = pin_a.version

    graph.add_edge(0, 2)  # mutation: pinned version must survive
    assert store.resolve(pinned_version) is pin_a.csr
    assert sorted(store.live_versions()) == [pinned_version]

    pin_a.release()
    assert store.pin_count(pinned_version) == 1
    assert store.resolve(pinned_version) is pin_b.csr
    pin_a.release()  # idempotent: counts at most once
    assert store.pin_count(pinned_version) == 1

    pin_b.release()
    assert store.pin_count(pinned_version) == 0
    with pytest.raises(KeyError):
        store.resolve(pinned_version)


def test_released_head_survives_as_snapshot_cache():
    graph = DiGraph.from_edges([(0, 1)])
    with graph.snapshots.pin() as pin:
        head = pin.version
        assert graph.snapshots.pin_count(head) == 1
    # Context exit released the pin, but the head CSR stays cached.
    assert graph.snapshots.pin_count(head) == 0
    assert graph.snapshots.resolve(head) is graph.csr_snapshot()


def test_pin_is_atomic_under_concurrent_mutation():
    graph = random_directed_gnm(30, 120, seed=5)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            if graph.has_edge(0, 1):
                graph.remove_edge(0, 1)
            else:
                graph.add_edge(0, 1)

    thread = threading.Thread(target=churn, daemon=True)
    thread.start()
    try:
        for _ in range(100):
            with graph.snapshots.pin() as pin:
                csr = pin.csr
                # No torn packing: row structure internally consistent.
                total = sum(
                    len(csr.out_neighbors(v)) for v in csr.vertices()
                )
                assert total == csr.num_edges
                for v in csr.vertices():
                    row = csr.out_neighbors(v)
                    assert all(
                        row[i] < row[i + 1] for i in range(len(row) - 1)
                    )
    finally:
        stop.set()
        thread.join(timeout=5.0)


def test_racing_mutators_validate_under_the_lock_they_mutate_under():
    # Two threads race the same add (then the same remove).  The test holds
    # the store lock while the loser starts, so the loser reaches the
    # mutator before the winner's write lands: a check made outside the
    # lock passes, and the loser then writes a duplicate entry (or slices a
    # wrong one out).  Validated under the lock, it must raise instead.
    graph = DiGraph(2)

    def race(mutate, message):
        errors = []
        started = threading.Event()

        def loser():
            started.set()
            try:
                mutate(0, 1)
            except ValueError as error:
                errors.append(error)

        thread = threading.Thread(target=loser, daemon=True)
        with graph.snapshots.lock:
            thread.start()
            assert started.wait(timeout=5.0)
            time.sleep(0.05)  # let the loser run up to the lock
            mutate(0, 1)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and message in str(errors[0])

    race(graph.add_edge, "duplicate edge")
    assert graph.out_neighbors(0) == (1,) and graph.in_neighbors(1) == (0,)
    assert graph.num_edges == 1 and graph.version == 1
    assert list(graph.csr_snapshot().out_neighbors(0)) == [1]
    race(graph.remove_edge, "no such edge")
    assert graph.out_neighbors(0) == () and graph.in_neighbors(1) == ()
    assert graph.num_edges == 0 and graph.version == 2


def test_store_rejects_negative_log_bound():
    graph = DiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        SnapshotStore(graph, max_log=-1)


# --------------------------------------------------------------------- #
# Mutation log and delta()
# --------------------------------------------------------------------- #
def test_delta_nets_adds_removes_and_cancellations():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    start = graph.version
    assert graph.snapshots.delta(start, start) == ([], [])
    graph.add_edge(0, 2)       # net add
    graph.remove_edge(1, 2)    # net remove
    graph.add_edge(3, 0)       # add then remove: cancels out
    graph.remove_edge(3, 0)
    graph.remove_edge(2, 3)    # remove then re-add: cancels out
    graph.add_edge(2, 3)
    assert graph.snapshots.delta(start, graph.version) == (
        [(0, 2)],
        [(1, 2)],
    )


def test_delta_none_on_backwards_window_and_barrier():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    start = graph.version
    graph.add_edge(0, 2)
    assert graph.snapshots.delta(graph.version, start) is None  # backwards
    graph.add_vertex()  # vertex-count change: delta cannot express it
    assert graph.snapshots.delta(start, graph.version) is None
    # A window opened after the barrier is coverable again.
    after_barrier = graph.version
    graph.add_edge(3, 0)
    assert graph.snapshots.delta(after_barrier, graph.version) == (
        [(3, 0)],
        [],
    )


def test_delta_none_once_log_trims_past_from_version():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    start = graph.version
    # Overflow the bounded log: the floor advances past `start`.
    for _ in range(DEFAULT_MAX_LOG // 2 + 2):
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1)
    assert graph.snapshots.delta(start, graph.version) is None
    # Recent windows inside the retained log still resolve.
    recent = graph.version
    graph.add_edge(0, 2)
    assert graph.snapshots.delta(recent, graph.version) == ([(0, 2)], [])


def _delta_by_full_scan(store, from_version, to_version):
    """Reference for ``delta``: the whole log scanned and netted, as the
    store did before it located the window by version arithmetic."""
    if from_version == to_version:
        return [], []
    if from_version > to_version or from_version < store._log_floor:
        return None
    added, removed = set(), set()
    covered = from_version
    for version, op, u, v in store._log:
        if version <= from_version or version > to_version:
            continue
        if version != covered + 1:
            return None
        covered = version
        edge = (u, v)
        if op == "+":
            if edge in removed:
                removed.discard(edge)
            else:
                added.add(edge)
        else:
            if edge in added:
                added.discard(edge)
            else:
                removed.add(edge)
    if covered != to_version:
        return None
    return sorted(added), sorted(removed)


@pytest.mark.parametrize("max_log", [0, 1, 3, 8, 64])
def test_delta_reads_the_window_the_full_scan_nets(max_log):
    """On random logs — single-edge edits, vertex-add barriers, and trims
    once the log outgrows ``max_log`` — every window from before the floor
    to past the head, at the head and in the middle, nets what a scan of
    the whole log nets, ``None`` cases included."""
    for seed in range(6):
        rng = random.Random(seed)
        graph = random_directed_gnm(6, 10, seed=seed)
        graph._snapshots = store = SnapshotStore(graph, max_log=max_log)
        first = graph.version
        for _ in range(40):
            roll = rng.random()
            if roll < 0.05:
                graph.add_vertex()
            elif roll < 0.5 and graph.num_edges:
                graph.remove_edge(*rng.choice(sorted(graph.edges())))
            else:
                u, v = rng.sample(range(graph.num_vertices), 2)
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
            versions = range(first - 1, graph.version + 2)
            for a in versions:
                for b in versions:
                    assert store.delta(a, b) == _delta_by_full_scan(store, a, b), (
                        seed, a, b,
                    )


# --------------------------------------------------------------------- #
# remove_edge
# --------------------------------------------------------------------- #
def test_remove_edge_updates_adjacency_version_and_counts():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
    before = graph.version
    graph.remove_edge(0, 2)
    assert graph.version == before + 1
    assert not graph.has_edge(0, 2)
    assert graph.num_edges == 2
    assert list(graph.out_neighbors(0)) == [1]
    assert list(graph.in_neighbors(2)) == [1]
    # Sealed snapshot of the new head reflects the removal.
    assert not graph.csr_snapshot().has_edge(0, 2)


def test_remove_edge_validates_edge_exists():
    graph = DiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError, match="no such edge"):
        graph.remove_edge(1, 0)
    with pytest.raises(ValueError):
        graph.remove_edge(0, 99)


# --------------------------------------------------------------------- #
# Bulk reverse(): the hub-graph quadratic regression
# --------------------------------------------------------------------- #
def test_reverse_bulk_path_never_calls_insort(monkeypatch):
    # A hub: 199 edges all pointing at vertex 0.  The first implementation
    # routed each reversed edge through add_edge's sorted insert — O(deg)
    # per edge, O(E * deg) total, quadratic on hubs.  Rows are immutable
    # and already sorted, so the reverse graph shares them: zero add_edge
    # calls and every row the same object, an edge-count-independent
    # invariant (no wall-clock flakiness).
    graph = DiGraph.from_edges([(i, 0) for i in range(1, 200)])
    calls = []
    real_add_edge = DiGraph.add_edge

    def counting_add_edge(self, u, v):
        calls.append((u, v))
        real_add_edge(self, u, v)

    monkeypatch.setattr(DiGraph, "add_edge", counting_add_edge)
    reversed_graph = graph.reverse()
    assert calls == []
    for v in graph.vertices():
        assert reversed_graph.out_neighbors(v) is graph.in_neighbors(v)
        assert reversed_graph.in_neighbors(v) is graph.out_neighbors(v)
    assert reversed_graph.num_edges == graph.num_edges
    assert all(reversed_graph.has_edge(0, i) for i in range(1, 200))
    assert reversed_graph.reverse() == graph
    # Shared, not aliased: a mutation replaces the row in one graph only.
    reversed_graph.remove_edge(0, 7)
    reversed_graph.add_vertex()
    assert calls == []
    assert graph.has_edge(7, 0) and 7 in graph.in_neighbors(0)
    assert graph.num_vertices == 200 and graph.add_vertex() == 200


def test_reverse_is_a_snapshot_barrier_on_the_new_graph():
    graph = random_directed_gnm(12, 40, seed=2)
    reversed_graph = graph.reverse()
    # The bulk rebuild is a barrier: no delta window reaches behind it.
    assert (
        reversed_graph.snapshots.delta(
            reversed_graph.version - 1, reversed_graph.version
        )
        is None
    )
    # Windows opened after it are coverable as usual.
    start = reversed_graph.version
    reversed_graph.add_edge(*_first_missing_edge(reversed_graph))
    added, removed = reversed_graph.snapshots.delta(
        start, reversed_graph.version
    )
    assert len(added) == 1 and removed == []


def _first_missing_edge(graph):
    for u in graph.vertices():
        for v in graph.vertices():
            if u != v and not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


# --------------------------------------------------------------------- #
# Pickling: the store (RLock) is dropped and rebuilt
# --------------------------------------------------------------------- #
def test_digraph_pickle_roundtrip_rebuilds_store():
    graph = random_directed_gnm(15, 50, seed=7)
    graph.add_edge(*_first_missing_edge(graph))
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph
    assert clone.version == graph.version
    assert clone.snapshots is not graph.snapshots
    # The rebuilt store works: seal, pin, mutate, delta.
    start = clone.version
    with clone.snapshots.pin() as pin:
        assert pin.version == start
        clone.add_edge(*_first_missing_edge(clone))
        assert clone.snapshots.resolve(start) is pin.csr
    delta = clone.snapshots.delta(start, clone.version)
    assert delta is not None and len(delta[0]) == 1


# --------------------------------------------------------------------- #
# Row sharing between versions, isolation of every sealed version
# --------------------------------------------------------------------- #
def test_every_row_entry_is_its_vertex_one_interned_int():
    # A speed property (identity short-cut in set/dict probes, |V| ints
    # alive instead of 2|E|), so checked above CPython's own small-int
    # cache, with every edge endpoint arriving as a freshly computed int.
    base = 1000
    graph = DiGraph.from_edges(
        [(base + i, base + (i + step) % 50) for i in range(50) for step in (1, 7)]
    )
    graph.add_edge(base + 4, base + 40)
    graph.remove_edge(base + 4, base + 40)
    graph.add_edge(graph.add_vertex(), base + 9)
    graph.add_edge(base + 9, base + 50)
    reversed_graph = graph.reverse()
    reversed_graph.add_edge(base + 2, base + 30)
    one_object = {}
    for built in (graph, reversed_graph):
        csr = built.csr_snapshot()
        for forward in (True, False):
            for row in csr.adjacency_lists(forward):
                for entry in row:
                    assert one_object.setdefault(entry, entry) is entry
    assert sorted(one_object) == list(range(base, base + 51))


def _reference_rows(num_vertices, edges, forward):
    rows = [[] for _ in range(num_vertices)]
    for u, v in edges:
        if forward:
            rows[u].append(v)
        else:
            rows[v].append(u)
    return tuple(tuple(sorted(row)) for row in rows)


def _assert_snapshot_is(csr, version, num_vertices, edges):
    """``csr`` equals the reference built from a frozen edge set."""
    assert (csr.version, csr.num_vertices, csr.num_edges) == (
        version,
        num_vertices,
        len(edges),
    )
    clone = pickle.loads(pickle.dumps(csr))
    assert (clone.version, clone.num_vertices, clone.num_edges) == (
        version,
        num_vertices,
        len(edges),
    )
    for forward in (True, False):
        reference = _reference_rows(num_vertices, edges, forward)
        assert csr.adjacency_lists(forward) == reference
        assert clone.adjacency_lists(forward) == reference
        for v in range(num_vertices):
            assert csr.neighbors(v, forward) == reference[v]
            degree = csr.out_degree(v) if forward else csr.in_degree(v)
            assert degree == len(reference[v])
    for u in range(num_vertices):
        for v in range(num_vertices):
            assert csr.has_edge(u, v) == ((u, v) in edges)


class SnapshotSharing(RuleBasedStateMachine):
    """Mutators, pins, seals and ``reverse()`` against a model edge set.

    * every live pin always equals the reference of the edge set frozen
      when it was taken (so no later mutation was ever observed in it);
    * two consecutive seals share, by identity, every row no mutation in
      between wrote, and hold different objects for every row
      ``snapshots.delta()`` reports changed (a row written and written
      back — netted out of the delta — is equal, by either object).
    """

    MAX_VERTICES = 12
    vertex = st.integers(min_value=0, max_value=MAX_VERTICES - 1)

    def __init__(self):
        super().__init__()
        self.graph = DiGraph(8)
        self.edges = set()
        self.pins = []  # (PinnedSnapshot, num_vertices, frozen edge set)
        self.last_seal = None
        self.written = set()  # (forward, vertex) rows written since last_seal

    def _mutated(self, u, v):
        self.written.update({(True, u), (False, v)})

    @rule(u=vertex, v=vertex)
    def add_edge(self, u, v):
        n = self.graph.num_vertices
        if u >= n or v >= n or u == v or (u, v) in self.edges:
            with pytest.raises(ValueError):
                self.graph.add_edge(u, v)
            return
        self.graph.add_edge(u, v)
        self.edges.add((u, v))
        self._mutated(u, v)

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def remove_edge(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.edges)))
        self.graph.remove_edge(u, v)
        self.edges.discard((u, v))
        self._mutated(u, v)
        with pytest.raises(ValueError):
            self.graph.remove_edge(u, v)

    @precondition(lambda self: self.graph.num_vertices < self.MAX_VERTICES)
    @rule()
    def add_vertex(self):
        assert self.graph.add_vertex() == self.graph.num_vertices - 1

    @precondition(lambda self: len(self.pins) < 4)
    @rule()
    def pin(self):
        pin = self.graph.snapshots.pin()
        assert pin.version == self.graph.version
        self.pins.append((pin, self.graph.num_vertices, frozenset(self.edges)))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release(self, data):
        pin, _, _ = self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1)))
        pin.release()

    @rule()
    def csr_snapshot(self):
        csr = self.graph.csr_snapshot()
        assert self.graph.csr_snapshot() is csr
        _assert_snapshot_is(
            csr, self.graph.version, self.graph.num_vertices, self.edges
        )
        before, delta = self.last_seal, None
        if before is not None:
            delta = self.graph.snapshots.delta(before.version, csr.version)
        if delta is not None:  # no barrier in between: edge writes only
            changed = {(True, u) for edges in delta for u, _ in edges}
            changed |= {(False, v) for edges in delta for _, v in edges}
            assert changed <= self.written
            for forward in (True, False):
                old, new = before.adjacency_lists(forward), csr.adjacency_lists(forward)
                for v in range(csr.num_vertices):
                    if (forward, v) in changed:
                        assert old[v] is not new[v] and old[v] != new[v]
                    elif (forward, v) in self.written:
                        assert old[v] == new[v]
                    else:
                        assert old[v] is new[v]
        self.last_seal = csr
        self.written = set()

    @rule(data=st.data())
    def reverse(self, data):
        reversed_graph = self.graph.reverse()
        flipped = {(v, u) for u, v in self.edges}
        for v in self.graph.vertices():
            assert reversed_graph.out_neighbors(v) is self.graph.in_neighbors(v)
            assert reversed_graph.in_neighbors(v) is self.graph.out_neighbors(v)
        # Mutating the reverse graph replaces its rows, not the shared ones.
        if flipped:
            edge = data.draw(st.sampled_from(sorted(flipped)))
            reversed_graph.remove_edge(*edge)
            flipped.discard(edge)
        reversed_graph.add_vertex()
        _assert_snapshot_is(
            reversed_graph.csr_snapshot(),
            reversed_graph.version,
            self.graph.num_vertices + 1,
            flipped,
        )

    @invariant()
    def live_graph_matches_the_model(self):
        for forward in (True, False):
            reference = _reference_rows(
                self.graph.num_vertices, self.edges, forward
            )
            read = self.graph.out_neighbors if forward else self.graph.in_neighbors
            assert tuple(read(v) for v in self.graph.vertices()) == reference
        assert self.graph.num_edges == len(self.edges)

    @invariant()
    def every_live_pin_is_frozen(self):
        store = self.graph.snapshots
        for pin, num_vertices, edges in self.pins:
            assert store.resolve(pin.version) is pin.csr
            _assert_snapshot_is(pin.csr, pin.version, num_vertices, edges)

    def teardown(self):
        for pin, _, _ in self.pins:
            pin.release()


TestSnapshotSharing = SnapshotSharing.TestCase
TestSnapshotSharing.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
