"""Shared pytest fixtures."""

from __future__ import annotations

import gc
import multiprocessing
import weakref

import pytest
from hypothesis import HealthCheck, settings

from repro.batch.service import IngestionService
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    PAPER_EXAMPLE_QUERIES,
    paper_example_graph,
    random_directed_gnm,
)
from repro.graph.snapshots import SnapshotStore
from repro.queries.query import HCSTQuery

#: ``--hypothesis-profile=thorough``: fifty times the default examples, for
#: the CI step that runs ``tests/test_differential.py`` on its own.
settings.register_profile(
    "thorough",
    max_examples=50 * settings.get_profile("default").max_examples,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture
def paper_graph() -> DiGraph:
    """The 16-vertex running example of Fig. 1."""
    return paper_example_graph()


@pytest.fixture
def paper_queries() -> list:
    """The query batch Q = {q0..q4} of Fig. 1."""
    return [HCSTQuery(s, t, k) for s, t, k in PAPER_EXAMPLE_QUERIES]


@pytest.fixture
def diamond_graph() -> DiGraph:
    """A small diamond: two parallel 2-hop routes plus a direct edge."""
    return DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])


@pytest.fixture
def random_graph() -> DiGraph:
    """A moderate random graph used by integration-style tests."""
    return random_directed_gnm(60, 240, seed=11)


@pytest.fixture
def two_root_cluster():
    """One dense block queried from 2 sources to 3 targets: a single
    cluster whose six queries hang off two forward roots, the first
    three from source 0 and the last three from source 1."""
    graph = random_directed_gnm(40, 240, seed=3)
    return graph, [HCSTQuery(s, t, 6) for s in (0, 1) for t in (20, 21, 22)]


@pytest.fixture(autouse=True)
def guarded_by_lock(monkeypatch):
    """Every test runs with ``IngestionService``'s lock discipline checked:
    once ``__init__`` has returned, reading or writing a name declared in
    ``_GUARDED_BY_LOCK`` without holding ``self._lock`` is a violation.

    The access raises ``AssertionError`` in the offending thread, and the
    test fails at teardown as well — a violation on the scheduler thread
    would otherwise surface only as a failed ticket, or not at all."""
    guarded = IngestionService._GUARDED_BY_LOCK
    getattribute = object.__getattribute__
    violations = []
    real_init = IngestionService.__init__

    def check(self, name, action):
        if name in guarded:
            fields = getattribute(self, "__dict__")
            if "_lock_checked" in fields and not fields["_lock"]._is_owned():
                violations.append(f"{action} {name} without self._lock")
                raise AssertionError(violations[-1])

    def checked_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        getattribute(self, "__dict__")["_lock_checked"] = True

    def checked_getattribute(self, name):
        check(self, name, "read")
        return getattribute(self, name)

    def checked_setattr(self, name, value):
        check(self, name, "wrote")
        object.__setattr__(self, name, value)

    monkeypatch.setattr(IngestionService, "__init__", checked_init)
    monkeypatch.setattr(IngestionService, "__getattribute__", checked_getattribute)
    monkeypatch.setattr(IngestionService, "__setattr__", checked_setattr)
    yield
    assert not violations, f"lock discipline broken: {violations}"


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process (a pool worker) alive.

    Yields the check itself, for a test that must look while it still
    holds whatever would otherwise keep the workers' owner from being
    garbage-collected (a caught exception's traceback)."""
    before = set(multiprocessing.active_children())

    def check() -> None:
        leaked = set(multiprocessing.active_children()) - before
        assert not leaked, (
            f"child processes left behind: {sorted(map(repr, leaked))}"
        )

    yield check
    check()


@pytest.fixture
def no_stale_snapshot(monkeypatch):
    """Returns ``check(graph)``: no snapshot of ``graph`` sealed during the
    test and older than its head is still reachable.  A sealed ``CSRGraph``
    lives exactly as long as something holds it, so call it once every
    stream and service the test opened is closed: what is left is a leak.

    Every seal is recorded by weak reference; the check collects garbage
    first, so only a real strong reference keeps a version alive."""
    sealed = weakref.WeakKeyDictionary()  # CSRGraph -> its store
    real_seal = SnapshotStore.seal

    def recording_seal(store):
        csr = real_seal(store)
        sealed[csr] = store
        return csr

    monkeypatch.setattr(SnapshotStore, "seal", recording_seal)

    def check(graph: DiGraph) -> None:
        gc.collect()
        stale = sorted(
            csr.version
            for csr, store in list(sealed.items())
            if store is graph.snapshots and csr.version != graph.version
        )
        assert not stale, (
            f"sealed versions {stale} outlive their batches "
            f"(head is {graph.version})"
        )

    return check
