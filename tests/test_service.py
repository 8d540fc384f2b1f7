"""Differential and lifecycle tests for the continuous-ingestion service.

The contract under test: queries trickled through an
:class:`IngestionService` — one at a time, in bursts, or concurrently from
multiple submitter threads — resolve to path lists identical to a single
closed-batch ``engine.run()`` over the same queries, for every algorithm
and worker setting; plus ticket-error propagation, backpressure and
``close()`` semantics.
"""

import multiprocessing
import statistics
import sys
import threading
import time
import traceback

import pytest

from repro.batch import batch_enum
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.service import (
    AdmissionPolicy,
    IngestionService,
    ServiceClosedError,
    ServiceOverloadedError,
    serve,
)
from repro.enumeration.paths import sort_paths
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery

#: Generous per-ticket timeout: a deadlocked scheduler fails the test
#: instead of hanging the suite.
TIMEOUT = 60.0


def canon(paths):
    """Canonical path-set form: micro-batch composition may legally change
    the enumeration *order* of one query's paths (the search-order
    optimiser and the sharing context see a different workload than the
    closed-batch oracle), but never the set."""
    return sort_paths(list(paths))

_GRAPH = random_directed_gnm(24, 80, seed=7)
_QUERIES = generate_random_queries(_GRAPH, 6, min_k=2, max_k=4, seed=7)

_REFERENCE = {}


def _reference(algorithm):
    if algorithm not in _REFERENCE:
        _REFERENCE[algorithm] = BatchQueryEngine(
            _GRAPH, algorithm=algorithm
        ).run(_QUERIES)
    return _REFERENCE[algorithm]


# --------------------------------------------------------------------- #
# Differential suite: service ≡ closed-batch run()
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_workers", [1, "auto"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trickled_service_matches_closed_batch(algorithm, num_workers):
    """One-at-a-time submission across all 5 algorithms × workers."""
    with serve(
        _GRAPH,
        algorithm=algorithm,
        num_workers=num_workers,
        max_batch_size=3,
    ) as service:
        tickets = [service.submit(query) for query in _QUERIES]
        for position, ticket in enumerate(tickets):
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                _reference(algorithm).paths_at(position)
            )
    stats = service.stats()
    assert stats.admitted == len(_QUERIES)
    assert stats.completed == len(_QUERIES)
    assert stats.failed == 0
    assert stats.batches_dispatched >= 1
    assert stats.mean_batch_size > 0


@pytest.mark.parametrize("algorithm", ["basic+", "batch+"])
def test_concurrent_submitters_match_closed_batch(algorithm):
    """Multiple threads hammering submit() still get per-query answers
    identical to the closed-batch oracle."""
    graph = random_directed_gnm(30, 110, seed=3)
    queries = generate_random_queries(graph, 12, min_k=2, max_k=4, seed=3)
    oracle = BatchQueryEngine(graph, algorithm=algorithm).run(queries)
    results = {}
    errors = []

    with serve(graph, algorithm=algorithm, max_batch_size=4) as service:

        def submitter(positions):
            try:
                for position in positions:
                    ticket = service.submit(queries[position])
                    results[position] = canon(ticket.result(timeout=TIMEOUT))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=submitter, args=(range(i, 12, 3),))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    assert not errors
    assert results == {
        position: canon(paths)
        for position, paths in oracle.paths_by_position.items()
    }


def test_duplicate_queries_each_get_their_own_ticket():
    query = _QUERIES[0]
    with serve(_GRAPH, algorithm="batch+") as service:
        tickets = service.submit_many([query, query, query])
        answers = [ticket.result(timeout=TIMEOUT) for ticket in tickets]
    assert answers[0] == answers[1] == answers[2]
    assert canon(answers[0]) == canon(_reference("batch+").paths_at(0))


def test_a_parallel_request_is_served_without_spawning_a_process(
    no_child_left, assert_nothing_pinned
):
    """``num_workers=2`` is inert in the service: every micro-batch runs on
    the scheduler thread, so no child process exists while the service is
    open, and the answers are the closed-batch oracle's."""
    graph = random_directed_gnm(30, 110, seed=5)
    queries = generate_random_queries(graph, 12, min_k=2, max_k=4, seed=5)
    oracle = BatchQueryEngine(graph, algorithm="batch+", num_workers=1).run(queries)
    with serve(
        graph, algorithm="batch+", num_workers=2, max_batch_size=4
    ) as service:
        for position, ticket in enumerate(service.submit_many(queries)):
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                oracle.paths_at(position)
            )
        assert multiprocessing.active_children() == []
        assert service.stats().batches_dispatched >= 3
    assert service.stats().failed == 0
    assert_nothing_pinned(graph)


def _gate_first_plan(service, monkeypatch):
    """Hold ``service``'s first micro-batch in its plan until ``release``
    is set; ``entered`` is set once it is held there."""
    entered, release = threading.Event(), threading.Event()
    plan = service._planner.plan

    def gated_plan(queries, snapshot=None):
        if not entered.is_set():
            entered.set()
            if not release.wait(timeout=TIMEOUT):
                raise TimeoutError("the first batch was never released")
        return plan(queries, snapshot=snapshot)

    monkeypatch.setattr(service._planner, "plan", gated_plan)
    return entered, release


def test_close_without_drain_during_delay_window_fails_queued_tickets(
    monkeypatch, no_child_left, assert_nothing_pinned
):
    """close(drain=False) while a ticket is queued behind a running batch
    must fail the queued ticket, not dispatch it anyway; the batch already
    in flight resolves."""
    service = IngestionService(_GRAPH, algorithm="batch+")
    entered, release = _gate_first_plan(service, monkeypatch)
    in_flight = service.submit(_QUERIES[0])
    assert entered.wait(timeout=TIMEOUT)
    queued = service.submit(_QUERIES[1])
    # The held batch keeps the scheduler alive, so this join times out
    # with the service already closing; the second close joins it.
    service.close(drain=False, timeout=0.05)
    release.set()
    service.close(drain=False)
    assert canon(in_flight.result(timeout=0.0)) == canon(
        _reference("batch+").paths_at(0)
    )
    assert queued.done()
    with pytest.raises(ServiceClosedError):
        queued.result(timeout=0.0)
    stats = service.stats()
    assert (stats.completed, stats.failed) == (1, 1)
    assert_nothing_pinned(_GRAPH)


# --------------------------------------------------------------------- #
# Admission: a free scheduler takes everything pending, up to the cap
# --------------------------------------------------------------------- #
def test_a_lone_ticket_is_not_held_for_company():
    """An idle service dispatches a lone arrival at once, so its latency
    is one run of its own query, not a wait for arrivals that never come.
    Medians of five keep one stall of a busy machine from deciding it."""
    query = _QUERIES[0]
    engine = BatchQueryEngine(_GRAPH, algorithm="batch+")
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        engine.run([query])
        runs.append(time.perf_counter() - start)
    latencies = []
    with serve(_GRAPH, algorithm="batch+") as service:
        for _ in range(5):
            ticket = service.submit(query)
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                _reference("batch+").paths_at(0)
            )
            latencies.append(ticket.latency_s)
    assert statistics.median(latencies) < max(2 * statistics.median(runs), 0.005)


def test_arrivals_during_a_running_batch_form_the_next_batch_together(
    monkeypatch,
):
    """Whatever arrives while a batch runs waits for it, then goes out as
    one batch: three singles behind a held batch make a batch of three."""
    service = IngestionService(_GRAPH, algorithm="batch+")
    entered, release = _gate_first_plan(service, monkeypatch)
    try:
        tickets = [service.submit(_QUERIES[0])]
        assert entered.wait(timeout=TIMEOUT)
        tickets += [service.submit(query) for query in _QUERIES[1:4]]
        release.set()
        for position, ticket in enumerate(tickets):
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                _reference("batch+").paths_at(position)
            )
    finally:
        release.set()
        service.close()
    stats = service.stats()
    assert (stats.batches_dispatched, stats.mean_batch_size) == (2, 2.0)


def test_a_submitted_group_goes_out_without_waiting_the_window():
    """A ``submit_many`` group smaller than ``max_batch_size`` reaches an
    idle scheduler whole, and goes out at once as one batch."""
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=64),
    )
    try:
        tickets = service.submit_many(_QUERIES)
        for position, ticket in enumerate(tickets):
            assert canon(ticket.result(timeout=5.0)) == canon(
                _reference("batch+").paths_at(position)
            )
    finally:
        service.close()
    stats = service.stats()
    assert stats.batches_dispatched == 1
    assert stats.mean_batch_size == len(_QUERIES)


def test_a_thread_switch_never_cuts_a_submitted_group():
    """``submit_many`` admits a group under one lock hold: even with the
    interpreter switching threads every microsecond, the scheduler never
    pops part of a group."""
    rounds = 20
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        num_workers=1,
        policy=AdmissionPolicy(max_batch_size=64),
    )
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            for ticket in service.submit_many(_QUERIES):
                ticket.result(timeout=TIMEOUT)
    finally:
        sys.setswitchinterval(previous)
        service.close()
    stats = service.stats()
    assert stats.batches_dispatched == rounds
    assert stats.mean_batch_size == len(_QUERIES)


# --------------------------------------------------------------------- #
# Error propagation and lifecycle
# --------------------------------------------------------------------- #
def test_ticket_error_propagation_and_scheduler_survival(
    no_child_left, assert_nothing_pinned
):
    """A query that fails inside its micro-batch resolves its ticket with
    the exception; the scheduler keeps serving later submissions."""
    graph = random_directed_gnm(12, 40, seed=1)
    good = generate_random_queries(graph, 2, min_k=2, max_k=3, seed=1)
    poisoned = HCSTQuery(0, graph.num_vertices + 7, 3)
    with serve(graph, algorithm="pathenum", max_batch_size=1) as service:
        bad_ticket = service.submit(poisoned)
        with pytest.raises(ValueError):
            bad_ticket.result(timeout=TIMEOUT)
        assert bad_ticket.done()
        # The scheduler survived: later queries are still answered.
        oracle = BatchQueryEngine(graph, algorithm="pathenum").run(good)
        tickets = service.submit_many(good)
        for position, ticket in enumerate(tickets):
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                oracle.paths_at(position)
            )
        stats = service.stats()
        assert stats.failed == 1
        assert stats.completed == len(good)
    assert_nothing_pinned(graph)


def test_plan_failure_after_the_pin_releases_it_and_the_scheduler_goes_on(
    monkeypatch, no_child_left, assert_nothing_pinned
):
    """The window between ``snapshots.pin()`` and the stream: a plan that
    raises fails its batch's tickets, gives the pin back, and the next
    batch — on a newer head — is planned and served."""
    graph = random_directed_gnm(12, 40, seed=1)
    first, second = generate_random_queries(graph, 2, min_k=2, max_k=3, seed=1)
    pinned_versions = []
    with serve(graph, algorithm="batch+", max_batch_size=1) as service:
        real_plan = service._planner.plan

        def plan_breaks_once(queries, snapshot=None):
            pinned_versions.append(snapshot.version)  # the pin is already taken
            if len(pinned_versions) == 1:
                raise KeyError("planner broke")
            return real_plan(queries, snapshot=snapshot)

        monkeypatch.setattr(service._planner, "plan", plan_breaks_once)
        bad_ticket = service.submit(first)
        with pytest.raises(KeyError, match="planner broke"):
            bad_ticket.result(timeout=TIMEOUT)
        # A leaked pin would now keep the failed batch's version alive
        # behind the new head.
        graph.add_edge(
            *next(
                (u, v)
                for u in graph.vertices()
                for v in graph.vertices()
                if u != v and not graph.has_edge(u, v)
            )
        )
        oracle = BatchQueryEngine(graph, algorithm="batch+").run([second])
        good_ticket = service.submit(second)
        assert canon(good_ticket.result(timeout=TIMEOUT)) == canon(
            oracle.paths_at(0)
        )
    stats = service.stats()
    assert (stats.failed, stats.completed) == (1, 1)
    assert pinned_versions == [graph.version - 1, graph.version]
    assert_nothing_pinned(graph)


def test_dead_scheduler_fails_its_tickets_and_refuses_the_next_submit(
    monkeypatch, no_child_left, assert_nothing_pinned
):
    """Whatever kills the scheduler thread — here the dispatch of a batch
    it popped — must not strand a caller: the popped tickets and the queue
    fail with the cause chained, the service reads closed, and the next
    ``submit`` is refused naming the cause."""
    monkeypatch.setattr(threading, "excepthook", lambda args: None)

    def broken_dispatch(self, batch):
        raise KeyError("dispatch broke")

    monkeypatch.setattr(IngestionService, "_dispatch", broken_dispatch)
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=2),
        start=False,
    )
    tickets = service.submit_many(_QUERIES[:3])  # two popped, one queued
    service.start()
    try:
        for ticket in tickets:
            with pytest.raises(ServiceClosedError, match="dispatch broke") as caught:
                ticket.result(timeout=TIMEOUT)
            assert isinstance(caught.value.__cause__, KeyError)
        with service._lock:
            thread = service._thread
        thread.join(TIMEOUT)
        assert not thread.is_alive()
        with pytest.raises(ServiceClosedError, match="dispatch broke") as refused:
            service.submit(_QUERIES[0])
        assert isinstance(refused.value.__cause__, KeyError)
        stats = service.stats()
        assert (stats.pending, stats.failed, stats.completed) == (0, 3, 0)
    finally:
        service.close()
    assert_nothing_pinned(_GRAPH)


def test_batch_peers_of_a_poisoned_query_share_its_error(
    no_child_left, assert_nothing_pinned
):
    """With the poisoned query inside a shared micro-batch, unresolved
    batch peers receive the same exception instead of hanging."""
    graph = random_directed_gnm(12, 40, seed=2)
    poisoned = HCSTQuery(0, graph.num_vertices + 7, 3)
    service = IngestionService(
        graph,
        algorithm="basic",
        policy=AdmissionPolicy(max_batch_size=4),
        start=False,
    )
    tickets = service.submit_many(
        [poisoned] + generate_random_queries(graph, 2, min_k=2, max_k=3, seed=2)
    )
    service.start()
    try:
        for ticket in tickets:
            with pytest.raises(ValueError):
                ticket.result(timeout=TIMEOUT)
    finally:
        service.close()
    assert_nothing_pinned(graph)


def test_close_drain_resolves_all_pending_tickets():
    service = IngestionService(_GRAPH, algorithm="batch+", start=False)
    tickets = service.submit_many(_QUERIES)
    service.start()
    service.close(drain=True)
    for position, ticket in enumerate(tickets):
        assert ticket.done()
        assert canon(ticket.result(timeout=0.0)) == canon(
            _reference("batch+").paths_at(position)
        )


def test_close_without_drain_fails_queued_tickets(
    no_child_left, assert_nothing_pinned
):
    service = IngestionService(_GRAPH, algorithm="batch+", start=False)
    tickets = service.submit_many(_QUERIES)
    service.close(drain=False)
    for ticket in tickets:
        assert ticket.done()
        with pytest.raises(ServiceClosedError):
            ticket.result(timeout=0.0)
    assert_nothing_pinned(_GRAPH)


def test_submit_after_close_raises():
    service = serve(_GRAPH, algorithm="batch+")
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(_QUERIES[0])
    service.close()  # idempotent


def test_backpressure_nonblocking_submit_raises_when_full():
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_pending=2),
        start=False,  # stopped scheduler: the queue genuinely fills up
    )
    service.submit_many(_QUERIES[:2])
    with pytest.raises(ServiceOverloadedError):
        service.submit(_QUERIES[2], block=False)
    with pytest.raises(TimeoutError):
        service.submit(_QUERIES[2], block=True, timeout=0.05)
    service.close(drain=False)


def test_nonblocking_submit_many_admits_all_or_nothing():
    """``submit_many(block=False)`` used to enqueue the queries that fit
    and then raise, leaving tickets the caller never received in the
    queue; now a batch that does not fit admits nothing."""
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_pending=2),
        start=False,  # stopped scheduler: the queue genuinely fills up
    )
    try:
        with pytest.raises(ServiceOverloadedError):
            service.submit_many(_QUERIES[:3], block=False)
        assert (service.stats().pending, service.stats().admitted) == (0, 0)
        tickets = service.submit_many(_QUERIES[:1], block=False)
        with pytest.raises(ServiceOverloadedError):
            service.submit_many(_QUERIES[1:3], block=False)
        assert service.stats().pending == 1
        tickets += service.submit_many(_QUERIES[1:2], block=False)
        assert [ticket.query for ticket in tickets] == _QUERIES[:2]
        assert service.stats().pending == 2
    finally:
        service.close(drain=False)
    with pytest.raises(ServiceClosedError):
        service.submit_many(_QUERIES[:1], block=False)
    assert service.stats().failed == 2


def test_failed_ticket_traceback_does_not_grow_per_result_call():
    """Every ticket of a failed batch re-raises one shared exception; each
    raise used to append two frames to its traceback (3 → 5 → 7 ...)."""
    poisoned = HCSTQuery(0, _GRAPH.num_vertices + 7, 3)
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=3),
        start=False,
    )
    tickets = service.submit_many([poisoned] + _QUERIES[:2])
    service.start()
    service.close(drain=True)

    def depth(ticket):
        try:
            ticket.result(timeout=TIMEOUT)
        except ValueError as error:
            return len(traceback.extract_tb(error.__traceback__))

    depths = [depth(ticket) for ticket in tickets for _ in range(50)]
    assert depths[0] > 2  # the frames of the batch that raised are kept
    assert depths == [depths[0]] * len(depths)


def test_service_stats_snapshot_shape():
    with serve(_GRAPH, algorithm="batch+") as service:
        tickets = service.submit_many(_QUERIES)
        for ticket in tickets:
            ticket.result(timeout=TIMEOUT)
        stats = service.stats()
    assert stats.admitted == len(_QUERIES)
    assert stats.completed == len(_QUERIES)
    assert stats.pending == 0
    assert stats.mean_ticket_latency_s > 0.0
    assert stats.sharing.num_clusters >= 1
    # The snapshot is detached: mutating the service later cannot change it.
    assert stats.admitted == len(_QUERIES)


def test_max_batch_size_is_a_hard_cap():
    """Identical queries queued behind a full batch wait for the next one;
    no batch grows past ``max_batch_size``."""
    query = _QUERIES[0]
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=2),
        start=False,
    )
    tickets = service.submit_many([query] * 4)
    service.start()
    try:
        for ticket in tickets:
            assert canon(ticket.result(timeout=TIMEOUT)) == canon(
                _reference("batch+").paths_at(0)
            )
    finally:
        service.close()
    stats = service.stats()
    assert (stats.batches_dispatched, stats.mean_batch_size) == (2, 2.0)


def test_failed_tickets_excluded_from_latency_mean():
    """Failed/abandoned tickets must not enter the latency mean at all.

    The pre-fix accounting divided by completed+failed (and folded failed
    tickets' queue time into the numerator), so a batch of failures
    dragged the reported mean toward zero exactly when the service was
    misbehaving.  Now the mean covers successful resolutions only.
    """
    service = IngestionService(_GRAPH, algorithm="batch+", start=False)
    service.submit_many(_QUERIES)
    time.sleep(0.05)
    service.close(drain=False)
    stats = service.stats()
    assert stats.failed == len(_QUERIES)
    assert stats.completed == 0
    # No successful resolution happened, so there is no mean to report.
    assert stats.mean_ticket_latency_s == 0.0


def test_latency_mean_unaffected_by_failed_batch():
    """A mixed run: the mean must equal the successful tickets' own mean,
    with the failed batch contributing nothing to either side."""
    service = IngestionService(
        _GRAPH,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=len(_QUERIES)),
    )
    try:
        good = service.submit_many(_QUERIES)
        for ticket in good:
            ticket.result(timeout=TIMEOUT)
        # A query whose endpoints are outside the graph fails its whole
        # (single-query) micro-batch.
        bad = service.submit(HCSTQuery(_GRAPH.num_vertices + 5, 0, 3))
        with pytest.raises(Exception):
            bad.result(timeout=TIMEOUT)
        stats = service.stats()
        assert stats.failed >= 1
        expected = sum(t.latency_s for t in good) / len(good)
        assert stats.mean_ticket_latency_s == pytest.approx(expected, rel=1e-6)
    finally:
        service.close()


def test_ticket_result_timeout_on_unstarted_service():
    service = IngestionService(_GRAPH, algorithm="batch+", start=False)
    ticket = service.submit(_QUERIES[0])
    assert not ticket.done()
    with pytest.raises(TimeoutError):
        ticket.result(timeout=0.05)
    service.close(drain=False)


# --------------------------------------------------------------------- #
# Lock discipline (_GUARDED_BY_LOCK, checked by conftest's guarded_by_lock)
# --------------------------------------------------------------------- #
def test_guarded_declaration_matches_real_instance_state():
    """Every name declared in ``_GUARDED_BY_LOCK`` must exist on a live
    instance — a renamed attribute would otherwise silently fall out of
    the ``guarded_by_lock`` fixture's check."""
    service = IngestionService(_GRAPH, algorithm="batch+", start=False)
    try:
        with service._lock:
            for name in IngestionService._GUARDED_BY_LOCK:
                assert hasattr(service, name), name
    finally:
        service.close(drain=False)


def test_a_ticket_resolves_while_its_micro_batch_is_still_running(
    two_root_cluster, monkeypatch
):
    """A ticket resolves when its forward root is joined, not when its
    micro-batch ends: the second root's join waits until one ticket of
    the batch reports done, and raises ``TimeoutError`` if none does."""
    graph, queries = two_root_cluster
    first_ticket_done = threading.Event()
    joins = []
    join = batch_enum.join_path_sets

    def gated(*args):
        joins.append(args)
        if len(joins) == 2 and not first_ticket_done.wait(timeout=5.0):
            raise TimeoutError("no ticket resolved before the second join")
        return join(*args)

    monkeypatch.setattr(batch_enum, "join_path_sets", gated)
    with serve(graph, algorithm="batch+") as service:
        tickets = service.submit_many(queries)
        deadline = time.monotonic() + TIMEOUT
        while not any(ticket.done() for ticket in tickets):
            assert time.monotonic() < deadline, "no ticket resolved"
            time.sleep(0.001)
        first_ticket_done.set()
        for ticket in tickets:
            ticket.result(timeout=TIMEOUT)
    assert len(joins) == 2


def test_stats_count_a_ticket_before_it_reads_done(monkeypatch):
    """A ticket is counted when it resolves, not when its micro-batch
    ends: with the batch held open after its last answer, ``stats()``
    already counts every resolved ticket, and not yet the batch."""
    release = threading.Event()
    service = IngestionService(_GRAPH, algorithm="batch+")
    stream_planned = service._engine.stream_planned

    def held_open(plan, ordered):
        result = yield from stream_planned(plan, ordered=ordered)
        release.wait(timeout=TIMEOUT)
        return result

    monkeypatch.setattr(service._engine, "stream_planned", held_open)
    try:
        for ticket in service.submit_many(_QUERIES):
            ticket.result(timeout=TIMEOUT)
        stats = service.stats()
        assert (stats.completed, stats.batches_dispatched) == (len(_QUERIES), 0)
    finally:
        release.set()
        service.close()
    stats = service.stats()
    assert (stats.completed, stats.batches_dispatched) == (len(_QUERIES), 1)


def test_stats_stay_consistent_under_concurrent_submit_and_read():
    """Hammer the lock-guarded counters from several submitter threads
    while a reader polls ``stats()``: every snapshot must satisfy the
    invariants the lock is supposed to protect, and the final tallies
    must balance exactly."""
    submitters, per_thread = 3, 8
    policy = AdmissionPolicy(max_batch_size=4)
    service = IngestionService(
        _GRAPH, algorithm="batch+", num_workers=1, policy=policy
    )
    queries = generate_random_queries(
        _GRAPH, submitters * per_thread, min_k=2, max_k=4, seed=11
    )
    tickets, errors = [], []
    tickets_lock = threading.Lock()
    stop_reading = threading.Event()

    def submit_slice(offset):
        try:
            for query in queries[offset : offset + per_thread]:
                ticket = service.submit(query)
                with tickets_lock:
                    tickets.append(ticket)
        except BaseException as error:  # pragma: no cover - fails the test
            errors.append(error)

    def read_stats():
        while not stop_reading.is_set():
            stats = service.stats()
            resolved = stats.completed + stats.failed
            if not (0 <= resolved <= stats.admitted):
                errors.append(
                    AssertionError(f"inconsistent snapshot: {stats}")
                )
            if stats.batches_dispatched:
                if not stats.mean_batch_size >= 1.0:
                    errors.append(
                        AssertionError(f"bad mean batch size: {stats}")
                    )

    threads = [
        threading.Thread(target=submit_slice, args=(i * per_thread,))
        for i in range(submitters)
    ]
    reader = threading.Thread(target=read_stats)
    reader.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for ticket in tickets:
        ticket.result(timeout=TIMEOUT)
    stop_reading.set()
    reader.join()
    service.close(drain=True)
    assert errors == []
    final = service.stats()
    assert final.admitted == submitters * per_thread
    assert final.completed == final.admitted
    assert final.failed == 0
    assert final.pending == 0
    assert final.batches_dispatched >= 1
