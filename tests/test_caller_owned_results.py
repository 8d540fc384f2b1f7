"""Every container the public surface hands out belongs to the caller.

A caller may scribble on any list or dict it gets back — from a
``BatchResult`` accessor, ``engine.run``/``engine.stream``, a service
ticket or ``service.stats()`` — and the next call must still answer what
a fresh engine answers.  (``engine.stream()`` once yielded the per-position
lists it was still accumulating into its own ``BatchResult``.)
"""

import copy
import dataclasses

from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.service import serve
from repro.enumeration.paths import sort_paths
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries

TIMEOUT = 60.0

_GRAPH = random_directed_gnm(24, 80, seed=7)
# A duplicate query, so one list shared by two positions would show too.
_QUERIES = generate_random_queries(_GRAPH, 5, min_k=2, max_k=4, seed=7)
_QUERIES.append(_QUERIES[0])

#: The ``BatchResult`` accessors, each returning a list or a dict.
_RESULT_SURFACE = {
    "paths_at": lambda result: result.paths_at(0),
    "paths": lambda result: result.paths(_QUERIES[0]),
    "counts": lambda result: result.counts(),
    "sorted_paths_at": lambda result: result.sorted_paths_at(0),
    "stage_timer.totals": lambda result: result.stage_timer.totals,
}


def scribble(container):
    """What a careless caller does to a list or dict it was handed."""
    if isinstance(container, dict):
        container["scribbled"] = -1.0
    else:
        container.append(("scribbled",))
        container.reverse()


def drain_scribbling(stream):
    """Consume ``stream``, scribbling on every yielded list; returns the
    copies taken before scribbling and the stream's ``BatchResult``."""
    delivered = {}
    while True:
        try:
            position, paths = next(stream)
        except StopIteration as stop:
            return delivered, stop.value
        delivered[position] = list(paths)
        scribble(paths)


def test_returned_containers_are_caller_owned():
    for algorithm in ALGORITHMS:
        fresh = BatchQueryEngine(_GRAPH, algorithm=algorithm).run(_QUERIES)
        expected = [fresh.paths_at(i) for i in range(len(_QUERIES))]
        engine = BatchQueryEngine(_GRAPH, algorithm=algorithm)

        result = engine.run(_QUERIES)
        for name, accessor in _RESULT_SURFACE.items():
            before = copy.deepcopy(accessor(result))
            scribble(accessor(result))
            assert accessor(result) == before, (algorithm, name)
            if name != "stage_timer.totals":  # timings differ per run
                assert before == accessor(fresh), (algorithm, name)
        for paths in result.paths_by_position.values():
            scribble(paths)
        again = engine.run(_QUERIES)
        assert [again.paths_at(i) for i in range(len(_QUERIES))] == expected

        for ordered in (True, False):
            delivered, streamed = drain_scribbling(
                engine.stream(_QUERIES, ordered=ordered)
            )
            assert [delivered[i] for i in range(len(_QUERIES))] == expected
            assert [
                streamed.paths_at(i) for i in range(len(_QUERIES))
            ] == expected, (algorithm, ordered)

    oracle = BatchQueryEngine(_GRAPH, algorithm="batch+").run(_QUERIES)
    with serve(_GRAPH, algorithm="batch+", num_workers=1) as service:
        tickets = service.submit_many(_QUERIES)
        for position, ticket in enumerate(tickets):
            paths = ticket.result(timeout=TIMEOUT)
            before = list(paths)
            scribble(paths)
            assert ticket.result(timeout=TIMEOUT) == before
            # Micro-batching may reorder one query's paths, never its set.
            assert sort_paths(before) == oracle.sorted_paths_at(position)
        sharing = service.stats().sharing
        before = dataclasses.replace(sharing)
        sharing.merge(sharing)
        sharing.num_clusters = -1
        assert service.stats().sharing == before
