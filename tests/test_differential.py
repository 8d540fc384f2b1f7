"""One differential suite: every engine surface and configuration against
one brute-force oracle.

Sharing HC-s path queries (Algorithm 4) changes what a batch costs, never
what it answers.  So every route to an answer must return, per batch
position, the paths :func:`enumerate_paths_brute_force` returns: each
engine algorithm at each γ, both kernels, full-depth detection, the
DkSP/OnePass baselines, ``run``/``counts()``/both ``stream`` policies,
and a service before and after the graph changes under it.  One
comparison checks them all, :func:`assert_answers`: every position is
present and each list equals :func:`oracle`'s once sorted.  Runs that
must agree on how they shared (the two kernels, a stream and its run)
also report the same ``repr(result.sharing)``.

The draws cover four graph families: G(n, m), power-law, layered DAGs
and disjoint dense blocks.  A batch is built from few endpoints, so
forward roots are shared by queries with different targets.  It may hold
duplicate queries (drawn on purpose), an endpoint nothing reaches, and
k from 1 to 6.  Planted draws ride along as ``@example``s: Fig. 1, a
spliced forward root (:data:`SPLICED`), and the 25-vertex G(n, m) graphs
the k-shortest-path baselines were once checked on alone
(:data:`KSP_GRAPHS`, seeds 0-2, q(0, 12, k) for k 2-4).  The fixed cases
other test files keep (worker counts, fixed seeds) compare through the
same :func:`oracle` and :func:`assert_answers`.

``--hypothesis-profile=thorough`` (registered in ``conftest.py``) runs
fifty times the examples.
"""

from __future__ import annotations

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.batch.batch_enum import BatchEnum
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.batch.service import serve
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.kernels import NUMPY_AVAILABLE
from repro.enumeration.path_enum import PathEnum
from repro.enumeration.paths import sort_paths
from repro.baselines import BASELINES
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    PAPER_EXAMPLE_QUERIES,
    layered_dag,
    paper_example_graph,
    powerlaw_directed,
    random_directed_gnm,
)
from repro.queries.query import HCSTQuery

GAMMAS = (0.0, 0.5, 1.0)

SETTINGS = settings(
    # A fifth of the profile's examples: 20 by default, 1000 when thorough.
    max_examples=settings().max_examples // 5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle(graph, queries):
    """Per batch position, the brute-force enumerator's paths, sorted."""
    return [
        sort_paths(enumerate_paths_brute_force(graph, q.s, q.t, q.k))
        for q in queries
    ]


def assert_answers(expected, answers, route=""):
    """The one comparison.  ``answers`` — a ``BatchResult``, a
    ``{position: paths}`` mapping or a list by position — holds every
    position of the batch, each list equal to ``expected``
    (:func:`oracle`) once sorted; a ``BatchResult``'s ``counts()`` are
    the oracle's too."""
    if isinstance(answers, list):
        answers = dict(enumerate(answers))
    elif hasattr(answers, "paths_by_position"):
        assert answers.counts() == [len(paths) for paths in expected], route
        answers = answers.paths_by_position
    assert sorted(answers) == list(range(len(expected))), f"{route}: positions"
    for position, paths in enumerate(expected):
        assert sort_paths(answers[position]) == paths, f"{route}: at {position}"


# --------------------------------------------------------------------- #
# Draws: four graph families, batches from few endpoints
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def between(low, high):
    """``st.integers(low, high)``, built once per pair of bounds."""
    return st.integers(low, high)


def seed(draw):
    return draw(between(0, 2**16))


def gnm(draw):
    n = draw(between(4, 11))
    edges = draw(between(min(2 * n, n * (n - 1)), 3 * n))
    return random_directed_gnm(n, edges, seed(draw)), [(range(n), range(n))]


def powerlaw(draw):
    n = draw(between(5, 12))
    graph = powerlaw_directed(n, draw(between(2, 3)), seed(draw))
    return graph, [(range(n), range(n))]


def layered(draw):
    layers, width = draw(between(2, 5)), draw(between(2, 3))
    graph = layered_dag(layers, width, draw(between(1, 3)), seed(draw))
    return graph, [(range((layers - 1) * width), range(width, layers * width))]


def blocks(draw):
    """Disjoint blocks, so no cluster spans two: the first dense, its
    queries sharing roots, the others sparse strangers."""
    edges, pools, offset = [], [], 0
    for block in range(draw(between(2, 3))):
        size = draw(between(4, 6))
        most = size * (size - 1) * (2 if block else 3) // 4
        piece = random_directed_gnm(size, draw(between(size, most)), seed(draw))
        edges += [(u + offset, v + offset) for u, v in piece.edges()]
        pools.append((range(offset, offset + size),) * 2)
        offset += size
    return DiGraph.from_edges(edges, num_vertices=offset), pools


FAMILIES = (gnm, powerlaw, layered, blocks)


@st.composite
def workloads(draw):
    """``(graph, queries)`` from one of :data:`FAMILIES`: per endpoint pool
    one or two sources and one to three targets, one or two hop
    constraints in 1..6, then maybe a query to or from the isolated last
    vertex and maybe copies of drawn queries."""

    def pick(options):
        return options[draw(between(0, len(options) - 1))]

    graph, pools = pick(FAMILIES)(draw)
    isolated = graph.num_vertices
    graph = DiGraph.from_edges(graph.edges(), num_vertices=isolated + 1)
    pairs = []
    for sources, targets in pools:
        chosen = {pick(sources) for _ in range(draw(between(1, 2)))}
        others = [t for t in targets if t not in chosen]
        ends = {pick(others) for _ in range(draw(between(1, 3)))}
        pairs += [(s, t) for s in sorted(chosen) for t in sorted(ends)]
    ks = [draw(between(1, 6)) for _ in range(draw(between(1, 2)))]
    queries = [HCSTQuery(*pick(pairs), pick(ks)) for _ in range(draw(between(1, 5)))]
    if draw(between(0, 1)):
        s, t = pick(pairs)
        s, t = (s, isolated) if draw(between(0, 1)) else (isolated, t)
        queries.append(HCSTQuery(s, t, pick(ks)))
    for _ in range(draw(between(0, 2))):
        queries.insert(draw(between(0, len(queries))), pick(queries))
    return graph, queries


# --------------------------------------------------------------------- #
# Planted draws
# --------------------------------------------------------------------- #
#: Fig. 1 and its batch Q = {q0..q4}.
FIG1 = (paper_example_graph(), [HCSTQuery(*q) for q in PAPER_EXAMPLE_QUERIES])


def _spliced():
    """Sources 1 -> 0, both fanning into a middle layer that reaches the
    targets 8 and 9: the forward root from 0 serves two targets, is
    spliced by the root from 1, and the batch repeats one query."""
    edges = [(1, 0), (1, 2), (3, 8), (8, 9), (6, 2)]
    edges += [(0, v) for v in (2, 3, 4)]
    edges += [(u, v) for u in (2, 3, 4) for v in (5, 6, 7)]
    edges += [(u, v) for u in (5, 6, 7) for v in (8, 9)]
    queries = [(0, 8, 5), (0, 9, 5), (1, 9, 6), (0, 8, 5), (1, 8, 6)]
    return DiGraph.from_edges(edges), [HCSTQuery(*q) for q in queries]


SPLICED = _spliced()

#: G(25, 100) at seeds 0-2, each asked q(0, 12, k) for k 2-4.
KSP_GRAPHS = [
    (random_directed_gnm(25, 100, seed), [HCSTQuery(0, 12, k) for k in (2, 3, 4)])
    for seed in range(3)
]


def test_the_oracle_counts_fig1_as_the_paper_does():
    assert [len(paths) for paths in oracle(*FIG1)] == [3, 3, 1, 2, 2]


# --------------------------------------------------------------------- #
# Every configuration
# --------------------------------------------------------------------- #
@given(workloads(), st.sampled_from(GAMMAS))
@example(SPLICED, 0.0)
@example(FIG1, 0.8)
@example(KSP_GRAPHS[0], 0.5)
@example(KSP_GRAPHS[1], 0.5)
@example(KSP_GRAPHS[2], 0.5)
@SETTINGS
def test_every_configuration_answers_what_the_oracle_answers(data, gamma):
    """Every engine algorithm, PathEnum+ on a private per-query index,
    ``BatchEnum`` with full-depth detection beside the default depth, and
    the DkSP/OnePass baselines."""
    graph, queries = data
    expected = oracle(graph, queries)
    for algorithm in ALGORITHMS:
        engine = BatchQueryEngine(graph, algorithm, gamma=gamma, kernel="python")
        assert_answers(expected, engine.run(queries), algorithm)
    enum = PathEnum(graph, optimize_search_order=True)
    assert_answers(expected, [enum.enumerate(q) for q in queries], "PathEnum+")
    for plus in (False, True):
        enum = BatchEnum(
            graph, gamma, optimize_search_order=plus, max_detection_depth=None
        )
        assert_answers(expected, enum.run(queries), f"{enum.name}, full depth")
    for name, run in BASELINES.items():
        assert_answers(expected, run(graph, queries), name)


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
@given(workloads(), st.sampled_from(ALGORITHMS), st.sampled_from(GAMMAS))
@example(SPLICED, "batch", 0.0)
@SETTINGS
def test_the_numpy_kernel_answers_what_the_python_kernel_does(
    data, algorithm, gamma
):
    """Byte-identical: the same lists in the same order, the same sharing."""
    graph, queries = data
    python, numpy = (
        BatchQueryEngine(graph, algorithm, gamma=gamma, kernel=kernel).run(queries)
        for kernel in ("python", "numpy")
    )
    assert_answers(oracle(graph, queries), numpy, "numpy")
    assert numpy.paths_by_position == python.paths_by_position
    assert repr(numpy.sharing) == repr(python.sharing)


# --------------------------------------------------------------------- #
# Every surface
# --------------------------------------------------------------------- #
def drained(stream):
    """The ``(position, paths)`` pairs a stream yields, and its result."""
    flushed = []
    while True:
        try:
            flushed.append(next(stream))
        except StopIteration as stop:
            return flushed, stop.value


@given(workloads(), st.sampled_from(ALGORITHMS), st.sampled_from(GAMMAS))
@example(SPLICED, "batch+", 0.0)
@SETTINGS
def test_both_stream_policies_answer_what_run_answers(data, algorithm, gamma):
    """``ordered=True`` yields positions exactly ``0..n-1``;
    ``ordered=False`` a permutation of them.  Either way the lists are
    ``run``'s, in ``run``'s order, and so is the sharing."""
    graph, queries = data
    expected = oracle(graph, queries)
    engine = BatchQueryEngine(graph, algorithm, gamma=gamma)
    result = engine.run(queries)
    assert_answers(expected, result, "run")
    for ordered in (True, False):
        flushed, streamed = drained(engine.stream(queries, ordered=ordered))
        positions = [position for position, _ in flushed]
        in_order = positions if ordered else sorted(positions)
        assert in_order == list(range(len(queries))), f"ordered={ordered}"
        assert_answers(expected, dict(flushed), f"stream(ordered={ordered})")
        assert dict(flushed) == result.paths_by_position
        assert repr(streamed.sharing) == repr(result.sharing)


@given(
    workloads(),
    st.sampled_from(ALGORITHMS),
    st.lists(st.tuples(between(0, 99), between(0, 99)), min_size=1, max_size=4),
)
@example(SPLICED, "batch+", [(0, 3), (9, 5)])
@SETTINGS
def test_a_service_answers_what_the_oracle_answers_on_every_version(
    data, algorithm, toggles
):
    """``submit_many`` on the head, then after edge adds and removes
    (each toggle, taken modulo |V|, removes an edge or adds a missing
    one), then after an ``add_vertex`` barrier: each round against the
    oracle on the graph as it then is."""
    graph, queries = data
    graph = graph.copy()  # mutated below; a planted draw is shared
    with serve(graph, algorithm=algorithm) as service:

        def check(route):
            tickets = service.submit_many(queries)
            answers = [ticket.result(timeout=30.0) for ticket in tickets]
            assert_answers(oracle(graph, queries), answers, route)

        check("serve")
        for u, v in toggles:
            u, v = u % graph.num_vertices, v % graph.num_vertices
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            elif u != v:
                graph.add_edge(u, v)
        check("serve after edge edits")
        added = graph.add_vertex()
        graph.add_edge(queries[0].s, added)
        graph.add_edge(added, queries[0].t)
        check("serve after add_vertex")
