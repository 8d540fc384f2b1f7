"""The "+" variants' budget split: priced by the work the root searches do."""

import random

from split_oracle import exact_split_costs

from repro.batch import batch_enum
from repro.batch.engine import BatchQueryEngine
from repro.bfs.distance_index import build_index
from repro.enumeration import path_enum
from repro.enumeration.search_order import (
    BACKWARD_PREFIX_WEIGHT,
    choose_budget_split,
    mean_degree_of,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.queries.query import HCSTQuery


def _split(graph, queries):
    index = build_index(graph, [q.s for q in queries], [q.t for q in queries],
                        max(q.k for q in queries))
    return choose_budget_split(queries, index, mean_degree_of(graph))


def _regular_digraph(rng, n, degree):
    """Every vertex has in- and out-degree ``degree``: the union of
    ``degree`` random permutations with no fixed point and no shared edge."""
    edges = set()
    for _ in range(degree):
        while True:
            image = list(range(n))
            rng.shuffle(image)
            if all(v != w and (v, w) not in edges for v, w in enumerate(image)):
                break
        edges.update(enumerate(image))
    return DiGraph.from_edges(sorted(edges), num_vertices=n)


def _strangers(rng, graph, k, count):
    """``count`` queries whose sources' closed out-neighbourhoods, and whose
    targets' closed in-neighbourhoods, are pairwise disjoint."""
    queries, near_sources, near_targets = [], set(), set()
    while len(queries) < count:
        s, t = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
        near_s = {s, *graph.out_neighbors(s)}
        near_t = {t, *graph.in_neighbors(t)}
        if t in near_s or near_s & near_sources or near_t & near_targets:
            continue
        near_sources |= near_s
        near_targets |= near_t
        queries.append(HCSTQuery(s, t, k))
    return queries


def _hot_group(rng, graph, k):
    """Two sources × (an anchor target and all its in-neighbours)."""
    anchor = rng.randrange(graph.num_vertices)
    pool = [anchor, *graph.in_neighbors(anchor)]
    sources = []
    while len(sources) < 2:
        s = rng.randrange(graph.num_vertices)
        if s not in pool and s not in sources:
            sources.append(s)
    return [HCSTQuery(s, t, k) for s in sources for t in pool]


def test_an_exact_tie_takes_the_balanced_split():
    # Both endpoints are isolated: no prefix is admissible on either side,
    # so every candidate costs nothing.
    graph = DiGraph.from_edges([(2, 3), (3, 4)], num_vertices=6)
    assert _split(graph, [HCSTQuery(0, 1, 5)]) == {5: 3}
    assert _split(graph, [HCSTQuery(0, 1, 6)]) == {6: 3}
    assert _split(graph, [HCSTQuery(0, 1, 5), HCSTQuery(5, 1, 7)]) == {5: 3, 7: 4}


def test_the_split_follows_the_exact_work():
    """On both planted shapes the chooser picks the split whose root
    searches scan the fewest neighbours and keep the fewest backward
    prefixes, counted exactly by ``split_oracle``: always when the best
    split is clearly best, and on nearly every instance.  The sizes are
    ones where the best split differs between shapes and sizes."""
    sizes = [(100, 4, 6), (100, 5, 7), (100, 8, 5), (300, 3, 5)]
    agreed, clear, instances, bests = 0, 0, 0, set()
    for seed in range(30):
        rng = random.Random(seed)
        n, degree, k = sizes[seed % len(sizes)]
        graph = _regular_digraph(rng, n, degree)
        for shape in (_strangers, _hot_group):
            if shape is _strangers:
                queries = _strangers(rng, graph, k, 3)
            else:
                queries = _hot_group(rng, graph, k)
            exact = exact_split_costs(graph, queries, BACKWARD_PREFIX_WEIGHT)
            balanced = (k + 1) // 2
            best, runner_up = sorted(
                (balanced - 1, balanced, balanced + 1), key=exact.__getitem__
            )[:2]
            chosen = _split(graph, queries)[k]
            instances += 1
            agreed += chosen == best
            bests.add(best - balanced)
            if exact[runner_up] >= 1.5 * exact[best]:
                clear += 1
                assert chosen == best, (seed, shape.__name__, exact)
    assert bests == {0, 1}
    assert clear >= instances // 2
    assert agreed >= 0.9 * instances


def test_roots_are_priced_once_however_many_queries_they_serve():
    """Alone, each query of a hot group takes the balanced split; together
    their two forward roots can afford the longer forward search, and a
    root is paid for once however many copies of a query it serves."""
    rng = random.Random(0)
    graph = _regular_digraph(rng, 100, 5)
    group = _hot_group(rng, graph, 7)
    assert {_split(graph, [query])[7] for query in group} == {4}
    assert _split(graph, group) == {7: 5}
    assert _split(graph, group + group[:1] * 20) == {7: 5}


def test_repeated_queries_are_priced_as_their_distinct_queries():
    """A batch with every query repeated and shuffled takes the split of
    its distinct queries, whose exact work (``split_oracle``) the copies
    do not change either; and where that work clearly favours one split,
    both take it."""
    clear = 0
    for seed in range(12):
        rng = random.Random(seed)
        graph = _regular_digraph(rng, 100, 4 + seed % 2)
        k = 6 + seed % 2
        for shape in (_strangers, _hot_group):
            if shape is _strangers:
                distinct = _strangers(rng, graph, k, 3)
            else:
                distinct = _hot_group(rng, graph, k)
            batch = [q for q in distinct for _ in range(rng.randint(1, 4))]
            rng.shuffle(batch)
            chosen = _split(graph, batch)
            assert chosen == _split(graph, distinct), (seed, shape.__name__)
            exact = exact_split_costs(graph, batch, BACKWARD_PREFIX_WEIGHT)
            assert exact == exact_split_costs(
                graph, distinct, BACKWARD_PREFIX_WEIGHT
            )
            balanced = (k + 1) // 2
            best, runner_up = sorted(
                (balanced - 1, balanced, balanced + 1), key=exact.__getitem__
            )[:2]
            if exact[runner_up] >= 1.5 * exact[best]:
                clear += 1
                assert chosen[k] == best, (seed, shape.__name__, exact)
    assert clear >= 6


def test_a_cluster_of_one_and_basic_plus_get_the_same_split(monkeypatch):
    """Whichever route ``batch+`` prices a cluster of one through, the split
    it runs is the one ``basic+`` runs for that query."""
    chosen = []

    def recording(queries, index, mean_degree):
        split = choose_budget_split(queries, index, mean_degree)
        chosen.extend((query, split[query.k]) for query in queries)
        return split

    monkeypatch.setattr(path_enum, "choose_budget_split", recording)
    monkeypatch.setattr(batch_enum, "choose_budget_split", recording)
    # One query per disconnected block: every cluster is a cluster of one.
    edges, queries = [], []
    for block in range(12):
        offset = 30 * block
        sparse = random_directed_gnm(30, 120, seed=block)
        edges += [(u + offset, v + offset) for u, v in sparse.edges()]
        queries.append(HCSTQuery(offset, offset + 17, 3 + block % 4))
    graph = DiGraph.from_edges(edges, num_vertices=30 * 12)
    splits = {}
    for algorithm in ("batch+", "basic+"):
        chosen.clear()
        result = BatchQueryEngine(graph, algorithm, num_workers=1).run(queries)
        splits[algorithm] = dict(chosen)
        if algorithm == "batch+":
            assert result.sharing.num_clusters == len(queries)
    assert splits["batch+"] == splits["basic+"]
    assert len(splits["basic+"]) == len(queries)
