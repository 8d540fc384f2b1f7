"""The five named workloads of ``benchmarks/perf``: inputs, set-up, timed loops.

Every workload is a pure function of ``--seed``: the generators below draw a
graph and a query batch from one ``random.Random(seed)`` and the engine
receives only those generated inputs.

Why a benchmark-owned graph family
----------------------------------
All five workloads run on :func:`regular_blocks` — disconnected random
digraphs in which *every* vertex has the same in- and out-degree (the
GraphWorld / SBM "communities" idea with the degree skew taken out).  On the
library's ``powerlaw_directed`` the number of result paths of one seeded
batch varies 5x from seed to seed (35 k – 157 k paths for the same
parameters), so no two seeds measure the same load.  With equal degrees the
hop-constrained path count between two vertices concentrates within ~1 % and
BFS frontiers have the same size everywhere, which is what lets an unseen
seed produce a comparable load inside a ten-second run.  Skewed graphs stay
covered by the ``bench_fig*`` paper replays.

Closed loop everywhere: one driver thread, the next operation is issued
only after the previous one completed.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import BatchQueryEngine, DiGraph, HCSTQuery, serve
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.graph.generators import PAPER_EXAMPLE_QUERIES, paper_example_graph
from repro.queries.generation import (
    generate_random_queries,
    generate_similar_workload,
)
from repro.queries.workload import QueryWorkload

Edge = Tuple[int, int]

#: One client keeps this many tickets in flight per round (``live_serve``).
SERVE_WINDOW = 24
#: Seconds a ticket may stay unresolved before it counts as failed.
TICKET_TIMEOUT_S = 60.0
#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A drawn batch that misses its asserted properties is re-drawn this often.
MAX_DRAWS = 5
#: Positions compared path-set by path-set against the ``pathenum`` oracle.
ORACLE_SAMPLE = 8


# ---------------------------------------------------------------------- #
# Graph family
# ---------------------------------------------------------------------- #
def regular_blocks(
    rng: random.Random, num_blocks: int, block_size: int, degree: int
) -> List[Edge]:
    """Edges of ``num_blocks`` disconnected random digraphs of
    ``block_size`` vertices in which every vertex has in- and out-degree
    exactly ``degree`` (the union of ``degree`` random permutations, with
    self-loops and duplicate edges swapped away)."""
    edges: List[Edge] = []
    for block in range(num_blocks):
        base = block * block_size
        taken = set()
        for _ in range(degree):
            image = list(range(block_size))
            rng.shuffle(image)
            for v in range(block_size):
                while image[v] == v or (v, image[v]) in taken:
                    w = rng.randrange(block_size)
                    if (
                        w != v
                        and image[w] != v
                        and image[v] != w
                        and (v, image[w]) not in taken
                        and (w, image[v]) not in taken
                    ):
                        image[v], image[w] = image[w], image[v]
            taken.update(enumerate(image))
        edges.extend((base + u, base + v) for u, v in sorted(taken))
    return edges


def _adjacency(edges: Sequence[Edge]) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    out: Dict[int, List[int]] = {}
    into: Dict[int, List[int]] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
        into.setdefault(v, []).append(u)
    return out, into


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    """What one seeded draw hands to the system under test."""

    edges: List[Edge]
    num_vertices: int
    queries: List[HCSTQuery]
    #: ``live_serve`` only: isolated vertices whose mutual edges are toggled
    #: while tickets are in flight (version bumps that change no answer).
    churn_vertices: Sequence[int] = ()
    #: ``live_serve`` only: absent edges of the real graph, added and removed
    #: again between rounds (net zero).
    spare_edges: List[Edge] = field(default_factory=list)


def _draw_shared_hot(rng: random.Random, size: Dict[str, int]) -> Inputs:
    """One hot group with a planted sharing structure: ``sources`` x
    (one anchor target and all its in-neighbours), in one block whose k-hop
    neighbourhoods cover the block, so clustering yields a single cluster.

    Every source's forward HC-s root serves all its targets, every target's
    backward root serves all sources, and the anchor's backward search
    splices the cached results of its in-neighbours.  How much a batch
    shares decides what it costs (a draw with 10x the splices runs 3x as
    long), so the draw keeps only that planted structure: no other edge
    inside the target pool, no in-neighbour common to two targets, sources
    with disjoint closed out-neighbourhoods away from the pool."""
    n, k = size["block_size"], size["k"]
    edges = regular_blocks(rng, 1, n, size["degree"])
    out, into = _adjacency(edges)
    while True:
        anchor = rng.randrange(n)
        pool = [anchor, *into[anchor]]
        members = set(pool)
        inside = sum(len(members.intersection(out[v])) for v in pool)
        feeders = [u for v in pool for u in into[v]]
        if inside == len(pool) - 1 and len(set(feeders)) == len(feeders):
            break
    sources: List[int] = []
    covered = set(members)
    while len(sources) < size["sources"]:
        s = rng.randrange(n)
        near = {s, *out[s]}
        if not near & covered:
            sources.append(s)
            covered |= near
    queries = [HCSTQuery(s, t, k) for s in sources for t in pool]
    rng.shuffle(queries)
    return Inputs(edges, n, queries)


def _draw_disjoint_wide(rng: random.Random, size: Dict[str, int]) -> Inputs:
    """Many unrelated shallow queries on one sparse block: k-hop
    neighbourhoods are a sliver of the graph, so nothing clusters."""
    n = size["block_size"]
    edges = regular_blocks(rng, 1, n, size["degree"])
    graph = DiGraph.from_edges(edges, num_vertices=n)
    queries = generate_random_queries(
        graph, size["queries"], size["min_k"], size["max_k"],
        seed=rng.randrange(2**30),
    )
    return Inputs(edges, n, queries)


def _draw_deep_paths(rng: random.Random, size: Dict[str, int]) -> Inputs:
    """``per_block`` deep queries in each of several disconnected dense
    blocks.  Endpoints of one block have pairwise disjoint closed
    neighbourhoods, so detection (depth 1) finds nothing to share, and every
    target is at distance >= 2 from its source."""
    n, k = size["block_size"], size["k"]
    edges = regular_blocks(rng, size["blocks"], n, size["degree"])
    out, into = _adjacency(edges)
    queries: List[HCSTQuery] = []
    for block in range(size["blocks"]):
        base = block * n
        used_sources: set = set()
        used_targets: set = set()
        placed = 0
        while placed < size["per_block"]:
            s, t = base + rng.randrange(n), base + rng.randrange(n)
            near_s = {s, *out[s]}
            near_t = {t, *into[t]}
            if t in near_s or near_s & used_sources or near_t & used_targets:
                continue
            used_sources |= near_s
            used_targets |= near_t
            queries.append(HCSTQuery(s, t, k))
            placed += 1
    return Inputs(edges, size["blocks"] * n, queries)


def _draw_live_serve(rng: random.Random, size: Dict[str, int]) -> Inputs:
    """A replay of half-similar groups (the Exp-1 generator at 0.5) for one
    windowed client, on a graph with extra isolated "churn" vertices."""
    n = size["block_size"]
    edges = regular_blocks(rng, 1, n, size["degree"])
    graph = DiGraph.from_edges(edges, num_vertices=n)
    queries: List[HCSTQuery] = []
    for _ in range(size["groups"]):
        group, _spec = generate_similar_workload(
            graph, size["group_size"], 0.5, size["min_k"], size["max_k"],
            seed=rng.randrange(2**30), measure=False,
        )
        queries.extend(group)
    present = set(edges)
    spare: List[Edge] = []
    while len(spare) < 64:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in present:
            spare.append((u, v))
    churn = range(n, n + size["churn"])
    return Inputs(edges, n + size["churn"], queries, churn, spare)


# ---------------------------------------------------------------------- #
# Workload table
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "batch": engine.run/stream; "serve": IngestionService
    options: Dict[str, object]  # constructor keywords of the engine/service
    draw: Callable[[random.Random, Dict[str, int]], Inputs]
    sizes: Dict[str, Dict[str, int]]  # scale -> generator parameters
    #: (clusters, shared nodes, total paths) -> reason the draw is unusable.
    unmet: Callable[[int, int, int, Dict[str, int]], Optional[str]]


def _band(total_paths: int, size: Dict[str, int]) -> Optional[str]:
    low, high = size["min_paths"], size["max_paths"]
    if not low <= total_paths <= high:
        return f"{total_paths} paths outside [{low}, {high}]"
    return None


def _unmet_shared_hot(clusters, shared, paths, size):
    if clusters > 3:
        return f"{clusters} clusters > 3"
    if shared <= 0:
        return "no shared HC-s node"
    return _band(paths, size)


def _unmet_disjoint_wide(clusters, shared, paths, size):
    if clusters < 8:
        return f"{clusters} clusters < 8"
    return _band(paths, size)


def _unmet_deep_paths(clusters, shared, paths, size):
    if clusters != size["blocks"]:
        return f"{clusters} clusters != {size['blocks']}"
    if shared != 0:
        return f"{shared} shared HC-s nodes != 0"
    return _band(paths, size)


def _unmet_live_serve(clusters, shared, paths, size):
    return _band(paths, size)


_DEEP_SIZES = {
    "full": dict(blocks=4, block_size=1200, degree=10, k=7, per_block=4,
                 min_paths=100_000, max_paths=200_000),
    "smoke": dict(blocks=4, block_size=60, degree=4, k=5, per_block=2,
                  min_paths=1, max_paths=100_000),
}

#: Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "shared_hot", "batch", {}, _draw_shared_hot,
            {
                "full": dict(block_size=2000, degree=10, k=7, sources=2,
                             min_paths=60_000, max_paths=240_000),
                "smoke": dict(block_size=200, degree=3, k=6, sources=2,
                              min_paths=1, max_paths=100_000),
            },
            _unmet_shared_hot,
        ),
        Workload(
            "disjoint_wide", "batch", {}, _draw_disjoint_wide,
            {
                "full": dict(block_size=8000, degree=4, queries=96, min_k=3,
                             max_k=4, min_paths=1, max_paths=5_000),
                "smoke": dict(block_size=300, degree=3, queries=12, min_k=3,
                              max_k=4, min_paths=1, max_paths=5_000),
            },
            _unmet_disjoint_wide,
        ),
        Workload(
            "deep_paths", "batch", {"num_workers": 1}, _draw_deep_paths,
            _DEEP_SIZES, _unmet_deep_paths,
        ),
        Workload(
            "deep_paths_sharded", "batch",
            {"num_workers": 2, "max_workers": 2}, _draw_deep_paths,
            _DEEP_SIZES, _unmet_deep_paths,
        ),
        Workload(
            "live_serve", "serve", {"num_workers": 1}, _draw_live_serve,
            {
                "full": dict(block_size=6000, degree=4, groups=20,
                             group_size=96, min_k=4, max_k=5, churn=200,
                             min_paths=1, max_paths=100_000),
                "smoke": dict(block_size=200, degree=4, groups=2,
                              group_size=24, min_k=3, max_k=4, churn=20,
                              min_paths=1, max_paths=100_000),
            },
            _unmet_live_serve,
        ),
    )
}


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
@dataclass
class Ready:
    """A warmed-up system under test plus the verified reference."""

    graph: DiGraph
    system: object  # BatchQueryEngine or IngestionService
    seconds: float
    #: Path count per batch position (batch) / per unique query (serve).
    reference_counts: Dict[object, int]
    #: Path sets of the positions/queries the oracle re-derives.
    sample_paths: Dict[object, frozenset]
    clusters: int
    shared_nodes: int
    total_paths: int

    def close(self) -> None:
        if hasattr(self.system, "close"):
            self.system.close(drain=True)


def set_up(workload: Workload, inputs: Inputs, seed: int) -> Ready:
    """Build the graph, seal it, construct the engine/service and warm it up.

    The timed part is what a user pays before the first real operation:
    ``DiGraph.from_edges``, ``csr_snapshot()``, the public constructor and
    one warm-up batch (``live_serve``: one warm-up round).  Drawing the
    inputs and taking the reference are outside it.
    """
    start = time.perf_counter()
    graph = DiGraph.from_edges(inputs.edges, num_vertices=inputs.num_vertices)
    graph.csr_snapshot()
    if workload.mode == "batch":
        system = BatchQueryEngine(graph, **workload.options)
        warm = system.run(inputs.queries)
        seconds = time.perf_counter() - start
        keys: Sequence[object] = range(len(inputs.queries))
        counts = dict(enumerate(warm.counts()))
        paths_of = warm.paths_by_position
    else:
        system = serve(graph, **workload.options)
        tickets = system.submit_many(inputs.queries[:SERVE_WINDOW])
        for ticket in tickets:
            ticket.result(timeout=TICKET_TIMEOUT_S)
        seconds = time.perf_counter() - start
        # Closed-batch reference of the unique queries, on a private copy of
        # the graph so the service's snapshot store is left alone.
        unique = sorted(set(inputs.queries))
        warm = BatchQueryEngine(
            DiGraph.from_edges(inputs.edges, num_vertices=inputs.num_vertices),
            num_workers=1,
        ).run(unique)
        keys = unique
        counts = dict(zip(unique, warm.counts()))
        paths_of = {
            query: warm.paths_by_position[i] for i, query in enumerate(unique)
        }
    sampled = random.Random(seed).sample(list(keys), min(ORACLE_SAMPLE, len(keys)))
    sample = {key: frozenset(paths_of[key]) for key in sampled}
    return Ready(
        graph, system, seconds, counts, sample,
        warm.sharing.num_clusters, warm.sharing.num_shared_nodes,
        warm.total_paths(),
    )


def draw_and_set_up(
    workload: Workload, seed: int, scale: str
) -> Tuple[Inputs, Ready, List[float], int]:
    """Draw inputs until the warm-up shows the workload's asserted
    properties, then repeat set-up for a median.  Returns the inputs, the
    last warmed system, every set-up time and the number of draws used."""
    size = workload.sizes[scale]
    for attempt in range(MAX_DRAWS):
        inputs = workload.draw(random.Random(seed + 1000 * attempt), size)
        ready = set_up(workload, inputs, seed)
        reason = workload.unmet(
            ready.clusters, ready.shared_nodes, ready.total_paths, size
        )
        if reason is None:
            break
        print(f"draw {attempt} rejected: {reason}", file=sys.stderr)
        ready.close()
    else:
        raise RuntimeError(
            f"{workload.name}: no usable draw in {MAX_DRAWS} attempts"
        )
    setups = [ready.seconds]
    while len(setups) < SETUP_REPEATS:
        ready.close()
        del ready
        gc.collect()
        ready = set_up(workload, inputs, seed)
        setups.append(ready.seconds)
    return inputs, ready, setups, attempt + 1


# ---------------------------------------------------------------------- #
# Timed loops
# ---------------------------------------------------------------------- #
@dataclass
class Samples:
    """Raw samples of one timed phase.

    A *batch* is one ``run()`` call, one stream pass or one round of the
    windowed client; a *ticket* is one query of a stream pass or round, its
    latency running from the ``stream()``/``submit_many()`` call to the
    delivery of that query's answer.
    """

    #: Wall of one ``run()`` (closed batch) / one round (``live_serve``).
    batch_walls: List[float] = field(default_factory=list)
    #: Per stream pass / round: latency of its first and its median ticket.
    first_results: List[float] = field(default_factory=list)
    ticket_medians: List[float] = field(default_factory=list)
    #: Every ticket latency of the phase, pooled.
    ticket_latencies: List[float] = field(default_factory=list)
    #: ``live_serve``: start of one round to the start of the next.
    round_periods: List[float] = field(default_factory=list)
    paths_out: int = 0
    #: ``live_serve``: graph mutations issued by the client.
    mutations: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``SharingStats`` of the last successful ``run()`` (closed batch).
    sharing: object = None


def _fail(samples: Samples, what: str) -> None:
    samples.failed += 1
    print(f"FAILED {what}", file=sys.stderr)


class BatchDriver:
    """Issues single timed operations against a closed-batch engine and
    checks each against the reference path counts.  ``gc.collect()`` runs
    before every operation, outside its timed region."""

    def __init__(self, queries: List[HCSTQuery], reference: Dict[int, int]) -> None:
        self.queries = queries
        self.reference = reference
        self.expected = [reference[position] for position in range(len(queries))]

    def run(self, engine: BatchQueryEngine, samples: Samples) -> None:
        """One ``engine.run(queries)``."""
        gc.collect()
        samples.attempted += 1
        try:
            start = time.perf_counter()
            result = engine.run(self.queries)
            wall = time.perf_counter() - start
        except Exception:  # an operation that raises is a failed one
            traceback.print_exc()
            return _fail(samples, "run() raised")
        if result.counts() != self.expected:
            return _fail(samples, "run(): path counts differ")
        samples.batch_walls.append(wall)
        samples.sharing = result.sharing
        samples.paths_out = result.total_paths()

    def stream(self, engine: BatchQueryEngine, samples: Samples) -> None:
        """One fully drained ``engine.stream(queries, ordered=False)``."""
        gc.collect()
        samples.attempted += 1
        arrivals: List[float] = []
        got: Dict[int, int] = {}
        try:
            start = time.perf_counter()
            for position, paths in engine.stream(self.queries, ordered=False):
                arrivals.append(time.perf_counter() - start)
                got[position] = len(paths)
        except Exception:
            traceback.print_exc()
            return _fail(samples, "stream() raised")
        if got != self.reference:
            return _fail(samples, "stream(): path counts differ")
        samples.first_results.append(arrivals[0])
        samples.ticket_medians.append(statistics.median(arrivals))
        samples.ticket_latencies.extend(arrivals)

    def cycle(self, engine: BatchQueryEngine, samples: Samples) -> None:
        """The untraced unit of work: two ``run()`` and one stream pass."""
        self.run(engine, samples)
        self.run(engine, samples)
        self.stream(engine, samples)


class ServeDriver:
    """One windowed client replaying ``inputs.queries`` against a service:
    ``submit_many(window)``, one churn mutation while the tickets are in
    flight, wait for all; then one spare edge is added and removed again.
    No mutation changes any answer."""

    def __init__(self, ready: Ready, inputs: Inputs, rng: random.Random) -> None:
        self.graph = ready.graph
        self.reference = ready.reference_counts
        self.inputs = inputs
        self.rng = rng
        self.churn = list(inputs.churn_vertices)
        self.churn_edge: Optional[Edge] = None
        self.rounds = 0

    def round(self, service, samples: Samples) -> None:
        queries, graph = self.inputs.queries, self.graph
        # The first window was the warm-up round of set-up.
        offset = SERVE_WINDOW * (self.rounds + 1)
        window = [
            queries[(offset + i) % len(queries)] for i in range(SERVE_WINDOW)
        ]
        start = time.perf_counter()
        tickets = service.submit_many(window)
        if self.churn_edge is None:
            self.churn_edge = tuple(self.rng.sample(self.churn, 2))
            graph.add_edge(*self.churn_edge)
        else:
            graph.remove_edge(*self.churn_edge)
            self.churn_edge = None
        latencies = []
        for ticket in tickets:
            samples.attempted += 1
            try:
                paths = ticket.result(timeout=TICKET_TIMEOUT_S)
            except Exception:  # failed batch or timeout: a failed ticket
                traceback.print_exc()
                _fail(samples, f"ticket {ticket.query}")
                continue
            if len(paths) != self.reference[ticket.query]:
                _fail(samples, f"ticket {ticket.query}: path count differs")
                continue
            latencies.append(ticket.latency_s)
            samples.paths_out += len(paths)
        end = time.perf_counter()
        spare = self.inputs.spare_edges[self.rounds % len(self.inputs.spare_edges)]
        graph.add_edge(*spare)
        graph.remove_edge(*spare)
        samples.mutations += 3
        self.rounds += 1
        if len(latencies) == len(tickets):
            samples.batch_walls.append(end - start)
            samples.first_results.append(min(latencies))
            samples.ticket_medians.append(statistics.median(latencies))
            samples.round_periods.append(time.perf_counter() - start)
        samples.ticket_latencies.extend(latencies)


def repeat_for(seconds: float, at_least: int, step: Callable[[], None]) -> float:
    """Call ``step`` until ``seconds`` have passed, ``at_least`` times;
    returns the wall of the whole phase."""
    begin = time.perf_counter()
    steps = 0
    while steps < at_least or time.perf_counter() - begin < seconds:
        step()
        steps += 1
    return time.perf_counter() - begin


# ---------------------------------------------------------------------- #
# Verification (untimed, outside setup_s)
# ---------------------------------------------------------------------- #
def verify_paper_example() -> None:
    """Every algorithm family agrees with brute force on the Fig. 1 batch."""
    graph = paper_example_graph()
    queries = [HCSTQuery(s, t, k) for s, t, k in PAPER_EXAMPLE_QUERIES]
    result = BatchQueryEngine(graph, num_workers=1).run(queries)
    for position, query in enumerate(queries):
        expected = set(enumerate_paths_brute_force(graph, query.s, query.t, query.k))
        if set(result.paths_by_position[position]) != expected:
            raise AssertionError(f"Fig. 1 {query}: engine disagrees with brute force")


def verify_against_oracle(inputs: Inputs, ready: Ready) -> None:
    """The sampled reference path sets equal an independent per-query
    ``pathenum`` run on a fresh copy of the graph."""
    graph = DiGraph.from_edges(inputs.edges, num_vertices=inputs.num_vertices)
    keys = list(ready.sample_paths)
    queries = [
        key if isinstance(key, HCSTQuery) else inputs.queries[key] for key in keys
    ]
    oracle = BatchQueryEngine(graph, "pathenum", num_workers=1).run(queries)
    for position, key in enumerate(keys):
        if frozenset(oracle.paths_by_position[position]) != ready.sample_paths[key]:
            raise AssertionError(f"{queries[position]}: reference differs from oracle")


def average_similarity(inputs: Inputs) -> float:
    """Achieved µ_Q of (at most the first 128 queries of) the batch."""
    graph = DiGraph.from_edges(inputs.edges, num_vertices=inputs.num_vertices)
    return QueryWorkload(graph, inputs.queries[:128]).average_similarity()


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the acceptance check
    computes them; a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def undisturbed(values: Sequence[float]) -> float:
    """The first quartile of per-operation times: the statistic behind every
    timed end-to-end metric.

    The 2-vCPU sandbox this benchmark was sized on alternates, in phases of
    seconds, between a fast regime and one 1.5x slower (the same pure-Python
    loop measures 0.070 s or 0.105 s), and the share of slow phases in a
    ten-second window ranges from none to all.  Interference only ever adds
    time, so the lower quartile tracks the cost of the code while the median
    tracks the neighbours: over ten seeds the median of ``deep_paths`` walls
    spread 12.8 %, their first quartile 4.4 %.  Medians are still printed.
    """
    return quartiles(values)[0]
