"""Deterministic synthetic graph generators.

The paper evaluates on twelve real-world graphs that are not redistributable
with this repository (and are far beyond what pure Python enumeration can
process).  The experiment suite therefore substitutes deterministic
synthetic graphs with comparable *structural character* — heavy-tailed
degree distributions for the social networks, denser near-uniform graphs
for the web/recommendation graphs — generated by the functions in this
module.  Every generator takes an explicit ``seed`` so experiments are
reproducible run to run.

``paper_example_graph`` rebuilds the 16-vertex running example of Figure 1,
which the unit tests use to check the worked examples of Sections III-IV
(three HC-s-t paths for q0, the clustering of Fig. 4, the detection of
Fig. 6).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.graph.digraph import DiGraph
from repro.utils.validation import require, require_non_negative, require_positive

Edge = Tuple[int, int]

#: Edge list of the running example in Fig. 1.  The edge set is reverse
#: engineered from the worked examples: it yields exactly the HC-s-t paths
#: listed for q0/q1 (Example 2.1, Fig. 3b), the distance index of Fig. 2(b),
#: the Γ sets of Example 4.1 and the detection trace of Fig. 6(a).
PAPER_EXAMPLE_EDGES: List[Edge] = [
    (0, 1), (0, 4),
    (1, 7), (1, 8),
    (2, 1), (2, 4),
    (3, 6),
    (4, 9),
    (5, 1),
    (6, 11), (6, 13), (6, 14),
    (7, 10), (7, 8),
    (9, 3), (9, 8), (9, 15),
    (10, 12),
    (12, 11), (12, 13),
    (15, 6),
]

#: The query batch Q of Fig. 1 as (s, t, k) triples.
PAPER_EXAMPLE_QUERIES: List[Tuple[int, int, int]] = [
    (0, 11, 5),   # q0
    (2, 13, 5),   # q1
    (5, 12, 5),   # q2
    (4, 14, 4),   # q3
    (9, 14, 3),   # q4
]


def paper_example_graph() -> DiGraph:
    """Return the 16-vertex graph of Fig. 1 of the paper."""
    return DiGraph.from_edges(PAPER_EXAMPLE_EDGES, num_vertices=16)


def random_directed_gnm(
    num_vertices: int, num_edges: int, seed: int = 0
) -> DiGraph:
    """Uniform random directed graph with ``num_vertices`` vertices and
    exactly ``num_edges`` distinct edges (no self loops).

    This is the directed analogue of the Erdős–Rényi ``G(n, m)`` model and
    is used for the near-uniform-degree datasets of the suite.
    """
    require_positive(num_vertices, "num_vertices")
    require_non_negative(num_edges, "num_edges")
    max_edges = num_vertices * (num_vertices - 1)
    require(
        num_edges <= max_edges,
        f"num_edges={num_edges} exceeds the maximum {max_edges} for "
        f"{num_vertices} vertices",
    )
    rng = random.Random(seed)
    edges: set[Edge] = set()
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            edges.add((u, v))
    return DiGraph.from_edges(edges, num_vertices=num_vertices)


def powerlaw_directed(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int = 0,
    reciprocal_probability: float = 0.3,
) -> DiGraph:
    """Directed preferential-attachment graph with a heavy-tailed in-degree
    distribution.

    Each new vertex attaches ``edges_per_vertex`` out-edges whose targets
    are chosen proportionally to current total degree (plus one), which is
    the standard Barabási–Albert recipe; with probability
    ``reciprocal_probability`` the reverse edge is added too, mimicking the
    partially reciprocal structure of social networks such as Epinions,
    Slashdot, Pokec and LiveJournal.
    """
    require_positive(num_vertices, "num_vertices")
    require_positive(edges_per_vertex, "edges_per_vertex")
    require(
        0.0 <= reciprocal_probability <= 1.0,
        "reciprocal_probability must be within [0, 1]",
    )
    rng = random.Random(seed)
    edges: set[Edge] = set()
    # Repeated-vertex list implements degree-proportional sampling in O(1).
    attachment_pool: List[int] = [0]
    start = min(edges_per_vertex + 1, num_vertices)
    for seed_vertex in range(1, start):
        edges.add((seed_vertex, seed_vertex - 1))
        attachment_pool.extend([seed_vertex, seed_vertex - 1])
    for new_vertex in range(start, num_vertices):
        targets: set[int] = set()
        attempts = 0
        while len(targets) < edges_per_vertex and attempts < 20 * edges_per_vertex:
            candidate = rng.choice(attachment_pool)
            attempts += 1
            if candidate != new_vertex:
                targets.add(candidate)
        for target in targets:
            edges.add((new_vertex, target))
            attachment_pool.extend([new_vertex, target])
            if rng.random() < reciprocal_probability:
                edges.add((target, new_vertex))
    return DiGraph.from_edges(edges, num_vertices=num_vertices)


def small_world_directed(
    num_vertices: int,
    neighbors: int,
    rewire_probability: float = 0.1,
    seed: int = 0,
) -> DiGraph:
    """Watts–Strogatz style directed ring with random rewiring.

    Produces graphs with high local clustering and short diameters, similar
    in character to web graphs (BerkStan, Web-uk) where many HC-s-t paths
    stay inside tightly knit neighbourhoods.
    """
    require_positive(num_vertices, "num_vertices")
    require_positive(neighbors, "neighbors")
    require(
        0.0 <= rewire_probability <= 1.0,
        "rewire_probability must be within [0, 1]",
    )
    rng = random.Random(seed)
    edges: set[Edge] = set()
    for u in range(num_vertices):
        for offset in range(1, neighbors + 1):
            v = (u + offset) % num_vertices
            if v == u:
                continue
            if rng.random() < rewire_probability:
                v = rng.randrange(num_vertices)
                while v == u:
                    v = rng.randrange(num_vertices)
            edges.add((u, v))
    return DiGraph.from_edges(edges, num_vertices=num_vertices)


def layered_dag(
    num_layers: int,
    layer_width: int,
    edges_per_vertex: int,
    seed: int = 0,
) -> DiGraph:
    """Layered DAG: vertices arranged in ``num_layers`` layers of
    ``layer_width`` vertices, edges only go from layer ``i`` to ``i+1``.

    Useful in tests because every s-t path length equals the layer gap, so
    expected path counts can be computed analytically.
    """
    require_positive(num_layers, "num_layers")
    require_positive(layer_width, "layer_width")
    require_positive(edges_per_vertex, "edges_per_vertex")
    rng = random.Random(seed)
    edges: set[Edge] = set()
    num_vertices = num_layers * layer_width

    def layer_vertices(layer: int) -> range:
        return range(layer * layer_width, (layer + 1) * layer_width)

    for layer in range(num_layers - 1):
        next_layer = list(layer_vertices(layer + 1))
        for u in layer_vertices(layer):
            fanout = min(edges_per_vertex, layer_width)
            for v in rng.sample(next_layer, fanout):
                edges.add((u, v))
    return DiGraph.from_edges(edges, num_vertices=num_vertices)


def random_queries_reachable(
    graph: DiGraph,
    count: int,
    min_k: int = 4,
    max_k: int = 7,
    seed: int = 0,
) -> List[Tuple[int, int, int]]:
    """Generate ``count`` random (s, t, k) triples such that ``t`` is
    reachable from ``s`` within ``k`` hops (the paper's query generation
    protocol, Section V "Settings").

    This low-level helper is re-exported in :mod:`repro.queries.generation`
    with a richer interface; it lives here so graph-level tests can use it
    without importing the query machinery.
    """
    require_positive(count, "count")
    require(min_k <= max_k, "min_k must not exceed max_k")
    rng = random.Random(seed)
    queries: List[Tuple[int, int, int]] = []
    attempts = 0
    max_attempts = 200 * count
    while len(queries) < count and attempts < max_attempts:
        attempts += 1
        s = rng.randrange(graph.num_vertices)
        k = rng.randint(min_k, max_k)
        reachable = _bounded_reachable(graph, s, k)
        reachable.discard(s)
        if not reachable:
            continue
        t = rng.choice(sorted(reachable))
        queries.append((s, t, k))
    require(
        len(queries) == count,
        "could not generate enough reachable queries; the graph may be too sparse",
    )
    return queries


def _bounded_reachable(graph: DiGraph, source: int, hops: int) -> set[int]:
    """Vertices reachable from ``source`` within ``hops`` hops (includes source)."""
    visited = {source}
    frontier = [source]
    for _ in range(hops):
        next_frontier: List[int] = []
        for u in frontier:
            for v in graph.out_neighbors(u):
                if v not in visited:
                    visited.add(v)
                    next_frontier.append(v)
        if not next_frontier:
            break
        frontier = next_frontier
    return visited


def degree_histogram(graph: DiGraph) -> Dict[int, int]:
    """Return ``{out-degree: vertex count}`` (used by generator tests)."""
    histogram: Dict[int, int] = {}
    for v in graph.vertices():
        degree = graph.out_degree(v)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
