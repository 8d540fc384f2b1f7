"""Graph sampling used by the scalability experiment (Exp-5 / Fig. 11).

The paper samples 20 %–100 % of the vertices of the two largest datasets
and measures how processing time grows.  ``sample_vertices`` keeps a
uniform random vertex subset and relabels the induced subgraph densely.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.graph.digraph import DiGraph
from repro.utils.validation import require


def sample_vertices(graph: DiGraph, fraction: float, seed: int = 0) -> DiGraph:
    """Return the subgraph induced by a uniform random ``fraction`` of the
    vertices, relabelled to dense ids.
    """
    require(0.0 < fraction <= 1.0, "fraction must be in (0, 1]")
    if fraction == 1.0:
        return graph.copy()
    rng = random.Random(seed)
    keep_count = max(1, int(round(graph.num_vertices * fraction)))
    kept = sorted(rng.sample(range(graph.num_vertices), keep_count))
    return vertex_induced_subgraph(graph, kept)


def vertex_induced_subgraph(graph: DiGraph, vertices: Sequence[int]) -> DiGraph:
    """Subgraph induced by ``vertices``, relabelled to ``0..len(vertices)-1``
    in the given order."""
    mapping = {v: i for i, v in enumerate(vertices)}
    edges: List[tuple[int, int]] = []
    for u in vertices:
        for v in graph.out_neighbors(u):
            if v in mapping:
                edges.append((mapping[u], mapping[v]))
    return DiGraph.from_edges(edges, num_vertices=len(vertices))
