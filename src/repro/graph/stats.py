"""Graph statistics for the Table I columns (|V|, |E|, davg, dmax)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a directed graph.

    ``davg`` is the average total degree ``2|E| / |V|`` and ``dmax`` the
    maximum total degree, matching how Table I of the paper reports them.
    """

    num_vertices: int
    num_edges: int
    average_degree: float
    max_degree: int


def compute_stats(graph: DiGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    if graph.num_vertices == 0:
        return GraphStats(0, 0, 0.0, 0)
    max_degree = max(graph.degree(v) for v in graph.vertices())
    average_degree = 2.0 * graph.num_edges / graph.num_vertices
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=average_degree,
        max_degree=max_degree,
    )
