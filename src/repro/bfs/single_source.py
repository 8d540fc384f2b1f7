"""Single source hop-bounded BFS.

Both the PathEnum index (Section III) and the hop-constrained neighbour
sets Γ(q) / Γr(q) (Definition 4.4) are hop-bounded BFS frontiers; this
module provides the plain single-source primitive that the tests compare
the index's own traversal (``multi_source.py``) against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.graph.digraph import DiGraph
from repro.utils.validation import require_non_negative, require_vertex


def bfs_distances(
    graph: DiGraph,
    source: int,
    max_hops: int | None = None,
    forward: bool = True,
) -> Dict[int, int]:
    """Hop distances from ``source`` to every vertex within ``max_hops``.

    Parameters
    ----------
    graph:
        The directed graph.
    source:
        Start vertex.
    max_hops:
        Stop expanding beyond this many hops (``None`` = unbounded).
    forward:
        If True traverse out-edges of ``G``; if False traverse in-edges,
        i.e. run the BFS on the reverse graph ``Gr`` without materialising
        it.

    Returns
    -------
    dict mapping reached vertex -> hop distance (``source`` maps to 0).
    Unreached vertices are absent, which callers treat as distance ∞.
    """
    require_vertex(source, graph.num_vertices, "source")
    if max_hops is not None:
        require_non_negative(max_hops, "max_hops")
    neighbors = graph.out_neighbors if forward else graph.in_neighbors
    distances: Dict[int, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        depth = distances[u]
        if max_hops is not None and depth >= max_hops:
            continue
        for v in neighbors(u):
            if v not in distances:
                distances[v] = depth + 1
                queue.append(v)
    return distances


def bfs_levels(
    graph: DiGraph,
    source: int,
    max_hops: int | None = None,
    forward: bool = True,
) -> List[List[int]]:
    """Vertices grouped by hop distance from ``source``.

    ``result[d]`` is the sorted list of vertices at exactly ``d`` hops.
    Used by the search-order optimiser to estimate per-level frontier sizes.
    """
    distances = bfs_distances(graph, source, max_hops=max_hops, forward=forward)
    if not distances:
        return []
    depth = max(distances.values())
    levels: List[List[int]] = [[] for _ in range(depth + 1)]
    for vertex, d in distances.items():
        levels[d].append(vertex)
    for level in levels:
        level.sort()
    return levels
