"""Bitset multi-source BFS (Then et al., "The More the Merrier", VLDB'14).

The batch index of Algorithm 1 / Algorithm 4 needs hop distances from every
query source on ``G`` and every query target on ``Gr``.  Running one BFS
per source repeats the same frontier expansion work; the multi-source BFS
runs all of them simultaneously by keeping, per vertex, a bitset of the
sources that have already reached it ("seen") and a bitset of the sources
reaching it in the current round ("frontier").  Python integers act as
arbitrarily wide bitsets, so a single ``|``/``&``/``~`` per vertex advances
all sources at once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.graph.digraph import DiGraph
from repro.utils.validation import require_non_negative, require_vertex


def multi_source_bfs(
    graph: DiGraph,
    sources: Sequence[int],
    max_hops: int | None = None,
    forward: bool = True,
) -> Dict[int, Dict[int, int]]:
    """Hop distances from each source in ``sources``.

    Returns ``{source: {vertex: distance}}`` with the same convention as
    :func:`repro.bfs.single_source.bfs_distances` (missing = ∞).  Duplicate
    sources are computed once and share the same result dictionary object.
    """
    if max_hops is not None:
        require_non_negative(max_hops, "max_hops")
    unique_sources: List[int] = []
    seen_sources: set[int] = set()
    for source in sources:
        require_vertex(source, graph.num_vertices, "source")
        if source not in seen_sources:
            seen_sources.add(source)
            unique_sources.append(source)
    if not unique_sources:
        return {}

    # Sources are validated above and every other vertex comes out of a
    # row, so the loop reads the sealed rows without a per-vertex check.
    neighbors = graph.csr_snapshot().adjacency_lists(forward).__getitem__
    source_bit = {source: 1 << i for i, source in enumerate(unique_sources)}
    results: Dict[int, Dict[int, int]] = {
        source: {source: 0} for source in unique_sources
    }

    # seen[v] / frontier[v]: bitsets over source indices.
    seen: Dict[int, int] = {}
    frontier: Dict[int, int] = {}
    for source in unique_sources:
        bit = source_bit[source]
        seen[source] = seen.get(source, 0) | bit
        frontier[source] = frontier.get(source, 0) | bit

    depth = 0
    while frontier:
        depth += 1
        if max_hops is not None and depth > max_hops:
            break
        next_frontier: Dict[int, int] = {}
        for u, bits in frontier.items():
            for v in neighbors(u):
                new_bits = bits & ~seen.get(v, 0)
                if new_bits:
                    seen[v] = seen.get(v, 0) | new_bits
                    next_frontier[v] = next_frontier.get(v, 0) | new_bits
        for v, bits in next_frontier.items():
            remaining = bits
            while remaining:
                lowest = remaining & -remaining
                results[unique_sources[lowest.bit_length() - 1]][v] = depth
                remaining ^= lowest
        frontier = next_frontier

    return results
