"""Truncated level-synchronous BFS, one traversal per source.

The batch index of Algorithm 1 / Algorithm 4 needs hop distances from every
query source on ``G`` and every query target on ``Gr``.  The paper builds
it with a bit-parallel multi-source BFS (Then et al., "The More the
Merrier", VLDB'14): one machine word per vertex holds the sources that have
reached it, so one ``|``/``&`` advances all of them.  On a CPython substrate
that does not pay.  A vertex's "word" is a heap-allocated int behind a dict,
and every *(source, vertex)* result must still be written out by one dict
or array store of its own, so the shared expansion saves nothing and the
bit-peeling that recovers the sources from a word is pure overhead.

What this module is instead: :func:`truncated_bfs_levels`, the one BFS
kernel behind :func:`repro.bfs.distance_index.build_index`, which expands a
whole frontier with one C-level ``set().union`` over its sealed adjacency
rows and hands each level over sorted.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


def truncated_bfs_levels(
    adjacency: Sequence[Sequence[int]], source: int, max_hops: int | None
) -> Iterator[List[int]]:
    """Yield the BFS levels of ``source`` over ``adjacency``: the ``d``-th
    list holds, ascending, the vertices at exact distance ``d``, up to
    ``max_hops`` (``None`` = unbounded) or the last non-empty level.

    ``source`` must be a valid row of ``adjacency``; every other vertex
    comes out of a row, so the loop runs without a per-vertex check.
    """
    neighbors = adjacency.__getitem__
    seen: set[int] = set()
    frontier = [source]
    depth = 0
    while frontier:
        yield frontier
        if depth == max_hops:
            return
        depth += 1
        seen.update(frontier)
        reached = set().union(*map(neighbors, frontier))
        reached -= seen
        frontier = sorted(reached)
