"""Reference for the distance-index tests: one sparse ``bfs_distances`` dict
per endpoint (the deque BFS of ``single_source.py``, which shares no code
with the traversal ``build_index`` runs), answered the slow obvious way (a
comprehension per question).  Same reader names as ``CSRDistanceIndex`` so
a test can put one question to both; an unindexed endpoint is a plain
``KeyError``."""

from __future__ import annotations

import math
from array import array
from functools import partialmethod

from repro.bfs.single_source import bfs_distances


class DictIndexOracle:
    def __init__(self, graph, sources, targets, max_hops):
        self.num_vertices = graph.num_vertices
        self.max_hops = max_hops
        self.from_source = {
            source: bfs_distances(graph, source, max_hops=max_hops, forward=True)
            for source in sorted(set(sources))
        }
        self.to_target = {
            target: bfs_distances(graph, target, max_hops=max_hops, forward=False)
            for target in sorted(set(targets))
        }

    def _row(self, forward, endpoint):
        return (self.from_source if forward else self.to_target)[endpoint]

    def _dist(self, forward, endpoint, vertex):
        return self._row(forward, endpoint).get(vertex, math.inf)

    def _neighborhood(self, forward, endpoint, hops):
        row = self._row(forward, endpoint)
        return frozenset(v for v, distance in row.items() if distance <= hops)

    def _level_sizes(self, forward, endpoint, hops):
        distances = list(self._row(forward, endpoint).values())
        return [distances.count(level) for level in range(hops + 1)]

    def _mask(self, forward, endpoint, hops):
        members = self._neighborhood(forward, endpoint, hops)
        return sum(1 << v for v in members), len(members)

    def _dense(self, forward, endpoint):
        """The row as ``build_index`` lays it out: one byte per vertex,
        ``0xFF`` where the BFS never arrived, for a ``max_hops`` up to 254;
        one signed long per vertex, ``2**31 - 1`` for a hole, beyond it."""
        row = self._row(forward, endpoint)
        if self.max_hops <= 254:
            return bytearray(row.get(v, 0xFF) for v in range(self.num_vertices))
        return array("l", [row.get(v, 2**31 - 1) for v in range(self.num_vertices)])

    def _levels(self, forward, endpoint):
        row = self._row(forward, endpoint)
        return tuple(
            array("l", sorted(v for v in row if row[v] == distance))
            for distance in range(max(row.values()) + 1)
        )

    dist_from = partialmethod(_dist, True)
    dist_to = partialmethod(_dist, False)
    forward_neighborhood = partialmethod(_neighborhood, True)
    backward_neighborhood = partialmethod(_neighborhood, False)
    forward_level_sizes = partialmethod(_level_sizes, True)
    backward_level_sizes = partialmethod(_level_sizes, False)
    forward_mask = partialmethod(_mask, True)
    backward_mask = partialmethod(_mask, False)
    dense_from = partialmethod(_dense, True)
    dense_to = partialmethod(_dense, False)
    forward_levels = partialmethod(_levels, True)
    backward_levels = partialmethod(_levels, False)

    @property
    def size_in_entries(self):
        rows = [*self.from_source.values(), *self.to_target.values()]
        return sum(map(len, rows))
