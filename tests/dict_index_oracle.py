"""Reference for the distance-index tests: the sparse ``multi_source_bfs``
dicts themselves, answered the slow obvious way (a comprehension per
question).  Same reader names as ``CSRDistanceIndex`` so a test can put one
question to both; an unindexed endpoint is a plain ``KeyError``."""

from __future__ import annotations

import math
from functools import partialmethod

from repro.bfs.multi_source import multi_source_bfs


class DictIndexOracle:
    def __init__(self, graph, sources, targets, max_hops):
        self.max_hops = max_hops
        self.from_source = multi_source_bfs(
            graph, sorted(set(sources)), max_hops=max_hops, forward=True
        )
        self.to_target = multi_source_bfs(
            graph, sorted(set(targets)), max_hops=max_hops, forward=False
        )

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

    dist_from = partialmethod(_dist, True)
    dist_to = partialmethod(_dist, False)
    forward_neighborhood = partialmethod(_neighborhood, True)
    backward_neighborhood = partialmethod(_neighborhood, False)
    forward_level_sizes = partialmethod(_level_sizes, True)
    backward_level_sizes = partialmethod(_level_sizes, False)
    forward_mask = partialmethod(_mask, True)
    backward_mask = partialmethod(_mask, False)

    @property
    def size_in_entries(self):
        rows = [*self.from_source.values(), *self.to_target.values()]
        return sum(map(len, rows))
