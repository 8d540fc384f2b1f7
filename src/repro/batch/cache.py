"""Result cache ``R`` for materialised HC-s path queries (Algorithm 4).

``BatchEnum`` materialises the results of each HC-s path query node once
and reuses them from this cache.  A node's results are only needed until
every consumer (out-neighbour in the query sharing graph Ψ) has been
processed, so the cache ref-counts consumers and evicts a node's paths as
soon as the last consumer is done — this is the eviction of Algorithm 4
lines 14-16 and keeps the memory footprint bounded by the "active frontier"
of Ψ rather than its full size.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.enumeration.paths import Path


class ResultCache:
    """Ref-counted cache of HC-s path query results.

    Readers receive an immutable ``tuple`` of paths: a spliced provider
    result is read by every later consumer, so handing out the internal
    list would let one consumer silently corrupt all the others.
    """

    def __init__(self) -> None:
        self._paths: Dict[Hashable, Tuple[Path, ...]] = {}
        self._remaining_consumers: Dict[Hashable, int] = {}
        self.peak_entries = 0
        self.reuse_count = 0
        self.evicted_count = 0

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def put(self, node: Hashable, paths: Sequence[Path], consumers: int) -> None:
        """Store ``paths`` for ``node`` which will be read by ``consumers``
        later nodes.  A node with zero consumers is not stored at all."""
        if node in self._paths:
            raise ValueError(f"node {node!r} is already cached")
        if consumers <= 0:
            return
        self._paths[node] = tuple(paths)
        self._remaining_consumers[node] = consumers
        self.peak_entries = max(self.peak_entries, len(self._paths))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __contains__(self, node: Hashable) -> bool:
        return node in self._paths

    def get(self, node: Hashable) -> Tuple[Path, ...]:
        """Return the cached paths of ``node`` as an immutable tuple
        (raises ``KeyError`` if the node was never cached or has already
        been evicted)."""
        if node not in self._paths:
            raise KeyError(f"node {node!r} is not in the result cache")
        self.reuse_count += 1
        return self._paths[node]

    def peek(self, node: Hashable) -> Optional[Tuple[Path, ...]]:
        """Like :meth:`get` but returns ``None`` instead of raising and does
        not count as a reuse."""
        return self._paths.get(node)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def release(self, node: Hashable) -> None:
        """Signal that one consumer of ``node`` has finished.

        When the last consumer releases the node its paths are dropped.
        Releasing a node that is not cached is a no-op (it may have had no
        consumers in the first place).
        """
        if node not in self._remaining_consumers:
            return
        self._remaining_consumers[node] -= 1
        if self._remaining_consumers[node] <= 0:
            del self._remaining_consumers[node]
            del self._paths[node]
            self.evicted_count += 1

    @property
    def live_entries(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(live={self.live_entries}, peak={self.peak_entries}, "
            f"reused={self.reuse_count}, evicted={self.evicted_count})"
        )
