"""Result containers and streaming-fragment scaffolding for batch runs.

Every batch runner in this package is written as a *fragment generator*: a
generator that yields ``{batch position: [paths]}`` dictionaries as units of
work (clusters, shards or single queries) complete, and whose generator
return value is the fully populated :class:`BatchResult`.  The blocking
``run`` entry points simply :func:`drain` such a generator, while the
streaming front-end (:meth:`repro.batch.engine.BatchQueryEngine.stream`)
forwards the fragments through a reorder buffer as they arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.enumeration.paths import Path, sort_paths
from repro.queries.query import HCSTQuery
from repro.utils.timer import StageTimer

#: One unit of streamed output: result paths keyed by batch position.
PathFragment = Dict[int, List[Path]]

#: A fragment generator: yields :data:`PathFragment` units as they complete
#: and returns the finished :class:`BatchResult` when exhausted.
FragmentStream = Generator[PathFragment, None, "BatchResult"]

#: The consumer-facing stream shape: ``(batch_position, paths)`` tuples,
#: returning the finished :class:`BatchResult` when exhausted (what the
#: flushing core turns a :data:`FragmentStream` into).
ResultStream = Generator[Tuple[int, List[Path]], None, "BatchResult"]


def drain(fragments: FragmentStream) -> "BatchResult":
    """Run a fragment generator to exhaustion and return its result.

    This is what turns any streaming runner back into a blocking ``run``
    call: the yielded fragments are discarded (they were already recorded
    into the underlying :class:`BatchResult`) and the generator's return
    value is handed back.
    """
    while True:
        try:
            next(fragments)
        except StopIteration as stop:
            return stop.value


def per_query_fragments(
    queries: Sequence[HCSTQuery],
    enumerate_one: Callable[[HCSTQuery], Sequence[Path]],
    algorithm: str,
) -> FragmentStream:
    """Fragment generator for algorithms with no cross-query state.

    ``pathenum`` and the :mod:`repro.baselines` runners share this shape:
    every query is enumerated independently inside one ``Enumeration``
    stage and each completed query is immediately flushable, so the whole
    runner is a loop that records and yields one single-position fragment
    per query.
    """
    stage_timer = StageTimer()
    result = BatchResult(
        queries=list(queries),
        stage_timer=stage_timer,
        sharing=SharingStats(num_clusters=len(queries)),
        algorithm=algorithm,
    )
    with stage_timer.stage("Enumeration"):
        for position, query in enumerate(queries):
            result.record(position, enumerate_one(query))
            yield {position: result.paths_by_position[position]}
    return result


@dataclass
class SharingStats:
    """Statistics about how much computation the batch run shared.

    Attributes
    ----------
    num_clusters:
        Number of query groups produced by ``ClusterQuery``.
    num_shared_nodes:
        Number of *common* HC-s path query nodes detected (nodes with more
        than one consumer).
    num_hc_s_nodes:
        Total HC-s path query nodes enumerated (shared or not).
    cache_peak_entries:
        Maximum number of HC-s path result sets resident at once.
    cache_reuse_count:
        Number of times a cached HC-s path result was spliced into another
        enumeration instead of being recomputed.
    """

    num_clusters: int = 0
    num_shared_nodes: int = 0
    num_hc_s_nodes: int = 0
    cache_peak_entries: int = 0
    cache_reuse_count: int = 0

    def merge(self, other: "SharingStats") -> None:
        """Fold the stats of another shard into this one.

        Counters add up; ``cache_peak_entries`` takes the maximum, matching
        the single-process semantics where the peak is tracked per cluster
        (each cluster owns a fresh cache).  ``num_clusters`` is summed, so
        callers merging per-cluster fragments should leave the fragments'
        ``num_clusters`` at their natural value of one cluster each.
        """
        self.num_clusters += other.num_clusters
        self.num_shared_nodes += other.num_shared_nodes
        self.num_hc_s_nodes += other.num_hc_s_nodes
        self.cache_peak_entries = max(
            self.cache_peak_entries, other.cache_peak_entries
        )
        self.cache_reuse_count += other.cache_reuse_count


@dataclass
class BatchResult:
    """Results of processing a batch of HC-s-t path queries.

    Paths are stored per query *position* in the submitted batch so that
    duplicate queries each receive their own (identical) answer, exactly as
    a query-processing system would return them.
    """

    queries: List[HCSTQuery]
    paths_by_position: Dict[int, List[Path]] = field(default_factory=dict)
    stage_timer: StageTimer = field(default_factory=StageTimer)
    sharing: SharingStats = field(default_factory=SharingStats)
    algorithm: str = ""
    _positions_by_query: Optional[Dict[HCSTQuery, Tuple[int, ...]]] = field(
        default=None, repr=False, compare=False
    )

    def record(self, position: int, paths: Sequence[Path]) -> None:
        """Store the result paths of the query at ``position``."""
        self.paths_by_position[position] = list(paths)

    def paths_at(self, position: int) -> List[Path]:
        """Paths of the query at batch position ``position``."""
        return list(self.paths_by_position.get(position, []))

    def positions_of(self, query: HCSTQuery) -> Tuple[int, ...]:
        """Every batch position holding ``query``, ascending.

        The query → positions map is built lazily on first lookup and
        reused (``queries`` is fixed after construction), so repeated
        ``paths``/``positions_of`` calls cost one dict probe instead of an
        O(|Q|) scan per call.  Duplicate submissions each keep their own
        position — and therefore their own per-position answer.
        """
        if self._positions_by_query is None:
            grouped: Dict[HCSTQuery, List[int]] = {}
            for position, candidate in enumerate(self.queries):
                grouped.setdefault(candidate, []).append(position)
            self._positions_by_query = {
                candidate: tuple(positions)
                for candidate, positions in grouped.items()
            }
        positions = self._positions_by_query.get(query)
        if positions is None:
            raise KeyError(f"{query} is not part of this batch")
        return positions

    def paths(self, query: HCSTQuery) -> List[Path]:
        """Paths of the first batch entry equal to ``query``."""
        return self.paths_at(self.positions_of(query)[0])

    def counts(self) -> List[int]:
        """Number of result paths per query position."""
        empty: List[Path] = []
        return [
            len(self.paths_by_position.get(position, empty))
            for position in range(len(self.queries))
        ]

    def total_paths(self) -> int:
        return sum(self.counts())

    def sorted_paths_at(self, position: int) -> List[Path]:
        """Canonically ordered paths (for comparisons in tests)."""
        return sort_paths(self.paths_at(position))

    @property
    def total_time(self) -> float:
        return self.stage_timer.overall

    def stage_seconds(self, stage: str) -> float:
        return self.stage_timer.total(stage)

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.algorithm or 'batch'}: {len(self.queries)} queries, "
            f"{self.total_paths()} paths, {self.total_time:.4f}s "
            f"({self.sharing.num_shared_nodes} shared HC-s path queries, "
            f"{self.sharing.num_clusters} clusters)"
        )
