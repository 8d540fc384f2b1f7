"""The PathEnum-style distance index for a batch of queries.

For a batch ``Q`` the index stores, for every query source ``s``, the hop
distance ``dist_G(s, v)`` of every vertex reachable within the relevant hop
budget, and for every query target ``t`` the distance ``dist_G(v, t)``
(computed as a BFS from ``t`` on the reverse graph ``Gr``).  Lemma 3.1 of
the paper justifies pruning any vertex ``v`` from an enumeration whenever
``dist(s, v)`` or ``dist(v, t)`` exceeds the remaining hop budget.

The index is exactly the structure built in lines 1-2 of Algorithm 1 and
Algorithm 4, here with one truncated BFS per endpoint.

The structure is :class:`CSRDistanceIndex`: one flat dense row per indexed
endpoint, keyed by CSR vertex id, with a hole value for vertices the BFS
never reached, and beside it the row's *BFS levels* — the reached vertices
grouped by exact distance.  :func:`row_width` picks the row layout from the
batch's ``max_hops``: a ``bytearray`` with :data:`NARROW_UNREACHABLE`
(0xFF) as its hole whenever every distance fits a byte (``max_hops <=``
:data:`NARROW_MAX_HOPS`), else an ``array('l')`` with :data:`UNREACHABLE`.
Rows support O(1) direct indexing in the enumeration hot loops; a µ mask
is one C-level ``translate`` of a one-byte row; the levels answer
everything else (level sizes, neighbourhoods, entry counts) at a cost that
follows the k-hop neighbourhood, not ``|V|``.  The parallel executor hands
its workers the whole index, levels included, through the pool
initializer (inherited under ``fork``, pickled once per worker otherwise),
so no worker re-runs BFS or re-derives a level.  The rows serialise to a
compact ``bytes`` blob (:meth:`CSRDistanceIndex.to_bytes`), the
byte-identity check of a delta repair against a fresh build.
Lookups with a vertex id outside the snapshot's range raise (mirroring the
CSR packing assert) rather than silently reporting "unreachable".
"""

from __future__ import annotations

import math
import struct
from array import array
from heapq import heappop, heappush
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Set,
    Tuple,
    Union,
)

from repro.bfs.multi_source import truncated_bfs_levels
from repro.graph.digraph import DiGraph
from repro.utils.validation import require, require_positive, require_vertex

INFINITY = math.inf

#: Typecode of the wide distance rows and of every endpoint id and level —
#: the same signed-long typecode the CSR adjacency arrays use, so one
#: platform-word convention covers the whole serialized blob.
TYPECODE = "l"

#: Hole of a wide row: "the BFS never reached this vertex".  A large finite
#: int (not -1) so the hot loops can compute ``used + 1 + row[v] > k``
#: without a branch: any arithmetic involving the sentinel is astronomically
#: larger than a hop budget.  Fits a 32-bit signed long, the narrowest
#: platform ``'l'``.
UNREACHABLE = 2**31 - 1

#: The largest ``max_hops`` whose rows take one byte per vertex.
NARROW_MAX_HOPS = 254

#: Hole of a narrow (one-byte) row.  A query it serves has ``k <= 254``, so
#: ``used + 1 + 255 > k`` prunes a hole without a branch here too.
NARROW_UNREACHABLE = 0xFF

#: A dense distance row: ``bytearray`` when narrow, ``array('l')`` when wide.
Row = Union[bytearray, array]

_WIDE = array(TYPECODE).itemsize

_HEADER = struct.Struct("<8sqqqqqq")
_MAGIC = b"CSRDIDX2"

#: ``_WITHIN[h]`` translates a narrow row into ASCII bits, ``b"1"`` for a
#: distance ``<= h`` and ``b"0"`` for a farther vertex or a hole.  ``h``
#: stops at :data:`NARROW_MAX_HOPS`, so the hole never translates to a 1.
_WITHIN = tuple(
    bytes(0x31 if distance <= hops else 0x30 for distance in range(256))
    for hops in range(NARROW_MAX_HOPS + 1)
)


def row_width(max_hops: int) -> int:
    """Bytes per vertex of every dense row of an index truncated at
    ``max_hops``: one up to :data:`NARROW_MAX_HOPS`, a platform ``'l'``
    beyond it.  The one place the row layout is chosen."""
    return 1 if max_hops <= NARROW_MAX_HOPS else _WIDE


def _hole(row: Row) -> int:
    """The value ``row`` holds where its BFS never arrived."""
    return NARROW_UNREACHABLE if isinstance(row, bytearray) else UNREACHABLE


#: The BFS levels of one row: ``levels[d]`` holds, in ascending order, the
#: vertices at exact distance ``d``; the tuple ends at the deepest level the
#: BFS filled.  Levels are shared between indexes and never mutated.
Levels = Tuple[array, ...]


def _scan_levels(row: Row) -> Levels:
    """Derive the levels of a dense row that arrived without them.

    The one Python-level pass under ``src/`` that walks a whole row outside
    the enumeration loops; it runs at most once per row (first use).
    """
    hole = _hole(row)
    buckets: List[array] = []
    for vertex, distance in enumerate(row):
        if distance != hole:
            while len(buckets) <= distance:
                buckets.append(array(TYPECODE))
            buckets[distance].append(vertex)
    return tuple(buckets)


def _level_sizes(levels: Levels, hops: int) -> List[int]:
    """``[|level 0|, ..., |level hops|]``, zero past the deepest level."""
    sizes = [len(level) for level in levels[: hops + 1]]
    sizes.extend([0] * (hops + 1 - len(sizes)))
    return sizes


def _levels_of(
    rows: Dict[int, Row], levels: Dict[int, Levels], endpoint: int
) -> Levels:
    """The levels of ``rows[endpoint]``, derived on first use when the row
    has none (a hand-built index, or a row
    :meth:`CSRDistanceIndex.apply_delta` changed)."""
    found = levels.get(endpoint)
    if found is None:
        found = levels[endpoint] = _scan_levels(rows[endpoint])
    return found


class CSRDistanceIndex:
    """Array-backed distance index keyed by CSR vertex ids.

    Each indexed endpoint owns a row in two halves:

    * the *dense distances* — one flat row of length ``num_vertices``
      holding hop distances, in the width :func:`row_width` picks from
      ``max_hops``: a ``bytearray`` with :data:`NARROW_UNREACHABLE` where
      the truncated BFS never arrived when ``max_hops <=``
      :data:`NARROW_MAX_HOPS`, else an ``array('l')`` with
      :data:`UNREACHABLE`.  The enumeration hot loops and the point lookups
      read it, through :meth:`dense_from`/:meth:`dense_to` and
      ``dist_from``/``dist_to``, by direct indexing; a µ mask reads a
      one-byte row whole, in one C-level ``bytearray.translate``;
    * the *BFS levels* — the reached vertices grouped by exact distance
      (:data:`Levels`).  Everything else that asks about the row as a
      whole — level sizes for the budget split and the plan estimates,
      neighbourhoods for clustering, entry counts for metrics, the µ masks
      of a wide row — reads the levels and costs O(reached), never a
      Python-level ``|V|``-long scan.

    :func:`build_index` records the levels as each BFS hands them over;
    :meth:`copy` shares them and a pickle carries them; :meth:`apply_delta`
    keeps them for every row it left unchanged.  A row without levels (a
    hand-built index, a row a delta changed) derives them once, on first
    use, with one pass over the row.
    """

    __slots__ = (
        "num_vertices",
        "max_hops",
        "_from_rows",
        "_to_rows",
        "_from_levels",
        "_to_levels",
    )

    def __init__(
        self,
        num_vertices: int,
        max_hops: int,
        from_rows: Dict[int, Row],
        to_rows: Dict[int, Row],
    ) -> None:
        self.num_vertices = num_vertices
        self.max_hops = max_hops
        self._from_rows = from_rows
        self._to_rows = to_rows
        self._from_levels: Dict[int, Levels] = {}
        self._to_levels: Dict[int, Levels] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def copy(self) -> "CSRDistanceIndex":
        """Deep copy of the dense rows (the levels are shared) — the
        starting point for :meth:`apply_delta` when the original must stay
        frozen."""
        clone = CSRDistanceIndex(
            self.num_vertices,
            self.max_hops,
            {s: row[:] for s, row in self._from_rows.items()},
            {t: row[:] for t, row in self._to_rows.items()},
        )
        clone._from_levels = dict(self._from_levels)
        clone._to_levels = dict(self._to_levels)
        return clone

    # ------------------------------------------------------------------ #
    # Incremental repair
    # ------------------------------------------------------------------ #
    def apply_delta(
        self,
        graph,
        edges_added: Iterable[Tuple[int, int]],
        edges_removed: Iterable[Tuple[int, int]],
    ) -> "CSRDistanceIndex":
        """Repair the index in place for a batch of edge mutations.

        ``graph`` is the **post-mutation** graph (a ``DiGraph`` or a sealed
        ``CSRGraph`` — anything with ``csr_snapshot()``); ``edges_added`` /
        ``edges_removed`` are the netted changes since the index was built
        (e.g. from :meth:`repro.graph.snapshots.SnapshotStore.delta`).

        Bounded-frontier re-relaxation (Ramalingam–Reps two-phase deletion
        repair plus insertion relaxation), truncated at ``max_hops`` exactly
        like :func:`build_index`'s BFS, so the repaired rows are
        **byte-identical** to a fresh rebuild against the new graph — a
        property the differential suite enforces.  Cost scales with the
        region whose distances actually changed, not with ``|V| + |E|``.
        A row the repair left unchanged keeps its levels; a changed row
        drops them and derives the new ones on first use.  Rows are
        repaired in place, so repair a :meth:`copy` when the original must
        stay frozen.

        Returns ``self`` for chaining.  Vertex-count changes cannot be
        expressed as an edge delta; rebuild instead.
        """
        require(
            graph.num_vertices == self.num_vertices,
            "apply_delta cannot span a vertex-count change "
            f"({self.num_vertices} -> {graph.num_vertices}); rebuild the index",
        )
        added = {(int(u), int(v)) for u, v in edges_added}
        removed = {(int(u), int(v)) for u, v in edges_removed}
        require(
            not (added & removed),
            "an edge appears in both edges_added and edges_removed; net the "
            "delta first",
        )
        if not added and not removed:
            return self
        csr = graph.csr_snapshot()
        fwd = csr.adjacency_lists(forward=True)
        bwd = csr.adjacency_lists(forward=False)
        for source, row in self._from_rows.items():
            if _repair_row(row, fwd, bwd, added, removed, self.max_hops):
                self._from_levels.pop(source, None)
        if self._to_rows:
            # Backward rows are BFS distances on Gr, where edge (u, v)
            # appears as (v, u) and successor/predecessor roles swap.
            swapped_added = {(v, u) for (u, v) in added}
            swapped_removed = {(v, u) for (u, v) in removed}
            for target, row in self._to_rows.items():
                if _repair_row(
                    row, bwd, fwd, swapped_added, swapped_removed, self.max_hops
                ):
                    self._to_levels.pop(target, None)
        return self

    # ------------------------------------------------------------------ #
    # Indexed endpoints
    # ------------------------------------------------------------------ #
    @property
    def sources(self) -> List[int]:
        """The indexed sources, ascending."""
        return sorted(self._from_rows)

    @property
    def targets(self) -> List[int]:
        """The indexed targets, ascending."""
        return sorted(self._to_rows)

    # ------------------------------------------------------------------ #
    # Dense rows (hot-loop API)
    # ------------------------------------------------------------------ #
    def dense_from(self, source: int) -> Row:
        """The raw distance row of ``source`` (holes: :data:`NARROW_UNREACHABLE`
        in a one-byte row, :data:`UNREACHABLE` in a wide one).

        Callers index it directly — ``row[v]`` — which is the fast path the
        enumeration loops use; they must not mutate it.
        """
        row = self._from_rows.get(source)
        if row is None:
            raise KeyError(f"source {source} is not indexed")
        return row

    def dense_to(self, target: int) -> Row:
        """The raw distance row of ``target`` (holes as in :meth:`dense_from`)."""
        row = self._to_rows.get(target)
        if row is None:
            raise KeyError(f"target {target} is not indexed")
        return row

    # ------------------------------------------------------------------ #
    # Lookups (range-checked)
    # ------------------------------------------------------------------ #
    def _checked(self, row: Row, vertex: int) -> float:
        if not 0 <= vertex < self.num_vertices:
            raise ValueError(
                f"vertex id {vertex} is outside the indexed snapshot's "
                f"range [0, {self.num_vertices})"
            )
        distance = row[vertex]
        return INFINITY if distance == _hole(row) else distance

    def dist_from(self, source: int, vertex: int) -> float:
        """``dist_G(source, vertex)`` or ``inf`` when unreachable."""
        row = self._from_rows.get(source)
        if row is None:
            raise KeyError(f"source {source} is not indexed")
        return self._checked(row, vertex)

    def dist_to(self, target: int, vertex: int) -> float:
        """``dist_G(vertex, target)`` or ``inf`` when unreachable."""
        row = self._to_rows.get(target)
        if row is None:
            raise KeyError(f"target {target} is not indexed")
        return self._checked(row, vertex)

    def has_source(self, source: int) -> bool:
        return source in self._from_rows

    def has_target(self, target: int) -> bool:
        return target in self._to_rows

    # ------------------------------------------------------------------ #
    # BFS levels (everything that reads a row as a whole)
    # ------------------------------------------------------------------ #
    def forward_levels(self, source: int) -> Levels:
        """The reached vertices of ``source``'s row by exact distance."""
        if source not in self._from_rows:
            raise KeyError(f"source {source} is not indexed")
        return _levels_of(self._from_rows, self._from_levels, source)

    def backward_levels(self, target: int) -> Levels:
        """The reached vertices of ``target``'s row by exact distance."""
        if target not in self._to_rows:
            raise KeyError(f"target {target} is not indexed")
        return _levels_of(self._to_rows, self._to_levels, target)

    def forward_neighborhood(self, source: int, hops: int) -> FrozenSet[int]:
        """Γ — vertices reachable from ``source`` within ``hops`` hops
        (Definition 4.4)."""
        return frozenset().union(*self.forward_levels(source)[: hops + 1])

    def backward_neighborhood(self, target: int, hops: int) -> FrozenSet[int]:
        """Γr — vertices that can reach ``target`` within ``hops`` hops."""
        return frozenset().union(*self.backward_levels(target)[: hops + 1])

    def forward_level_sizes(self, source: int, hops: int) -> List[int]:
        """Number of vertices at each exact distance 0..hops from ``source``
        (zeros for the levels beyond ``max_hops`` the BFS never filled)."""
        return _level_sizes(self.forward_levels(source), hops)

    def backward_level_sizes(self, target: int, hops: int) -> List[int]:
        """Number of vertices at each exact distance 0..hops to ``target``."""
        return _level_sizes(self.backward_levels(target), hops)

    def forward_mask(self, source: int, hops: int) -> Tuple[int, int]:
        """``(bitmask of Γ, |Γ|)`` for ``source`` within ``hops`` hops — bit
        ``v`` is set iff ``v`` is in the neighbourhood (what the pairwise µ
        matrix intersects)."""
        return self._mask(self.dense_from(source), self.forward_levels, source, hops)

    def backward_mask(self, target: int, hops: int) -> Tuple[int, int]:
        """``(bitmask of Γr, |Γr|)`` for ``target`` within ``hops`` hops."""
        return self._mask(self.dense_to(target), self.backward_levels, target, hops)

    def _mask(
        self,
        row: Row,
        levels_of: Callable[[int], Levels],
        endpoint: int,
        hops: int,
    ) -> Tuple[int, int]:
        """A one-byte row becomes its bits in one C-level ``translate``
        (reversed, so vertex 0 is the lowest bit); a wide row (``k`` beyond
        :data:`NARROW_MAX_HOPS`) marks its levels instead."""
        if isinstance(row, bytearray):
            bits = row.translate(_WITHIN[min(hops, NARROW_MAX_HOPS)])
        else:
            bits = bytearray(b"0") * self.num_vertices
            for level in levels_of(endpoint)[: hops + 1]:
                for vertex in level:
                    bits[vertex] = 0x31
        mask = int(bits[::-1], 2)
        return mask, mask.bit_count()

    @property
    def num_rows(self) -> int:
        """Number of indexed endpoint rows (sources + targets)."""
        return len(self._from_rows) + len(self._to_rows)

    @property
    def size_in_entries(self) -> int:
        """Total number of *reachable* (vertex, distance) entries stored."""
        total = 0
        for source in self._from_rows:
            total += sum(map(len, self.forward_levels(source)))
        for target in self._to_rows:
            total += sum(map(len, self.backward_levels(target)))
        return total

    @property
    def nbytes(self) -> int:
        """Serialized size of the dense rows (no header, no endpoint ids):
        ``num_vertices`` bytes per row when ``max_hops <=``
        :data:`NARROW_MAX_HOPS`, ``array('l').itemsize`` times that beyond
        it."""
        return self.num_rows * self.num_vertices * row_width(self.max_hops)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize the dense rows to a compact, deterministic blob — two
        indexes with equal rows have equal blobs, which is how a delta
        repair is checked against a fresh build.

        Layout: header (magic, endpoint-id itemsize, row width,
        num_vertices, max_hops, row counts), then the sorted endpoint ids of
        both directions as the platform's native ``'l'``, then the raw rows
        in the same order, :func:`row_width` bytes per vertex.
        """
        from_ids = self.sources
        to_ids = self.targets
        parts = [
            _HEADER.pack(
                _MAGIC,
                _WIDE,
                row_width(self.max_hops),
                self.num_vertices,
                self.max_hops,
                len(from_ids),
                len(to_ids),
            ),
            array(TYPECODE, from_ids),
            array(TYPECODE, to_ids),
        ]
        parts.extend(self._from_rows[endpoint] for endpoint in from_ids)
        parts.extend(self._to_rows[endpoint] for endpoint in to_ids)
        return b"".join(parts)

    def __repr__(self) -> str:
        return (
            f"CSRDistanceIndex(|V|={self.num_vertices}, "
            f"sources={len(self._from_rows)}, targets={len(self._to_rows)}, "
            f"max_hops={self.max_hops})"
        )


def _repair_row(
    row: Row,
    succ: List[List[int]],
    pred: List[List[int]],
    added: Set[Tuple[int, int]],
    removed: Set[Tuple[int, int]],
    max_hops: int,
) -> bool:
    """Repair one truncated single-source BFS row in place; return whether
    any distance in it ended up different.

    ``succ``/``pred`` are the **post-mutation** adjacency lists in the row's
    search direction; edges in ``added`` are filtered out of phase 1 so the
    deletion repair runs against exactly ``G_old - removed`` (call it
    ``G_mid``), then phase 2 relaxes the added edges on the full new graph.

    Phase 1a walks candidate vertices in increasing *old* distance and marks
    a vertex affected when no surviving predecessor still supports its old
    level — supports sit one level lower, so their verdicts are final by the
    time a vertex is examined.  Phase 1b resets affected rows and reassigns
    exact truncated ``G_mid`` distances with a unit-weight Dijkstra seeded
    from the unaffected boundary.  Phase 2 is decrease-only relaxation from
    the added edges, which restores exact ``G_new`` distances because any
    improved shortest path must cross an added edge.  ``before`` keeps the
    old distance of every vertex written, so the verdict costs O(written).
    A hole is the row's own (:func:`_hole`), and a distance written is at
    most ``max_hops``, so a one-byte row stays one byte.
    """
    hole = _hole(row)
    before: Dict[int, int] = {}
    # -- Phase 1a: find vertices whose old distance lost all support ----- #
    heap = []
    for u, v in removed:
        old_v = row[v]
        old_u = row[u]
        if (
            old_v != hole
            and old_v != 0
            and old_u != hole
            and old_u + 1 == old_v
        ):
            heappush(heap, (old_v, v))
    affected: Set[int] = set()
    visited: Set[int] = set()
    while heap:
        d, x = heappop(heap)
        if x in visited:
            continue
        visited.add(x)
        supported = False
        for w in pred[x]:
            if (w, x) in added:
                continue
            old_w = row[w]
            if old_w != hole and old_w + 1 == d and w not in affected:
                supported = True
                break
        if supported:
            continue
        affected.add(x)
        for y in succ[x]:
            if (x, y) in added or y in visited:
                continue
            if row[y] == d + 1:
                heappush(heap, (d + 1, y))
    # -- Phase 1b: recompute the affected region against G_mid ----------- #
    if affected:
        for x in affected:
            before[x] = row[x]
            row[x] = hole
        heap = []
        for x in affected:
            for w in pred[x]:
                if (w, x) in added:
                    continue
                old_w = row[w]
                # Affected rows were just reset, so a finite row[w] means
                # w is unaffected and already holds its exact G_mid value.
                if old_w != hole and old_w + 1 <= max_hops:
                    heappush(heap, (old_w + 1, x))
        while heap:
            d, x = heappop(heap)
            if row[x] != hole:
                continue
            row[x] = d
            if d + 1 > max_hops:
                continue
            for y in succ[x]:
                if (x, y) in added:
                    continue
                if y in affected and row[y] == hole:
                    heappush(heap, (d + 1, y))
    # -- Phase 2: decrease-only relaxation from the added edges ---------- #
    heap = []
    for u, v in added:
        old_u = row[u]
        if old_u == hole:
            continue
        candidate = old_u + 1
        if candidate <= max_hops and candidate < row[v]:
            before.setdefault(v, row[v])
            row[v] = candidate
            heappush(heap, (candidate, v))
    while heap:
        d, x = heappop(heap)
        if d > row[x]:
            continue  # stale entry; x was improved further after the push
        candidate = d + 1
        if candidate > max_hops:
            continue
        for y in succ[x]:
            if candidate < row[y]:
                before.setdefault(y, row[y])
                row[y] = candidate
                heappush(heap, (candidate, y))
    return any(row[x] != old for x, old in before.items())


def build_index(
    graph: DiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    max_hops: int,
) -> CSRDistanceIndex:
    """Build the batch distance index: one truncated BFS per endpoint.

    ``sources`` are expanded forward on ``G``; ``targets`` backward on
    ``Gr``.  Distances are truncated at ``max_hops`` — Lemma 3.1 never needs
    larger values because any vertex further away cannot appear on a result
    path.  Each traversal fills its own dense row (a copy of the all-hole
    template, :func:`row_width` bytes per vertex) and leaves the row's
    :data:`Levels` behind, so building costs what the endpoints reach.
    Returns the array-backed :class:`CSRDistanceIndex`.
    """
    require_positive(max_hops, "max_hops")
    source_list, target_list = list(sources), list(targets)
    require(bool(source_list), "at least one source is required")
    require(bool(target_list), "at least one target is required")
    for name, endpoints in (("source", source_list), ("target", target_list)):
        for endpoint in endpoints:
            require_vertex(endpoint, graph.num_vertices, name)
    index = CSRDistanceIndex(graph.num_vertices, max_hops, {}, {})
    if row_width(max_hops) == 1:
        template = bytearray([NARROW_UNREACHABLE]) * graph.num_vertices
    else:
        template = array(TYPECODE, [UNREACHABLE]) * graph.num_vertices
    csr = graph.csr_snapshot()
    for endpoints, forward, rows, all_levels in (
        (source_list, True, index._from_rows, index._from_levels),
        (target_list, False, index._to_rows, index._to_levels),
    ):
        adjacency = csr.adjacency_lists(forward)
        for endpoint in sorted(set(endpoints)):
            row = rows[endpoint] = template[:]
            levels = []
            for depth, level in enumerate(
                truncated_bfs_levels(adjacency, endpoint, max_hops)
            ):
                for vertex in level:
                    row[vertex] = depth
                levels.append(array(TYPECODE, level))
            all_levels[endpoint] = tuple(levels)
    return index
