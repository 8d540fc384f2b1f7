"""Mutable unweighted directed graph with integer vertex ids.

The graph stores one out- and one in-adjacency row per vertex so that
forward searches on ``G`` and backward searches on the reverse graph ``Gr``
(Section II of the paper) are both a single lookup.  Vertex ids are dense
integers in ``[0, num_vertices)``; parallel edges and self loops are
rejected because the paper's simple-path semantics never uses them.

A row is a **sorted ascending tuple** and is replaced, never edited: a
mutation builds the two rows it touches anew (O(degree), what an in-place
insert costs) and leaves every other row — and every sealed
:class:`~repro.graph.csr.CSRGraph` sharing them — alone.  Sorted rows make
every enumeration algorithm visit neighbours, and so produce paths, in one
order whichever view it reads and whatever order edges arrived in.

The rows are the only record of ``E``: membership is a range check and a
``bisect`` of the out-row, ``num_edges`` a counter, and no per-edge Python
object is kept beside them; ``copy()`` and ``reverse()`` share them, O(V).

Row entries are *interned*: every occurrence of vertex ``v`` is the one
``int`` object ``_ids[v]``.  That is a speed property only (set and dict
probes in the searches hit the identity short-cut, and the int working set
is ``|V|`` objects instead of ``2|E|``); nothing may rely on it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain, repeat
from operator import eq
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.graph.snapshots import SnapshotStore
from repro.utils.validation import require, require_non_negative, require_vertex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.csr import CSRGraph

Edge = Tuple[int, int]
Row = Tuple[int, ...]


def strictly_ascending(row: Sequence[int]) -> bool:
    """The row invariant every adjacency reader relies on."""
    return all(row[i] < row[i + 1] for i in range(len(row) - 1))


def _with_entry(row: Row, entry: int) -> Row:
    """``row`` with ``entry`` inserted at its sorted position."""
    at = bisect_left(row, entry)
    row = row[:at] + (entry,) + row[at:]
    assert strictly_ascending(row), f"adjacency row {row} is not strictly sorted"
    return row


def _without_entry(row: Row, entry: int) -> Row:
    """``row`` with ``entry`` (which it holds) taken out."""
    at = bisect_left(row, entry)
    row = row[:at] + row[at + 1:]
    assert strictly_ascending(row), f"adjacency row {row} is not strictly sorted"
    return row


def _filled_rows(
    num_rows: int, at: Iterable[int], entries: Iterable[int]
) -> List[List[int]]:
    """``num_rows`` lists with each ``entries`` item appended to row ``at``:
    one C-level ``map`` of appends, drained by ``deque(maxlen=0)``, with no
    Python loop body per edge."""
    rows: List[List[int]] = [[] for _ in range(num_rows)]
    deque(map(list.append, map(rows.__getitem__, at), entries), maxlen=0)
    return rows


class DiGraph:
    """An unweighted directed graph ``G = (V, E)``.

    Vertices are integers ``0..n-1``.  The class supports incremental
    construction (:meth:`add_edge`) and bulk construction
    (:meth:`from_edges`).  ``out_neighbors``/``in_neighbors`` return the
    adjacency lists used by forward/backward searches.
    """

    def __init__(self, num_vertices: int = 0) -> None:
        require_non_negative(num_vertices, "num_vertices")
        self._ids: List[int] = list(range(num_vertices))
        self._out: List[Row] = [()] * num_vertices
        self._in: List[Row] = [()] * num_vertices
        self._num_edges = 0
        self._version = 0
        self._snapshots = SnapshotStore(self)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_vertices: int | None = None
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(u, v)`` edges.

        If ``num_vertices`` is omitted it is inferred as ``max id + 1``.
        Duplicate edges are silently ignored; self loops raise.

        The rows are built in whole-list C-level passes (``map``, ``set``,
        ``min``/``max``): each out-row is sorted and de-duplicated once, and
        the in-rows come out sorted from a walk of the out-rows.  Edges are
        checked one by one only if a whole-list check fails, so the first
        offending edge raises with its own message.
        """
        edge_list = list(edges)
        sources = [u for u, _ in edge_list]
        targets = [v for _, v in edge_list]
        if num_vertices is None:
            num_vertices = max(0, max(chain(sources, targets), default=-1) + 1)
        graph = cls(num_vertices)
        if not (
            set(map(type, sources)) | set(map(type, targets)) <= {int}
            and min(chain(sources, targets), default=0) >= 0
            and max(chain(sources, targets), default=0) < num_vertices
            and not any(map(eq, sources, targets))
        ):
            for u, v in zip(sources, targets):
                require_vertex(u, num_vertices, "u")
                require_vertex(v, num_vertices, "v")
                require(u != v, f"self loops are not allowed (got edge ({u}, {v}))")
        ids = graph._ids
        grouped = _filled_rows(num_vertices, sources, map(ids.__getitem__, targets))
        del sources, targets, edge_list
        out = list(map(tuple, map(sorted, map(set, grouped))))
        del grouped
        # Walking the out-rows in source order appends every in-row sorted.
        inn = _filled_rows(
            num_vertices,
            chain.from_iterable(out),
            chain.from_iterable(map(repeat, ids, map(len, out))),
        )
        return graph._installed(ids, out, list(map(tuple, inn)), sum(map(len, out)))

    def add_vertex(self) -> int:
        """Append a new isolated vertex and return its id.

        A vertex-count change is a snapshot **barrier**: sealed snapshots of
        earlier versions stay readable for whoever holds them, but no edge
        delta spans it (indexes must be rebuilt, not repaired).
        """
        with self._snapshots.lock:
            self._ids.append(len(self._ids))
            self._out.append(())
            self._in.append(())
            self._version += 1
            self._snapshots.note_barrier()
            return len(self._out) - 1

    def add_edge(self, u: int, v: int) -> None:
        """Add the directed edge ``(u, v)``.

        Raises ``ValueError`` on self loops, duplicate edges or out-of-range
        endpoints.  The two rows it touches are replaced by sorted
        successors; sealed snapshots keep the rows they hold.  The mutation
        is recorded in the snapshot store's delta log.
        """
        # Validated under the lock: a racing mutator must not slip between
        # the duplicate check and the write.
        with self._snapshots.lock:
            require_vertex(u, self.num_vertices, "u")
            require_vertex(v, self.num_vertices, "v")
            require(u != v, f"self loops are not allowed (got edge ({u}, {v}))")
            require(not self.has_edge(u, v), f"duplicate edge ({u}, {v})")
            self._out[u] = _with_entry(self._out[u], self._ids[v])
            self._in[v] = _with_entry(self._in[v], self._ids[u])
            self._num_edges += 1
            self._version += 1
            self._snapshots.note_edge("+", u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``(u, v)``.

        Raises ``ValueError`` if the edge does not exist.  Like
        :meth:`add_edge`, this never disturbs sealed snapshots — in-flight
        consumers keep seeing the edge until they move to a newer version.
        """
        with self._snapshots.lock:
            require(self.has_edge(u, v), f"no such edge ({u}, {v})")
            self._out[u] = _without_entry(self._out[u], v)
            self._in[v] = _without_entry(self._in[v], u)
            self._num_edges -= 1
            self._version += 1
            self._snapshots.note_edge("-", u, v)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Incremented by every structural change (``add_edge``,
        ``remove_edge``, ``add_vertex``, bulk construction).  Long-running
        consumers — the streaming engine and the ingestion service — hold
        the sealed CSR (:meth:`csr_snapshot`) of the version they were
        admitted under and keep reading *that* while newer batches seal
        and plan against the head; mutation never invalidates an
        in-flight stream.
        """
        return self._version

    @property
    def snapshots(self) -> SnapshotStore:
        """The graph's head seal and mutation log (see
        :mod:`repro.graph.snapshots`)."""
        return self._snapshots

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(self.num_vertices)

    def edges(self) -> Iterator[Edge]:
        """Iterate edges sorted by source vertex, then by target."""
        for u, neighbors in enumerate(self._out):
            for v in neighbors:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an edge: a range check, then a bisect of
        ``u``'s out-row (a negative ``u`` never reads the last row)."""
        if not (isinstance(u, int) and 0 <= u < len(self._out)):
            return False
        row = self._out[u]
        at = bisect_left(row, v)
        return at < len(row) and row[at] == v

    def out_neighbors(self, v: int) -> Sequence[int]:
        """``G.nbr+(v)`` — successors of ``v``."""
        return self._out[v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """``G.nbr-(v)`` — predecessors of ``v``."""
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree (in + out), used for the dmax column of Table I."""
        return len(self._out[v]) + len(self._in[v])

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def reverse(self) -> "DiGraph":
        """Return ``Gr``: the graph with every edge direction flipped.

        The out/in rows of the reverse graph are exactly this graph's
        in/out rows, so it *shares* them (and the interned ids): ``O(V)``
        pointers, nothing per edge.
        """
        with self._snapshots.lock:
            return DiGraph()._installed(
                list(self._ids), list(self._in), list(self._out), self._num_edges
            )

    def copy(self) -> "DiGraph":
        """An independent graph with the same edges, sharing the immutable
        rows (a later mutation of either replaces rows, never edits them)."""
        with self._snapshots.lock:
            return DiGraph()._installed(
                list(self._ids), list(self._out), list(self._in), self._num_edges
            )

    def _installed(
        self, ids: List[int], out: List[Row], inn: List[Row], num_edges: int
    ) -> "DiGraph":
        """Take whole new rows: one version, and a snapshot barrier."""
        with self._snapshots.lock:
            self._ids, self._out, self._in = ids, out, inn
            self._num_edges = num_edges
            self._version += 1
            self._snapshots.note_barrier()
        return self

    def adjacency(self) -> List[List[int]]:
        """Return a deep copy of the out-adjacency lists."""
        return [list(neighbors) for neighbors in self._out]

    def csr_snapshot(self) -> "CSRGraph":
        """Return the sealed :class:`~repro.graph.csr.CSRGraph` of the
        current (head) version.

        Copy-on-write: repeated calls between mutations return the *same*
        immutable object, and a mutation never touches an already-sealed
        snapshot — the next call simply seals a fresh one while older
        holders keep reading theirs.  The returned object is the whole
        handle: whoever holds it keeps that version alive, and nothing
        else does.  This is what lets a whole batch — and every worker
        processing shards of it — read adjacency from one immutable
        structure while the live graph keeps moving.
        """
        return self._snapshots.seal()

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._out == other._out
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __getstate__(self) -> Dict[str, object]:
        # The snapshot store holds derived data plus a lock — neither is
        # picklable nor meaningful across process boundaries; each process
        # gets a fresh, empty store.
        state = self.__dict__.copy()
        del state["_snapshots"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._snapshots = SnapshotStore(self)

    def __repr__(self) -> str:
        return f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"

    def to_dict(self) -> Dict[int, List[int]]:
        """Return ``{vertex: out-neighbor list}`` (useful for debugging)."""
        return {v: list(self._out[v]) for v in self.vertices()}
