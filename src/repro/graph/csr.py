"""Immutable snapshot of a :class:`DiGraph`: its adjacency rows, shared.

The enumeration hot loops only need fast, read-only access to out-neighbour
rows of ``G`` and ``Gr``.  A ``CSRGraph`` holds, per direction, a tuple of
the graph's own row tuples as they stood at one version — sealing copies
``|V|`` pointers, two snapshots of neighbouring versions share every row
the mutations between them did not touch, and nothing a caller is handed
can be mutated, so the graph cannot change while an index built from it is
alive.  The compressed-sparse-row form proper — flat ``(offsets, targets)``
arrays (``array('l')``; see :data:`TYPECODE`) — is derived from the rows on
the first :meth:`CSRGraph.flat` call, which only the numpy kernels make.

Rows are **sorted ascending**, the deterministic order :class:`DiGraph`
maintains, so iterative searches over either view enumerate paths in
identical order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Sequence, Tuple

from repro.graph.digraph import DiGraph, Row, strictly_ascending
from repro.utils.validation import require

#: Array typecode used for both the offset and target arrays.  ``'l'`` is a
#: C signed long (at least 32 bits, 64 on common platforms), chosen over
#: ``'i'`` so that very large vertex-id spaces cannot silently overflow.
TYPECODE = "l"

#: Largest value representable by :data:`TYPECODE` on this platform.
_TYPECODE_MAX = 2 ** (8 * array(TYPECODE).itemsize - 1) - 1


class CSRGraph:
    """Read-only CSR view with both forward and reverse adjacency.

    ``neighbors(v, forward=True)`` returns the out-neighbours of ``v`` in
    ``G``; with ``forward=False`` it returns the out-neighbours of ``v`` in
    ``Gr`` (i.e. the in-neighbours in ``G``).  This mirrors the paper's
    convention of running a *forward search* on ``G`` and a *backward
    search* on ``Gr`` with the same code.
    """

    __slots__ = ("num_vertices", "num_edges", "version", "_fwd", "_bwd", "_flat")

    def __init__(self, graph: DiGraph) -> None:
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        # The DiGraph revision this snapshot was sealed at; consumers use
        # it to resolve deltas and to match artefacts to snapshots.
        self.version = graph.version
        # The graph replaces rows, never edits them, so a pointer copy of
        # its two spines is a frozen view.
        self._fwd: Tuple[Row, ...] = tuple(graph._out)
        self._bwd: Tuple[Row, ...] = tuple(graph._in)
        # Packed arrays per direction, derived on the first flat() call.
        self._flat: Dict[bool, Tuple[array, array]] = {}

    @staticmethod
    def _pack(adjacency: Sequence[Sequence[int]]) -> tuple[array, array]:
        num_edges = sum(len(neighbors) for neighbors in adjacency)
        require(
            len(adjacency) - 1 <= _TYPECODE_MAX and num_edges <= _TYPECODE_MAX,
            f"graph too large for array typecode {TYPECODE!r} "
            f"(max representable value {_TYPECODE_MAX})",
        )
        offsets = array(TYPECODE, [0] * (len(adjacency) + 1))
        targets = array(TYPECODE)
        cursor = 0
        for v, neighbors in enumerate(adjacency):
            # DiGraph keeps every row sorted, so re-sorting here is pure
            # waste; the invariant is checked in debug builds only.
            assert strictly_ascending(neighbors), (
                f"adjacency of vertex {v} is not strictly sorted"
            )
            targets.extend(neighbors)
            cursor += len(neighbors)
            offsets[v + 1] = cursor
        return offsets, targets

    def neighbors(self, v: int, forward: bool = True) -> Row:
        """Out-neighbours of ``v`` in ``G`` (forward) or ``Gr`` (backward).

        Raises ``IndexError`` for any id outside ``[0, num_vertices)`` — a
        negative one would otherwise alias a vertex counted from the end.
        """
        self._require_vertex(v)
        return (self._fwd if forward else self._bwd)[v]

    def _require_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} is outside [0, {self.num_vertices})")

    def out_neighbors(self, v: int) -> Row:
        return self.neighbors(v, forward=True)

    def in_neighbors(self, v: int) -> Row:
        return self.neighbors(v, forward=False)

    def out_degree(self, v: int) -> int:
        return len(self.neighbors(v, forward=True))

    def in_degree(self, v: int) -> int:
        return len(self.neighbors(v, forward=False))

    def flat(self, forward: bool = True) -> tuple[array, array]:
        """The packed ``(offsets, targets)`` arrays of one direction."""
        packed = self._flat.get(forward)
        if packed is None:
            packed = self._flat[forward] = self._pack(self.adjacency_lists(forward))
        return packed

    def adjacency_lists(self, forward: bool = True) -> Tuple[Row, ...]:
        """The rows of one direction, indexed by vertex id.

        The iterative enumeration code indexes adjacency by vertex id in a
        tight loop (unchecked: a negative id counts from the end); these
        are the sealed rows themselves, shared with the live graph and
        with neighbouring versions.
        """
        return self._fwd if forward else self._bwd

    # ------------------------------------------------------------------ #
    # DiGraph read-surface compatibility
    #
    # The enumeration stack (PathEnum/BasicEnum/BatchEnum, build_index,
    # detection) only ever *reads* the graph it is handed: neighbour lists,
    # vertex/edge counts, ``vertices()``, ``has_edge`` and ``csr_snapshot``.
    # Implementing that surface here lets a sealed snapshot stand in for the
    # live ``DiGraph`` everywhere downstream — which is exactly how
    # multi-version serving keeps in-flight batches on their pinned version.
    # ------------------------------------------------------------------ #
    def vertices(self) -> range:
        return range(self.num_vertices)

    def has_edge(self, u: int, v: int) -> bool:
        self._require_vertex(v)
        row = self.neighbors(u, forward=True)
        position = bisect_left(row, v)
        return position < len(row) and row[position] == v

    def csr_snapshot(self) -> "CSRGraph":
        """A CSR view of this graph — already one; returns ``self``."""
        return self

    def __getstate__(self) -> tuple:
        # Rows only: the packed arrays are derived again on demand.
        return self.num_edges, self.version, self._fwd, self._bwd

    def __setstate__(self, state: tuple) -> None:
        self.num_edges, self.version, self._fwd, self._bwd = state
        self.num_vertices = len(self._fwd)
        self._flat = {}

    def __repr__(self) -> str:
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"version={self.version})"
        )
