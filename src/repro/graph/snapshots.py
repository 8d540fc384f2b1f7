"""Row-sharing CSR snapshots and the mutation log of a live :class:`DiGraph`.

The batch algorithms assume a frozen graph, but continuous serving runs
against a mutating one: edges arrive (and are retracted) while micro-batches
are still streaming.  A batch is isolated from those mutations by the one
object it reads, an immutable sealed :class:`~repro.graph.csr.CSRGraph`:

* ``seal()`` freezes the graph's **head** revision into a ``CSRGraph``
  once per version and keeps it in one slot until the next mutation drops
  it.  The graph replaces the adjacency rows a mutation touches instead of
  editing them, so a seal is a copy of the two ``|V|``-long row spines —
  no row is copied, packed or re-listed — and consecutive versions share
  every untouched row: an old version costs its spine plus the rows
  replaced since.  Every sealed CSR carries the ``version`` it was sealed
  at.  The store keeps no old version: a stream, plan or worker that holds
  a sealed CSR keeps it alive, and it is freed with the last reference.
* A bounded **mutation log** records every ``add_edge``/``remove_edge``
  between versions.  ``delta(a, b)`` nets the log into
  ``(edges_added, edges_removed)`` so a consumer holding an artefact built
  at version ``a`` (e.g. a :class:`~repro.bfs.distance_index.CSRDistanceIndex`)
  can repair it incrementally via ``apply_delta`` instead of rebuilding.
  Vertex-count changes and bulk rebuilds act as barriers: ``delta`` across
  one returns ``None`` ("rebuild, no cheap path").

Thread-safety: the store's reentrant ``lock`` is shared with the owning
``DiGraph`` — mutators hold it across the structural change *and* the
version bump, and ``seal`` takes it while copying the spines, so a seal is
atomic with respect to concurrent mutation (no torn snapshots, no
check-then-act races on the version counter).
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.graph.digraph import DiGraph

Edge = Tuple[int, int]

#: Log entries: ``(version_after_mutation, op, u, v)`` with op "+" / "-".
_LogEntry = Tuple[int, str, int, int]

#: Default bound on the mutation log.  A long-running service mutates
#: indefinitely; the log only needs to span the gap between two consecutive
#: index builds of one planner, so a few thousand single-edge ops is ample.
DEFAULT_MAX_LOG = 4096


class SnapshotStore:
    """The head seal and the mutation log of one ``DiGraph``.

    Owned by the graph (``graph.snapshots``); see the module docstring for
    the serving model.  All public methods are safe to call from any
    thread.
    """

    def __init__(self, graph: "DiGraph", max_log: int = DEFAULT_MAX_LOG) -> None:
        require(max_log >= 0, f"max_log must be >= 0, got {max_log}")
        self._graph = graph
        # Reentrant: mutators hold it across bump+note, note_* re-enters.
        self._lock = threading.RLock()
        # The head version's seal, until the next mutation drops it.
        self._head: Optional["CSRGraph"] = None
        self._log: Deque[_LogEntry] = deque()
        # Deltas are computable only for from-versions >= this floor (log
        # entries before it were trimmed or wiped by a barrier).
        self._log_floor = graph.version
        self._max_log = max_log
        # Telemetry is off until instrument() is called; the ``None`` keeps
        # the uninstrumented mutation path free of even no-op gauge calls.
        self._gauge_log = None

    def instrument(self, metrics) -> None:
        """Attach the mutation-log gauge from a
        :class:`~repro.obs.metrics.MetricsRegistry` (idempotent).  The
        gauge tracks the log length, refreshed on every mutation.
        """
        with self._lock:
            self._gauge_log = metrics.gauge("repro_snapshot_mutation_log_entries")
            self._gauge_log.set(len(self._log))

    # ------------------------------------------------------------------ #
    # Sealing
    # ------------------------------------------------------------------ #
    @property
    def lock(self) -> threading.RLock:
        """The store's reentrant lock (shared with the graph's mutators)."""
        return self._lock

    def seal(self) -> "CSRGraph":
        """Seal (or reuse) the immutable CSR of the graph's head version."""
        from repro.graph.csr import CSRGraph

        with self._lock:
            if self._head is None:
                self._head = CSRGraph(self._graph)
            return self._head

    # ------------------------------------------------------------------ #
    # Mutation notifications (called by DiGraph, under ``lock``)
    # ------------------------------------------------------------------ #
    def note_edge(self, op: str, u: int, v: int) -> None:
        """Record a single-edge mutation (``op`` "+" or "-") that produced
        the graph's current version."""
        require(op in ("+", "-"), f"unknown mutation op {op!r}")
        with self._lock:
            self._head = None
            self._log.append((self._graph.version, op, u, v))
            while len(self._log) > self._max_log:
                trimmed_version, _, _, _ = self._log.popleft()
                # Deltas starting before the trimmed entry are incomplete.
                self._log_floor = max(self._log_floor, trimmed_version)
            if self._gauge_log is not None:
                self._gauge_log.set(len(self._log))

    def note_barrier(self) -> None:
        """Record a structural change deltas cannot express (vertex count
        change, bulk rebuild): wipe the log and advance the floor."""
        with self._lock:
            self._head = None
            self._log.clear()
            self._log_floor = self._graph.version
            if self._gauge_log is not None:
                self._gauge_log.set(0)

    # ------------------------------------------------------------------ #
    # Deltas
    # ------------------------------------------------------------------ #
    def delta(
        self, from_version: int, to_version: int
    ) -> Optional[Tuple[List[Edge], List[Edge]]]:
        """Net edge changes taking version ``from_version`` to ``to_version``.

        Returns ``(edges_added, edges_removed)`` — both sorted, already
        netted (an edge added then removed inside the window cancels out,
        and vice versa) — or ``None`` when the window is not coverable:
        the versions run backwards, the log was trimmed past
        ``from_version``, or a barrier (vertex add, bulk rebuild) sits
        inside the window.

        Costs the window, not the log: every version bump notes exactly
        one entry and a barrier wipes the log, so the entries run
        ``floor + 1, floor + 2, …`` and the window's are found by version
        arithmetic, counted back from the newest entry: a window at the
        head costs its own entries, however long the log has grown.
        """
        with self._lock:
            if from_version == to_version:
                return [], []
            if from_version > to_version or from_version < self._log_floor:
                return None
            # The newest entry is version floor + len(log); to_version's
            # sits `behind` entries before it.
            behind = self._log_floor + len(self._log) - to_version
            if behind < 0:
                return None  # to_version is not logged (yet)
            window = list(
                islice(reversed(self._log), behind, behind + to_version - from_version)
            )
            added: set = set()
            removed: set = set()
            for _, op, u, v in reversed(window):
                edge = (u, v)
                if op == "+":
                    if edge in removed:
                        removed.discard(edge)
                    else:
                        added.add(edge)
                else:
                    if edge in added:
                        added.discard(edge)
                    else:
                        removed.add(edge)
            return sorted(added), sorted(removed)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SnapshotStore(head={self._graph.version}, "
                f"sealed={self._head is not None}, log={len(self._log)})"
            )
