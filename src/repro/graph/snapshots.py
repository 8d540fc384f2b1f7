"""Multi-version row-sharing CSR snapshots for a live :class:`DiGraph`.

The batch algorithms assume a frozen graph, but continuous serving runs
against a mutating one: edges arrive (and are retracted) while micro-batches
are still streaming.  Before this module existed the engine pinned
``graph.version`` at plan time and raised ``RuntimeError`` at the first
flush after a mutation — correct, but it turned every legitimate
``add_edge`` into a service-visible failure.

:class:`SnapshotStore` replaces the pin-and-raise discipline with
multi-version concurrency control:

* ``seal()`` freezes the graph's **head** revision into an immutable
  :class:`~repro.graph.csr.CSRGraph` once per version.  The graph replaces
  the adjacency rows a mutation touches instead of editing them, so a seal
  is a copy of the two ``|V|``-long row spines — no row is copied, packed
  or re-listed — and consecutive versions share every untouched row: a
  pinned old version costs its spine plus the rows replaced since.  Every
  sealed CSR carries the ``version`` it was sealed at.
* ``pin()`` seals the head and returns a refcounted
  :class:`PinnedSnapshot` handle.  An in-flight micro-batch pins the
  version it was admitted under and keeps reading that CSR for its whole
  plan → execute pipeline, while newer batches pin (and plan against) newer
  heads.  ``release()`` drops the refcount; a sealed version is forgotten
  when its last pinned consumer finishes (the head survives unpinned — it
  is the ``csr_snapshot()`` cache).
* A bounded **mutation log** records every ``add_edge``/``remove_edge``
  between versions.  ``delta(a, b)`` nets the log into
  ``(edges_added, edges_removed)`` so a consumer holding an artefact built
  at version ``a`` (e.g. a :class:`~repro.bfs.distance_index.CSRDistanceIndex`)
  can repair it incrementally via ``apply_delta`` instead of rebuilding.
  Vertex-count changes and bulk rebuilds act as barriers: ``delta`` across
  one returns ``None`` ("rebuild, no cheap path").

Thread-safety: the store's reentrant ``lock`` is shared with the owning
``DiGraph`` — mutators hold it across the structural change *and* the
version bump, and ``seal``/``pin`` take it while copying the spines, so a
pin is atomic with respect to concurrent mutation (no torn snapshots, no
check-then-act races on the version counter).
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

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


class PinnedSnapshot:
    """Refcounted handle on one sealed ``(version, CSRGraph)`` pair.

    Obtained from :meth:`SnapshotStore.pin`; usable as a context manager.
    ``release()`` is idempotent — the handle counts at most once against
    the sealed version's refcount.
    """

    __slots__ = ("csr", "_store", "_released")

    def __init__(self, store: "SnapshotStore", csr: "CSRGraph") -> None:
        self.csr = csr
        self._store = store
        self._released = False

    @property
    def version(self) -> int:
        """The graph version this snapshot was sealed at."""
        return self.csr.version

    def release(self) -> None:
        """Drop this consumer's refcount (idempotent)."""
        if not self._released:
            self._released = True
            self._store.release(self.csr.version)

    def __enter__(self) -> "PinnedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return f"PinnedSnapshot(version={self.version}, {state})"


class SnapshotStore:
    """Copy-on-write store of sealed CSR snapshots for one ``DiGraph``.

    Owned by the graph (``graph.snapshots``); see the module docstring for
    the serving model.  All public methods are safe to call from any
    thread.
    """

    def __init__(self, graph: "DiGraph", max_log: int = DEFAULT_MAX_LOG) -> None:
        require(max_log >= 0, f"max_log must be >= 0, got {max_log}")
        self._graph = graph
        # Reentrant: mutators hold it across bump+note, seal() re-enters.
        self._lock = threading.RLock()
        self._sealed: Dict[int, "CSRGraph"] = {}
        self._pins: Dict[int, int] = {}
        self._log: Deque[_LogEntry] = deque()
        # Deltas are computable only for from-versions >= this floor (log
        # entries before it were trimmed or wiped by a barrier).
        self._log_floor = graph.version
        self._max_log = max_log
        # Telemetry is off until instrument() is called; the flag keeps
        # the uninstrumented mutation path free of even no-op gauge calls.
        self._instrumented = False
        self._gauge_live = None
        self._gauge_pins = None
        self._gauge_log = None

    def instrument(self, metrics) -> None:
        """Attach gauges from a :class:`~repro.obs.metrics.MetricsRegistry`.

        Idempotent; passing ``None`` detaches.  The gauges track live
        sealed versions, the summed pin refcount and the mutation-log
        length, refreshed on every store transition.
        """
        with self._lock:
            if metrics is None:
                self._instrumented = False
                self._gauge_live = self._gauge_pins = self._gauge_log = None
                return
            self._gauge_live = metrics.gauge("repro_snapshot_live_versions")
            self._gauge_pins = metrics.gauge("repro_snapshot_pinned_refcount_total")
            self._gauge_log = metrics.gauge("repro_snapshot_mutation_log_entries")
            self._instrumented = True
            self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        """Push current store state into the gauges (caller holds lock)."""
        self._gauge_live.set(len(self._sealed))
        self._gauge_pins.set(sum(self._pins.values()))
        self._gauge_log.set(len(self._log))

    # ------------------------------------------------------------------ #
    # Sealing and pinning
    # ------------------------------------------------------------------ #
    @property
    def lock(self) -> threading.RLock:
        """The store's reentrant lock (shared with the graph's mutators)."""
        return self._lock

    def seal(self) -> "CSRGraph":
        """Seal (or reuse) the immutable CSR of the graph's head version."""
        from repro.graph.csr import CSRGraph

        with self._lock:
            head = self._graph.version
            csr = self._sealed.get(head)
            if csr is None:
                csr = CSRGraph(self._graph)
                self._sealed[head] = csr
                if self._instrumented:
                    self._refresh_gauges()
            return csr

    def pin(self) -> PinnedSnapshot:
        """Seal the head version and return a refcounted handle on it.

        The returned snapshot stays resolvable through :meth:`resolve`
        until its last pin is released, no matter how often the graph
        mutates in the meantime.
        """
        with self._lock:
            csr = self.seal()
            self._pins[csr.version] = self._pins.get(csr.version, 0) + 1
            if self._instrumented:
                self._refresh_gauges()
            return PinnedSnapshot(self, csr)

    def release(self, version: int) -> None:
        """Drop one pin of ``version``; free the CSR at refcount zero.

        The head version's CSR is kept even unpinned — it doubles as the
        ``csr_snapshot()`` cache.  Releasing an unpinned version is a
        no-op (:meth:`PinnedSnapshot.release` is already idempotent; this
        keeps direct misuse harmless too).
        """
        with self._lock:
            count = self._pins.get(version)
            if count is None:
                return
            if count > 1:
                self._pins[version] = count - 1
            else:
                del self._pins[version]
                if version != self._graph.version:
                    self._sealed.pop(version, None)
            if self._instrumented:
                self._refresh_gauges()

    def resolve(self, version: int) -> "CSRGraph":
        """The sealed CSR of ``version``; raises ``KeyError`` if it is not
        live (never sealed, or already released by its last consumer)."""
        with self._lock:
            csr = self._sealed.get(version)
            if csr is None:
                raise KeyError(
                    f"version {version} is not live (sealed: "
                    f"{self.live_versions()}); only pinned versions and the "
                    "head survive mutation"
                )
            return csr

    def live_versions(self) -> List[int]:
        """Sorted versions with a sealed CSR currently in the store."""
        with self._lock:
            return sorted(self._sealed)

    def pin_count(self, version: int) -> int:
        """Number of outstanding pins on ``version``."""
        with self._lock:
            return self._pins.get(version, 0)

    # ------------------------------------------------------------------ #
    # Mutation notifications (called by DiGraph, under ``lock``)
    # ------------------------------------------------------------------ #
    def note_edge(self, op: str, u: int, v: int) -> None:
        """Record a single-edge mutation (``op`` "+" or "-") that produced
        the graph's current version."""
        require(op in ("+", "-"), f"unknown mutation op {op!r}")
        with self._lock:
            self._forget_unpinned()
            self._log.append((self._graph.version, op, u, v))
            while len(self._log) > self._max_log:
                trimmed_version, _, _, _ = self._log.popleft()
                # Deltas starting before the trimmed entry are incomplete.
                self._log_floor = max(self._log_floor, trimmed_version)
            if self._instrumented:
                self._refresh_gauges()

    def note_barrier(self) -> None:
        """Record a structural change deltas cannot express (vertex count
        change, bulk rebuild): wipe the log and advance the floor."""
        with self._lock:
            self._forget_unpinned()
            self._log.clear()
            self._log_floor = self._graph.version
            if self._instrumented:
                self._refresh_gauges()

    def _forget_unpinned(self) -> None:
        """Drop sealed CSRs that are neither pinned nor the head.

        Called with the version counter already bumped, so every entry in
        ``_sealed`` is now stale; only pinned consumers keep theirs alive.
        """
        head = self._graph.version
        stale = [
            version
            for version in self._sealed
            if version != head and not self._pins.get(version)
        ]
        for version in stale:
            del self._sealed[version]

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
                f"sealed={self.live_versions()}, "
                f"pins={dict(sorted(self._pins.items()))}, "
                f"log={len(self._log)})"
            )
