"""Vectorized frontier-expansion kernels: the numpy twins of the HC-s path search.

The explicit-stack search of :mod:`repro.enumeration.hc_s_search` — the one
Python loop behind ``PathEnum._search`` and ``BatchEnum._enumerate_node`` —
spends its time in Python bytecode dispatch, one vertex at a time.  This
module re-expresses it as *level-synchronous* numpy frontier expansions over
the flat CSR arrays: every partial path of the same length is extended in
one shot — neighbour gather, simple-path check, Lemma 3.1 pruning and record
selection are all array operations.  :func:`enumerate_node_paths` is the
search itself, provider splice included; :func:`search_paths` is the search
under PathEnum's two single-query rules (no trivial path, never past the
other endpoint).  A twin returns a whole list and cannot read the ⊕ join's
probe table as it goes: a forward root's list is offered to the table path
by path afterwards, which is why no route picks a twin unasked
(:func:`resolve_kernel`).

Byte-identity
-------------
Both kernels return *exactly* the list the explicit-stack search records
without a probe, pinned by the differential suite in ``tests/test_kernels.py``.
The argument: the DFS iterates each adjacency row in strictly ascending
vertex order (a ``CSRGraph`` packing invariant), so its preorder emission
sequence *is* the lexicographic order of the emitted vertex tuples — a
prefix sorts before its extensions, and siblings sort by the ascending
neighbour id.  A level-synchronous expansion that collects the same set of
records and sorts the tuples once at the end therefore reproduces the DFS
output verbatim, provider splices included (a provider's cached list is
itself lexicographic by induction over the sharing graph's topological
order, and every spliced path shares the prefix that triggered the splice).

numpy is an optional dependency (the ``[kernels]`` extra): when it is not
importable every request for the ``"numpy"`` kernel raises at construction
time — the pure-Python search is the default substrate and the only one
exercised without the extra.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence, Tuple

from repro.bfs.distance_index import NARROW_UNREACHABLE, UNREACHABLE
from repro.enumeration.paths import Path

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Whether the numpy substrate is importable in this process.
NUMPY_AVAILABLE = _np is not None

#: Kernel names accepted by the engine/planner surface.
KERNELS = ("auto", "python", "numpy")

#: Admissibility sentinel for vertices no served query can reach — must
#: dominate every ``budget`` while staying far from int64 overflow when a
#: slack constant is added.
_INT_INF = 2 ** 60


def validate_kernel(kernel: str) -> str:
    """Eagerly validate a kernel request (engine/enumerator constructors).

    ``"numpy"`` is refused outright when numpy is absent so the failure
    surfaces at construction, not deep inside a worker process.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if kernel == "numpy" and not NUMPY_AVAILABLE:
        raise ValueError(
            "kernel='numpy' requested but numpy is not importable; "
            "install the [kernels] extra or use kernel='auto'/'python'"
        )
    return kernel


def resolve_kernel(kernel: str) -> str:
    """Resolve a kernel request to the concrete ``"python"``/``"numpy"``.

    ``"auto"`` is ``"python"`` on every route: turning a twin's arrays into
    tuples and offering them to the ⊕ join costs more than the bytecode it
    saves on every workload of ``benchmarks/perf``.  ``"numpy"`` runs only
    when asked for by name.
    """
    validate_kernel(kernel)
    return "python" if kernel == "auto" else kernel


def _as_int64(buffer) -> "_np.ndarray":
    """View/convert a flat CSR or distance buffer as an int64 ndarray.

    ``array('l')`` rows expose the buffer protocol, so this is zero-copy.
    A one-byte distance row is widened, its hole mapped to ``UNREACHABLE``.
    """
    if isinstance(buffer, bytearray):
        wide = _np.frombuffer(buffer, dtype=_np.uint8).astype(_np.int64)
        wide[wide == NARROW_UNREACHABLE] = UNREACHABLE
        return wide
    return _np.asarray(buffer, dtype=_np.int64)


def _gather_neighbors(offsets, targets, frontier):
    """One CSR gather: all neighbours of every frontier path's last vertex.

    Returns ``(rep, nbrs)`` where ``nbrs[i]`` extends frontier row
    ``rep[i]``; pairs are ordered by (frontier row, ascending neighbour) —
    the DFS visit order.  Only 1-D arrays are materialised here: the 2-D
    prefix matrix is deliberately *not* built until after admissibility
    pruning, which is where the kernel's speed comes from (the prune
    typically discards the vast majority of candidate rows, so copying
    every prefix first would dominate the level).
    """
    verts = frontier[:, -1]
    starts = offsets[verts]
    counts = offsets[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return None, None
    prev = _np.cumsum(counts) - counts
    idx = _np.arange(total) + _np.repeat(starts - prev, counts)
    rep = _np.repeat(_np.arange(frontier.shape[0]), counts)
    return rep, targets[idx]


def _not_on_path(frontier, rep, nbrs):
    """Mask of candidates whose neighbour is not already on their path.

    Column-wise membership test against the frontier matrix: ``L`` 1-D
    gathers instead of materialising a ``rows x L`` comparison matrix.
    Call it *after* the distance prune so ``rows`` is already small.
    """
    on = _np.zeros(nbrs.shape[0], dtype=bool)
    for col in range(frontier.shape[1]):
        on |= frontier[rep, col] == nbrs
    return ~on


def _tuples(matrix) -> List[Path]:
    """Rows of an int64 path matrix as tuples of Python ints."""
    return [tuple(row) for row in matrix.tolist()]


def search_paths(
    offsets,
    targets,
    row,
    start: int,
    other_end: int,
    k: int,
    budget: int,
    forward: bool,
) -> List[Path]:
    """numpy twin of :func:`~repro.enumeration.hc_s_search.search_hc_s_paths`
    as ``PathEnum._search`` calls it (one query, no provider, no trivial
    path, ``other_end`` never passed through), over flat CSR arrays.

    ``row`` is the dense Lemma 3.1 distance row toward the *other*
    endpoint (``dist(v, t)`` forward / ``dist(s, v)`` backward);
    ``UNREACHABLE`` holes prune naturally because they dwarf any budget.
    """
    collected: List[Path] = []
    if budget <= 0:
        return collected
    if forward and start == other_end:  # guarded by HCSTQuery, defensive
        return collected
    offs = _as_int64(offsets)
    tgts = _as_int64(targets)
    dist = _as_int64(row)

    frontier = _np.array([[start]], dtype=_np.int64)
    for used in range(budget):
        rep, nbrs = _gather_neighbors(offs, tgts, frontier)
        if rep is None:
            break
        # Lemma 3.1 first (one gather over every candidate), simple-path
        # check second (per surviving candidate only), prefix copies last.
        cand = _np.nonzero(dist[nbrs] <= k - used - 1)[0]
        sub_rep, sub_nbrs = rep[cand], nbrs[cand]
        ok = _not_on_path(frontier, sub_rep, sub_nbrs)
        keep_rep, keep_nbrs = sub_rep[ok], sub_nbrs[ok]
        extended = _np.concatenate(
            [frontier[keep_rep], keep_nbrs[:, None]], axis=1
        )
        length = used + 1
        lasts = extended[:, -1]
        if forward:
            recorded = extended[(lasts == other_end) | (length == budget)]
        else:
            recorded = extended
        if recorded.shape[0]:
            collected.extend(_tuples(recorded))
        if length >= budget:
            break
        # A simple s-t path never revisits the other endpoint: paths that
        # just reached it are leaves in both directions.
        frontier = extended[lasts != other_end]
        if frontier.shape[0] == 0:
            break
    collected.sort()
    return collected


def enumerate_node_paths(
    offsets,
    targets,
    root: int,
    budget: int,
    distance_rows: Sequence[Tuple[Sequence[int], int]],
    served_endpoints,
    keep_all: bool,
    forward: bool,
    providers: Mapping[int, Tuple[int, Callable[[], Sequence[Path]]]],
) -> List[Path]:
    """numpy twin of :func:`~repro.enumeration.hc_s_search.search_hc_s_paths`
    (same arguments after the graph, same list out).

    ``providers`` maps a provider root vertex to ``(provider_budget,
    fetch)`` where ``fetch()`` returns the provider's cached paths —
    a callable (not a prefetched list) so the result cache observes one
    ``get`` per splice, exactly like the explicit-stack search, keeping the
    sharing statistics identical too.
    """
    offs = _as_int64(offsets)
    tgts = _as_int64(targets)
    rows = [(_as_int64(row), constant) for row, constant in distance_rows]
    served_set = set(served_endpoints)
    served_arr = _np.fromiter(served_set, dtype=_np.int64, count=len(served_set))

    def record_ok(path_last: int, length: int) -> bool:
        if keep_all:
            return True
        if forward:
            return length == budget or path_last in served_set
        return True

    results: List[Path] = []
    if record_ok(root, 0):
        results.append((root,))
    if budget == 0:
        return results

    frontier = _np.array([[root]], dtype=_np.int64)
    for used in range(budget):
        remaining = budget - used
        rep, nbrs = _gather_neighbors(offs, tgts, frontier)
        if rep is None:
            break
        # Admissibility: min over served queries of dist(v, endpoint) +
        # slack, UNREACHABLE excluded — prefix-independent, so one gather
        # per distance row covers the whole level.  Pruning runs before the
        # simple-path check and the prefix copies (see _gather_neighbors).
        need = _np.full(nbrs.shape[0], _INT_INF, dtype=_np.int64)
        for row, constant in rows:
            gathered = row[nbrs]
            need = _np.minimum(
                need,
                _np.where(gathered == UNREACHABLE, _INT_INF, gathered + constant),
            )
        cand = _np.nonzero(need <= remaining)[0]
        sub_rep, sub_nbrs = rep[cand], nbrs[cand]
        ok = _not_on_path(frontier, sub_rep, sub_nbrs)
        adm_rep, adm_nbrs = sub_rep[ok], sub_nbrs[ok]

        # Provider splice (Algorithm 4, Search lines 22-23): a provider is
        # eligible at this level iff its budget covers the remaining need;
        # the condition is uniform per vertex within a level.
        eligible = [
            vertex
            for vertex, (provider_budget, _) in providers.items()
            if provider_budget >= remaining - 1
        ]
        if eligible:
            spliced = _np.isin(
                adm_nbrs, _np.asarray(eligible, dtype=_np.int64)
            )
        else:
            spliced = _np.zeros(adm_nbrs.shape[0], dtype=bool)
        if spliced.any():
            for i in _np.nonzero(spliced)[0]:
                prefix = tuple(int(v) for v in frontier[adm_rep[i]])
                on_prefix = set(prefix)
                cached_paths = providers[int(adm_nbrs[i])][1]()
                for cached in cached_paths:
                    extra = len(cached) - 1
                    if extra > remaining - 1:
                        continue
                    if not record_ok(cached[-1], used + 1 + extra):
                        continue
                    if any(v in on_prefix for v in cached):
                        continue
                    results.append(prefix + cached)

        expand_rep, expand_nbrs = adm_rep[~spliced], adm_nbrs[~spliced]
        extended = _np.concatenate(
            [frontier[expand_rep], expand_nbrs[:, None]], axis=1
        )
        length = used + 1
        if keep_all or not forward:
            recorded = extended
        else:
            recorded = extended[
                (length == budget) | _np.isin(extended[:, -1], served_arr)
            ]
        if recorded.shape[0]:
            results.extend(_tuples(recorded))
        if length >= budget or extended.shape[0] == 0:
            break
        frontier = extended
    results.sort()
    return results
