"""The one HC-s path search (Algorithm 4, procedure Search) and its one
Lemma 3.1 admissibility rule.

A HC-s path query ``q_{root, budget}`` enumerates the simple paths leaving
``root`` within ``budget`` hops in one direction, on behalf of one or more
HC-s-t queries.  Each of those is a pair ``(row, slack)``: the dense
distance row toward its *other* endpoint and ``B + 1 - k`` for its root
budget ``B`` in this direction.  Stepping onto ``v`` with ``r`` hops left
spends ``B - r`` hops plus one more and the rest of ``k`` must cover
``row[v]``, so it helps that query iff ``row[v] + slack <= r``; a step is
admissible iff it helps some served query.

:func:`admissibility` is that rule for every reader — PathEnum, BatchEnum
(both through :func:`search_hc_s_paths`) and DetectCommonQuery's frontier
expansion.  The search is PathEnum's [Sun et al., SIGMOD'21] plus one step,
the provider splice: with one served query and no provider it executes
what the single-query baseline executes.  Handed the
:class:`~repro.enumeration.join.JoinProbe` of a forward root it is also the
forward side of the ⊕ join and stores no path.  Its numpy twins live in
:mod:`repro.enumeration.kernels`.
"""

from __future__ import annotations

from typing import Callable, Collection, List, Mapping, Optional, Sequence, Tuple

from repro.bfs.distance_index import UNREACHABLE
from repro.enumeration.join import JoinProbe
from repro.enumeration.paths import Path

#: ``(dense row toward a served query's other endpoint, root budget + 1 - k)``.
DistanceRow = Tuple[Sequence[int], int]
#: Root vertex of a cached provider -> ``(its budget, fetch its paths)``.
Providers = Mapping[int, Tuple[int, Callable[[], Sequence[Path]]]]


class _MinNeed(dict):
    """``need[v]`` = the least ``row[v] + slack`` over several pairs, computed
    on first access and stored — a plain ``dict`` hit from then on.

    A hole needs no test of its own: a one-byte row's 0xFF serves ``k <=
    254``, so with ``slack = B + 1 - k`` it stays above every limit ``r <=
    B`` (``256 + B - k > B``), and a wide row's hole dwarfs any budget."""

    def __init__(self, rows: Sequence[DistanceRow]) -> None:
        super().__init__()
        self._rows = rows

    def __missing__(self, vertex: int) -> int:
        best = UNREACHABLE
        for row, slack in self._rows:
            need = row[vertex] + slack
            if need < best:
                best = need
        self[vertex] = best
        return best


def admissibility(distance_rows: Sequence[DistanceRow]) -> Tuple[Sequence[int], int]:
    """``(need, shift)``: stepping onto ``v`` with ``r`` hops left is pruned
    iff ``need[v] > r - shift``.

    One pair is its own answer — ``need`` is the index row itself, ``shift``
    its slack.  Several pairs give the lazily memoised minimum and no shift.
    A hole exceeds every budget its query can spend, so it prunes in both
    forms, and a node that serves nothing (:data:`UNREACHABLE`) prunes
    whatever the budget.
    """
    if len(distance_rows) == 1:
        return distance_rows[0]
    return _MinNeed(distance_rows), 0


def search_hc_s_paths(
    adjacency: Sequence[Sequence[int]],
    root: int,
    budget: int,
    distance_rows: Sequence[DistanceRow],
    served_endpoints: Collection[int],
    keep_all: bool,
    forward: bool,
    providers: Optional[Providers] = None,
    record_root: bool = True,
    stop_at: Optional[int] = None,
    probe: Optional[JoinProbe] = None,
) -> List[Path]:
    """All admissible simple paths from ``root`` within ``budget`` hops, in
    DFS preorder — lexicographic, since ``adjacency`` rows ascend.

    A path is recorded when ``keep_all`` (some HC-s path query splices this
    result) or when the final ⊕ join can use it: any backward path, and a
    forward path that is ``budget`` long or ends on one of
    ``served_endpoints``.  Stepping onto a ``providers`` vertex whose budget
    covers the hops left splices ``fetch()`` — called once per splice —
    instead of exploring.  The single-query search differs in two rules:
    the trivial path is no join candidate (``record_root=False``) and a
    simple s-t path never passes through the other endpoint (``stop_at``:
    recorded, never extended).  The stack is explicit, so deep budgets
    never meet the recursion limit.

    With a ``probe`` (a forward root nobody splices; ``budget`` is its
    forward budget) the search joins instead of recording and returns
    nothing: a last-hop neighbour reads its entries of the table and appends
    ``head + tail`` for every tail disjoint from the prefix, any other join
    candidate is offered whole.  No forward path is hashed to prove it new
    and simple: the search vouches for the prefix, once per leaf parent —
    simple, sorted after the previous one, the neighbours joined under it
    ascending — and raises ``ValueError`` on a feed that breaks this (an
    adjacency row that repeats a vertex).
    """
    need, shift = admissibility(distance_rows)
    record_all = keep_all or not forward
    results: List[Path] = []
    record = results.append
    if probe is not None:
        by_junction, served_endpoints = probe.by_junction, probe.by_target
        record = probe.offer
    if record_root and (record_all or budget == 0 or root in served_endpoints):
        record((root,))
    if budget <= 0:
        return results

    prefix = [root]
    on_path = {root}
    # stack[d] iterates the neighbours of prefix[d] not yet visited.
    stack = [iter(adjacency[root])]
    previous_head: Path = ()
    while stack:
        remaining = budget - len(stack) + 1
        limit = remaining - shift
        last_hop = remaining == 1
        if last_hop:
            head = tuple(prefix)
            if probe is not None:
                if len(on_path) != len(head) or head <= previous_head:
                    raise ValueError(f"forward prefix {head} is repeated or not simple")
                previous_head, joined_under = head, -1
        for neighbor in stack[-1]:
            if neighbor in on_path or need[neighbor] > limit:
                continue
            if providers and neighbor in providers:
                provider_budget, fetch = providers[neighbor]
                if provider_budget >= remaining - 1:
                    room, head = remaining - 1, tuple(prefix)
                    for cached in fetch():
                        extra = len(cached) - 1
                        if extra > room or not on_path.isdisjoint(cached):
                            continue
                        if record_all or extra == room or cached[-1] in served_endpoints:
                            record(head + cached)
                    continue
            if last_hop:
                # Full length: recorded whatever the rule, or joined; no push.
                if probe is None:
                    record(head + (neighbor,))
                elif neighbor in by_junction:
                    if neighbor <= joined_under:
                        raise ValueError(f"neighbour {neighbor} of {head} is repeated")
                    joined_under = neighbor
                    for joined, tail, tail_vertices in by_junction[neighbor]:
                        if tail_vertices.isdisjoint(on_path):
                            joined.append(head + tail)
                continue
            prefix.append(neighbor)
            if record_all or neighbor in served_endpoints:
                record(tuple(prefix))
            if neighbor == stop_at:
                prefix.pop()
                continue
            on_path.add(neighbor)
            stack.append(iter(adjacency[neighbor]))
            break
        else:
            stack.pop()
            on_path.remove(prefix.pop())
    return results
