"""Path concatenation ``⊕`` (Definition 3.1) with duplicate-free splitting.

The bidirectional algorithms obtain every HC-s-t path by concatenating a
*forward* path (from ``s`` on ``G``) with a *backward* path (from ``t`` on
``Gr``).  Joining the full cross product of both sets would report a path of
length ``L`` once for every admissible split point, so this module enforces
a deterministic split rule:

* a path of length ``L <= forward_budget`` is produced only as a forward
  path that already ends at ``t`` joined with the trivial backward path
  ``(t,)``;
* a path of length ``L > forward_budget`` is produced only by joining the
  forward prefix of length exactly ``forward_budget`` with the backward
  suffix of length ``L - forward_budget``.

Under this rule each HC-s-t simple path is emitted exactly once, which the
property tests verify against the brute-force enumerator.

Either case selects a forward path only by the vertex it ends on.  The
forward result is therefore grouped by that vertex (:class:`JunctionIndex`),
and a join touches just the groups filed under its backward paths' junctions
and under the target.  The grouping depends on neither target nor budgets:
a root HC-s path result shared by many queries is grouped once, and the cost
of each of its joins follows the paths it emits, not the size of the root.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.enumeration.paths import Path, is_simple


@dataclass(frozen=True)
class PathJoinPolicy:
    """Parameters governing one bidirectional join.

    Attributes
    ----------
    forward_budget:
        Hop budget given to the forward search (``⌈k/2⌉`` by default, but
        the "+" variants may choose another split).
    backward_budget:
        Hop budget of the backward search; ``forward_budget +
        backward_budget`` must equal the query's hop constraint ``k``.
    """

    forward_budget: int
    backward_budget: int

    @property
    def hop_constraint(self) -> int:
        return self.forward_budget + self.backward_budget


class JunctionIndex:
    """The distinct simple paths of a forward path result, grouped by the
    vertex each ends on.

    Independent of target and budgets, so one index serves every join its
    forward result takes part in.  ``paths`` is kept by reference and read
    again only for the paths a join asks for.
    """

    def __init__(self, paths: Sequence[Path]) -> None:
        ordinals_by_last: Dict[int, List[int]] = defaultdict(list)
        seen: Set[Path] = set()
        for ordinal, path in enumerate(paths):
            if path in seen:
                continue
            seen.add(path)
            if is_simple(path):
                ordinals_by_last[path[-1]].append(ordinal)
        self.paths = paths
        self.ordinals_by_last = ordinals_by_last

    def ending_on(self, vertices: Iterable[int]) -> Iterator[Path]:
        """The paths ending on one of the distinct ``vertices``, in the
        order of the indexed result."""
        ordinals: List[int] = []
        for vertex in vertices:
            ordinals.extend(self.ordinals_by_last.get(vertex, ()))
        ordinals.sort()
        return map(self.paths.__getitem__, ordinals)


def join_path_sets(
    forward_paths: Union[JunctionIndex, Sequence[Path]],
    backward_paths: Iterable[Path],
    target: int,
    policy: PathJoinPolicy,
) -> List[Path]:
    """Join forward and backward path sets into complete simple paths.

    ``forward_paths`` start at the query source on ``G``; a caller that
    joins one forward result several times indexes it once and passes the
    :class:`JunctionIndex`, otherwise it is indexed here.
    ``backward_paths`` start at the query ``target`` on ``Gr`` (so their
    *last* vertex is the junction when re-oriented onto ``G``).  Every path
    is a tuple.  Only simple concatenations are returned, each once, in the
    order of the forward paths and, under one forward path, of the backward
    paths.
    """
    forward_budget = policy.forward_budget
    backward_budget = policy.backward_budget

    # Bucket the backward paths by junction (their last vertex on Gr),
    # re-oriented onto G and cut after the junction: (t, x1, ..., junction)
    # becomes the tail (..., x1, t).  A usable tail starts at the target and
    # is simple; it is kept with its vertex set for the disjointness test.
    tails_by_junction: Dict[int, List[Tuple[Path, FrozenSet[int]]]] = {}
    seen_backward: Set[Path] = set()
    for backward in backward_paths:
        length = len(backward) - 1
        if length < 1 or length > backward_budget or backward[0] != target:
            continue
        if backward in seen_backward:
            continue
        seen_backward.add(backward)
        if not is_simple(backward):
            continue
        tail = backward[-2::-1]
        tails_by_junction.setdefault(backward[-1], []).append(
            (tail, frozenset(tail))
        )

    # Only a forward path ending on the target or on a junction can emit
    # (the target is no junction: a simple path from it cannot end on it).
    if not isinstance(forward_paths, JunctionIndex):
        forward_paths = JunctionIndex(forward_paths)
    candidates = forward_paths.ending_on((target, *tails_by_junction))

    results: List[Path] = []
    for forward in candidates:
        length = len(forward) - 1
        last = forward[-1]
        if last == target:
            # Case 1: the forward path already reaches t.
            if 1 <= length <= forward_budget:
                results.append(forward)
        elif length == forward_budget:
            # Case 2: forward prefix of length exactly forward_budget.
            for tail, tail_vertices in tails_by_junction[last]:
                if tail_vertices.isdisjoint(forward):
                    results.append(forward + tail)
    return results
