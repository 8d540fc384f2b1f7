"""Path concatenation ``⊕`` (Definition 3.1) as a hash join built on the
small side, with duplicate-free splitting.

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

Either case selects a forward path only by the vertex it ends on, and the
backward side is the small one (PathEnum sizes its join the same way).  So
the backward paths of *every* query one forward root serves are hashed by
junction into one :class:`JoinProbe`, and the forward side is never stored:
the root's HC-s path search reads the table as it reaches a join candidate
(:func:`~repro.enumeration.hc_s_search.search_hc_s_paths`), every other
producer hands whole paths to :meth:`JoinProbe.offer`.  A root shared by
eleven targets is searched and joined in one pass, and each query's list
fills in the order of the forward paths and, under one forward path, of its
backward paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
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


#: One backward side of a join: ``(backward paths, target, policy)``.
BackwardSide = Tuple[Iterable[Path], int, PathJoinPolicy]
#: What a last vertex maps to: ``(result list, tail, vertices of the tail)``
#: for every tail that completes a forward path ending there.
Entries = List[Tuple[List[Path], Path, FrozenSet[int]]]


class JoinProbe:
    """The backward sides of one forward root, hashed by junction.

    ``by_junction[v]`` completes a forward path of exactly
    ``forward_budget`` hops that ends on ``v``; ``by_target[t]`` takes a
    shorter one that already reaches the target ``t`` (its only tail is the
    trivial ``(t,)``).  A tail starts at the junction, so a forward path
    ``head + (v,)`` joins as ``head + tail`` whenever the two are disjoint.
    ``joined[i]`` receives the HC-s-t paths of side ``i``.

    A side's backward paths start at its target on ``Gr``, so their *last*
    vertex is the junction when re-oriented onto ``G``; one that is over
    budget, starts elsewhere, repeats an earlier one or is not simple is
    dropped.
    """

    def __init__(self, backward_sides: Sequence[BackwardSide]) -> None:
        budgets = {policy.forward_budget for _, _, policy in backward_sides}
        if len(budgets) != 1:
            raise ValueError(f"one forward side, one forward budget: {budgets}")
        self.forward_budget = budgets.pop()
        self.by_junction: Dict[int, Entries] = {}
        self.by_target: Dict[int, Entries] = {}
        self.joined: List[List[Path]] = [[] for _ in backward_sides]
        self._offered: Set[Path] = set()
        for joined, (paths, target, policy) in zip(self.joined, backward_sides):
            if self.forward_budget >= 1:
                reached = (joined, (target,), frozenset((target,)))
                self.by_target.setdefault(target, []).append(reached)
                self.by_junction.setdefault(target, []).append(reached)
            seen: Set[Path] = set()
            for backward in paths:
                length = len(backward) - 1
                if (
                    length < 1
                    or length > policy.backward_budget
                    or backward[0] != target
                    or backward in seen
                ):
                    continue
                seen.add(backward)
                if is_simple(backward):
                    tail = backward[::-1]
                    self.by_junction.setdefault(tail[0], []).append(
                        (joined, tail, frozenset(tail))
                    )

    def offer(self, path: Path) -> None:
        """Join one whole forward path, whoever produced it: a repeated or
        non-simple one is dropped, as is one no side can use."""
        hops = len(path) - 1
        if hops == self.forward_budget:
            entries = self.by_junction.get(path[-1])
        elif 0 < hops < self.forward_budget:
            entries = self.by_target.get(path[-1])
        else:
            return
        if entries is None or path in self._offered:
            return
        self._offered.add(path)
        if not is_simple(path):
            return
        head = path[:-1]
        for joined, tail, tail_vertices in entries:
            if tail_vertices.isdisjoint(head):
                joined.append(head + tail)


#: The forward side of a join: forward paths to offer, or a forward search —
#: called with the probe, it joins what it can itself and returns the rest.
ForwardSide = Union[Callable[[JoinProbe], Iterable[Path]], Iterable[Path]]


def join_path_sets(
    forward: ForwardSide, backward_sides: Sequence[BackwardSide]
) -> List[List[Path]]:
    """Join one forward side with several backward sides at once: the
    complete simple paths of each side, each once, in the order of the
    forward paths and, under one forward path, of that side's backward
    paths.

    A forward search that reads the probe inline vouches for its own paths
    and returns none; the paths it does return (a spliced root returns
    them all), like those of a plain iterable, are each offered under the
    per-path duplicate and simplicity tests.  Forward paths start at the
    query source on ``G``; all sides share one forward budget.  Every path
    is a tuple.
    """
    probe = JoinProbe(backward_sides)
    for path in forward(probe) if callable(forward) else forward:
        probe.offer(path)
    return probe.joined
