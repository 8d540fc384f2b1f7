"""Query types.

Two query notions from the paper:

* :class:`HCSTQuery` — a hop-constrained s-t simple path query ``q(s, t, k)``
  (Section II): enumerate all simple paths from ``s`` to ``t`` with at most
  ``k`` hops.
* :class:`HCsPathQuery` — a HC-s path query ``q_{v,k,G}`` (Definition 4.2):
  all hop-constrained paths starting from ``v`` with hop budget ``k`` on
  either ``G`` (forward) or ``Gr`` (backward).  These are the units of
  shared computation detected by Algorithm 3.

HCsPathQuery is a ``NamedTuple``: it keys the sharing graph Ψ, the detection
frontier and the result cache, so it hashes and compares as a plain tuple in
C rather than through dataclass-generated Python ``__hash__``/``__eq__``
methods.  ``HCSTQuery`` is the public batch element, hashed a few times per
batch, and stays a frozen dataclass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.utils.validation import require, require_non_negative


class Direction(enum.Enum):
    """Search direction of a HC-s path query."""

    FORWARD = "forward"    # paths on G, starting from a query source
    BACKWARD = "backward"  # paths on Gr, starting from a query target

    __hash__ = object.__hash__  # singletons: an identity hash in C, not Enum's

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"


@dataclass(frozen=True, order=True)
class HCSTQuery:
    """A hop-constrained s-t simple path query ``q(s, t, k)``.

    Attributes
    ----------
    s: source vertex.
    t: target vertex.
    k: hop constraint (paths may use at most ``k`` edges).
    """

    s: int
    t: int
    k: int

    def __post_init__(self) -> None:
        require_non_negative(self.s, "s")
        require_non_negative(self.t, "t")
        require_non_negative(self.k, "k")
        require(self.k >= 1, f"hop constraint k must be >= 1, got {self.k}")
        require(self.s != self.t, "source and target must differ (simple paths)")

    @property
    def forward_budget(self) -> int:
        """Hop budget of the forward HC-s path query: ``⌈k/2⌉``."""
        return (self.k + 1) // 2

    @property
    def backward_budget(self) -> int:
        """Hop budget of the backward HC-s path query: ``⌊k/2⌋``."""
        return self.k // 2

    def forward_subquery(self) -> "HCsPathQuery":
        """The forward HC-s path query ``q_{s, ⌈k/2⌉, G}``."""
        return HCsPathQuery(self.s, self.forward_budget, Direction.FORWARD)

    def backward_subquery(self) -> "HCsPathQuery":
        """The backward HC-s path query ``q_{t, ⌊k/2⌋, Gr}``."""
        return HCsPathQuery(self.t, self.backward_budget, Direction.BACKWARD)

    def split(self, forward_budget: int) -> tuple["HCsPathQuery", "HCsPathQuery"]:
        """Split the hop budget with an explicit forward share.

        Used by the "+" variants whose search-order optimiser may prefer an
        uneven split.  ``forward_budget + backward_budget == k`` always.
        """
        require(
            0 <= forward_budget <= self.k,
            f"forward_budget must be within [0, {self.k}], got {forward_budget}",
        )
        forward = HCsPathQuery(self.s, forward_budget, Direction.FORWARD)
        backward = HCsPathQuery(self.t, self.k - forward_budget, Direction.BACKWARD)
        return forward, backward

    def __str__(self) -> str:
        return f"q(s={self.s}, t={self.t}, k={self.k})"


class _HCsPathQueryFields(NamedTuple):
    vertex: int
    budget: int
    direction: Direction


class HCsPathQuery(_HCsPathQueryFields):
    """A HC-s path query ``q_{v,k}`` on ``G`` (forward) or ``Gr`` (backward).

    The results of the query are all hop-constrained paths starting at
    ``vertex`` using at most ``budget`` hops in the given direction.

    A ``(vertex, budget, direction)`` tuple: equality, hash and ordering
    are the tuple's.  The direction is never an int, so no path (a tuple of
    vertex ids) ever equals one.
    """

    __slots__ = ()

    def __new__(cls, vertex: int, budget: int, direction: Direction) -> "HCsPathQuery":
        require_non_negative(vertex, "vertex")
        require_non_negative(budget, "budget")
        return tuple.__new__(cls, (vertex, budget, direction))

    def dominates(self, other: "HCsPathQuery", distance: float) -> bool:
        """Definition 4.3: ``self ≺ other`` iff they share a direction and
        ``self.budget <= other.budget - dist(other.vertex, self.vertex)``.

        ``distance`` is ``dist(other.vertex, self.vertex)`` in the relevant
        direction (∞ when unreachable, in which case this returns False).
        """
        if self.direction is not other.direction:
            return False
        return self.budget <= other.budget - distance

    def __str__(self) -> str:
        arrow = "G" if self.direction is Direction.FORWARD else "Gr"
        return f"q[{self.vertex}, {self.budget}, {arrow}]"
