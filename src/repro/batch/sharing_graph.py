"""The query sharing graph Ψ (Definition 4.7).

Ψ is a DAG whose nodes are either HC-s-t path queries (identified by their
position in the batch) or HC-s path queries, and whose edges point from a
*provider* (a HC-s path query whose materialised results can be reused) to
a *consumer* (the query whose enumeration splices those results in).
``BatchEnum`` processes nodes in topological order so every provider is
materialised before any of its consumers runs, and evicts a provider's
cached results once all of its consumers have been processed.

The detection algorithm only ever adds edges that keep Ψ acyclic; the graph
nevertheless exposes :meth:`would_create_cycle` as a guard because a cyclic
Ψ would make the shared enumeration unschedulable.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Dict, Iterator, List, Set, Union

from repro.queries.query import Direction, HCsPathQuery
from repro.utils.validation import require


class _QueryTag(enum.Enum):
    """The second field of every :class:`QueryNode`."""

    QUERY = "query"

    __hash__ = object.__hash__  # a singleton: an identity hash in C


class QueryNode(tuple):
    """A node of Ψ representing the HC-s-t path query at batch position
    ``position`` (one per direction-specific sharing graph).

    The tuple ``(position, tag)``: it hashes and compares in C, like the
    :class:`~repro.queries.query.HCsPathQuery` nodes beside it, and the
    private tag keeps it unequal to a path, a vertex id or an HC-s path
    query.  Nodes order by position.
    """

    __slots__ = ()

    def __new__(cls, position: int) -> "QueryNode":
        return tuple.__new__(cls, (position, _QueryTag.QUERY))

    position = property(itemgetter(0), doc="The query's batch position.")

    def __getnewargs__(self):
        return (self[0],)

    def __repr__(self) -> str:
        return f"QueryNode(position={self[0]!r})"

    def __str__(self) -> str:
        return f"Q#{self[0]}"


#: Ψ nodes are either HC-s-t query markers or HC-s path queries.
NodeType = Union[QueryNode, HCsPathQuery]


class QuerySharingGraph:
    """Directed acyclic graph of computation-sharing relations."""

    def __init__(self, direction: Direction) -> None:
        self.direction = direction
        self._out: Dict[NodeType, List[NodeType]] = {}
        self._in: Dict[NodeType, List[NodeType]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeType) -> None:
        if isinstance(node, HCsPathQuery) and node.direction is not self.direction:
            raise ValueError(
                f"node {node} has direction {node.direction}, expected {self.direction}"
            )
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []

    def add_edge(self, provider: NodeType, consumer: NodeType) -> None:
        """Add the edge ``provider -> consumer``.

        Raises ``ValueError`` if the edge would introduce a cycle; duplicate
        edges are ignored.
        """
        require(provider != consumer, "a query cannot provide for itself")
        self.add_node(provider)
        self.add_node(consumer)
        if consumer in self._out[provider]:
            return
        if self.would_create_cycle(provider, consumer):
            raise ValueError(f"edge {provider} -> {consumer} would create a cycle in Ψ")
        self._out[provider].append(consumer)
        self._in[consumer].append(provider)

    def would_create_cycle(self, provider: NodeType, consumer: NodeType) -> bool:
        """True if adding ``provider -> consumer`` closes a cycle, i.e. if
        ``provider`` is already reachable from ``consumer``."""
        if provider not in self._out or consumer not in self._out:
            return False
        stack = [consumer]
        visited: Set[NodeType] = set()
        while stack:
            node = stack.pop()
            if node == provider:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(self._out[node])
        return False

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeType) -> bool:
        return node in self._out

    def nodes(self) -> Iterator[NodeType]:
        return iter(self._out)

    def providers_of(self, node: NodeType) -> List[NodeType]:
        """In-neighbours: the HC-s path queries whose results ``node`` reuses."""
        return list(self._in.get(node, []))

    def consumers_of(self, node: NodeType) -> List[NodeType]:
        """Out-neighbours: the queries that reuse ``node``'s results."""
        return list(self._out.get(node, []))

    def hc_s_path_nodes(self) -> List[HCsPathQuery]:
        return [node for node in self._out if isinstance(node, HCsPathQuery)]

    def query_nodes(self) -> List[QueryNode]:
        return [node for node in self._out if isinstance(node, QueryNode)]

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return sum(len(targets) for targets in self._out.values())

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[NodeType]:
        """Kahn topological order: providers before their consumers.

        Deterministic: ties are broken by node ordering so repeated runs
        enumerate in the same order.
        """
        in_degree = {node: len(self._in[node]) for node in self._out}
        ready = sorted(
            (node for node, degree in in_degree.items() if degree == 0),
            key=_node_sort_key,
        )
        order: List[NodeType] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            newly_ready: List[NodeType] = []
            for consumer in self._out[node]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    newly_ready.append(consumer)
            if newly_ready:
                ready.extend(newly_ready)
                ready.sort(key=_node_sort_key)
        require(
            len(order) == len(self._out),
            "Ψ contains a cycle; the detection phase should never produce one",
        )
        return order

    def is_dag(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"QuerySharingGraph({self.direction.value}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def _node_sort_key(node: NodeType):
    if isinstance(node, HCsPathQuery):
        return (0, node.vertex, node.budget)
    return (1, node.position, 0)
