"""Algorithm 3 — ``DetectCommonQuery``: dominating HC-s path query detection.

For one cluster of HC-s-t path queries and one direction (forward on ``G``
or backward on ``Gr``), the detection simulates the first levels of every
query's HC-s path enumeration as a joint frontier expansion.  Whenever
several queries reach the same vertex ``v`` with the same remaining hop
budget ``b``, the continuation of all of them is the same set of paths — the
HC-s path query ``q_{v,b}`` — so a single *provider* node is recorded in the
query sharing graph Ψ and every participating query becomes its consumer.
Additionally, when a query's frontier reaches a vertex ``v`` on which a
HC-s path query with a hop budget at least as large has already been
identified (``MQ[v]``), the existing query is reused as the provider
(cross-budget sharing, the ``q_{v12,2}`` / ``q_{v12,1}`` example of
Fig. 5(b)).

Differences from the paper's pseudo-code, for correctness of the later
materialisation step:

* ``MQ[v]`` only ever stores HC-s path queries *rooted at* ``v`` — a
  provider can only be spliced into another enumeration at the vertex it
  starts from, so recording pass-through queries in ``MQ`` (Algorithm 3
  line 15 when the single query is rooted elsewhere) would create edges
  that the enumeration could never use.
* an edge is only added when it keeps Ψ acyclic and when the provider's
  hop budget covers the consumer's remaining need; otherwise the frontier
  simply keeps extending.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.batch.sharing_graph import QueryNode, QuerySharingGraph
from repro.bfs.distance_index import CSRDistanceIndex
from repro.enumeration.hc_s_search import DistanceRow, admissibility
from repro.graph.digraph import DiGraph
from repro.queries.query import Direction, HCSTQuery, HCsPathQuery
from repro.utils.validation import require


@dataclass
class DetectionOutcome:
    """Result of running the detection for one cluster and one direction."""

    direction: Direction
    sharing_graph: QuerySharingGraph
    root_by_position: Dict[int, HCsPathQuery]
    budget_by_position: Dict[int, int]
    served_queries: Dict[HCsPathQuery, Set[int]]
    queries_by_position: Dict[int, HCSTQuery]
    index: CSRDistanceIndex = field(repr=False)
    _admissibility: Dict[HCsPathQuery, tuple] = field(
        default_factory=dict, repr=False, init=False
    )

    @property
    def num_shared_nodes(self) -> int:
        """HC-s path query nodes whose results are reused at least twice."""
        count = 0
        for node in self.sharing_graph.hc_s_path_nodes():
            if len(self.sharing_graph.consumers_of(node)) >= 2:
                count += 1
        return count

    def distance_rows(self, node: HCsPathQuery) -> List[DistanceRow]:
        """The ``(dense row toward the other endpoint, root budget + 1 - k)``
        pair of every query ``node`` serves — what its enumeration prunes
        with (:mod:`repro.enumeration.hc_s_search` derives the rule).
        Duplicates (same endpoint, same slack) collapse to one entry so
        batches with repeated queries pay for one check."""
        forward = self.direction is Direction.FORWARD
        unique = set()
        for position in self.served_queries.get(node, ()):
            query = self.queries_by_position[position]
            endpoint = query.t if forward else query.s
            unique.add((endpoint, self.budget_by_position[position] + 1 - query.k))
        dense = self.index.dense_to if forward else self.index.dense_from
        return [(dense(endpoint), slack) for endpoint, slack in sorted(unique)]

    def admissibility(self, node: HCsPathQuery) -> tuple:
        """``node``'s ``(need, shift)`` — see
        :func:`repro.enumeration.hc_s_search.admissibility` — kept until
        :meth:`invalidate_need` drops it."""
        if node not in self._admissibility:
            self._admissibility[node] = admissibility(self.distance_rows(node))
        return self._admissibility[node]

    def invalidate_need(self, node: HCsPathQuery) -> None:
        """Drop the memoised needs of ``node`` (its served set changed)."""
        self._admissibility.pop(node, None)


def detect_common_queries(
    graph: DiGraph,
    queries_by_position: Dict[int, HCSTQuery],
    direction: Direction,
    index: CSRDistanceIndex,
    budget_by_position: Dict[int, int],
    max_depth: Optional[int] = None,
) -> DetectionOutcome:
    """Run Algorithm 3 for one cluster in one direction.

    Parameters
    ----------
    graph:
        The data graph ``G``, read through its sealed CSR snapshot — the
        same rows the enumeration hot loops scan (the reverse
        direction walks in-neighbours, so ``Gr`` is never materialised).
    queries_by_position:
        The cluster's queries keyed by their position in the batch.
    direction:
        FORWARD detects sharing among the source-side HC-s path queries,
        BACKWARD among the target-side ones.
    index:
        Batch distance index (used for admissibility pruning).
    budget_by_position:
        Hop budget of each query's root HC-s path query in this direction
        (``⌈k/2⌉`` / ``⌊k/2⌋`` by default, possibly rebalanced by the "+"
        search-order optimiser).
    max_depth:
        Cap on how many hops beyond the root vertices the joint frontier is
        expanded.  The paper expands to the full half-budget; in pure Python
        the expansion itself costs a noticeable fraction of the enumeration
        it is trying to save, and almost all of the sharing value sits in
        the first hops (queries with identical or adjacent endpoints), so
        the engine defaults to a depth of 1
        (``batch_enum.DEFAULT_MAX_DETECTION_DEPTH``).  ``None`` means
        unbounded, exactly as in Algorithm 3.
    """
    require(bool(queries_by_position), "cluster must contain at least one query")
    forward = direction is Direction.FORWARD
    psi = QuerySharingGraph(direction)
    served: Dict[HCsPathQuery, Set[int]] = defaultdict(set)
    root_by_position: Dict[int, HCsPathQuery] = {}

    outcome = DetectionOutcome(
        direction=direction,
        sharing_graph=psi,
        root_by_position=root_by_position,
        budget_by_position=dict(budget_by_position),
        served_queries=served,
        queries_by_position=dict(queries_by_position),
        index=index,
    )

    # ME: frontier entries per vertex -> list of (node, remaining budget).
    frontier: Dict[int, List[Tuple[HCsPathQuery, int]]] = defaultdict(list)
    # MQ: the HC-s path query rooted at a vertex with the largest budget.
    rooted_query: Dict[int, HCsPathQuery] = {}

    for position, query in queries_by_position.items():
        start = query.s if forward else query.t
        budget = budget_by_position[position]
        root = HCsPathQuery(start, budget, direction)
        psi.add_node(root)
        psi.add_edge(root, QueryNode(position))
        served[root].add(position)
        root_by_position[position] = root
        frontier[start].append((root, budget))

    neighbors = graph.csr_snapshot().adjacency_lists(forward).__getitem__
    max_budget = max(budget_by_position.values(), default=0)
    min_budget_considered = 0 if max_depth is None else max(0, max_budget - max_depth)

    def propagate_served(node: HCsPathQuery, positions: Set[int]) -> None:
        """Add ``positions`` to ``node``'s served set and to every provider
        it (transitively) consumes from — their results flow into these
        queries as well, so their pruning must keep the relevant paths."""
        pending = [node]
        while pending:
            current = pending.pop()
            before = len(served[current])
            served[current] |= positions
            if len(served[current]) != before:
                outcome.invalidate_need(current)
            elif current is not node:
                continue
            for provider in psi.providers_of(current):
                if isinstance(provider, HCsPathQuery):
                    pending.append(provider)

    def try_reuse(provider: HCsPathQuery, consumer: HCsPathQuery, needed: int) -> bool:
        """Attach ``consumer`` to ``provider`` if the provider's budget covers
        ``needed`` hops and the edge keeps Ψ acyclic."""
        if provider is consumer or provider == consumer:
            return False
        if provider.budget < needed:
            return False
        if psi.would_create_cycle(provider, consumer):
            return False
        psi.add_edge(provider, consumer)
        propagate_served(provider, served[consumer])
        return True

    def extend(node: HCsPathQuery, vertex: int, remaining: int) -> None:
        """Propagate ``node``'s frontier from ``vertex`` with ``remaining``
        hops of budget left (Algorithm 3 lines 20-24)."""
        if remaining <= 0:
            return
        # Read once per call: the try_reuse below can only grow the served
        # sets of ``existing`` and of what it transitively consumes from,
        # and would_create_cycle rejects an ``existing`` that consumes from
        # ``node`` — so ``node``'s own served set cannot change in this loop.
        need, shift = outcome.admissibility(node)
        limit = remaining - shift
        for neighbor in neighbors(vertex):
            if need[neighbor] > limit:
                continue
            existing = rooted_query.get(neighbor)
            if existing is not None and try_reuse(existing, node, remaining - 1):
                continue
            if remaining - 1 >= 1:
                frontier[neighbor].append((node, remaining - 1))

    for budget in range(max_budget, min_budget_considered, -1):
        # Sharing can only be detected while at least two distinct queries
        # still have frontier entries; once a single query remains, further
        # expansion cannot discover new common HC-s path queries, so the
        # detection stops early (this keeps the "light-weight" promise for
        # batches of duplicated or fully-absorbed queries).
        active_nodes = {
            node for entries in frontier.values() for node, _ in entries
        }
        if len(active_nodes) <= 1:
            break

        # Collect, per vertex, the unique nodes whose frontier sits at this
        # remaining budget (Algorithm 3 lines 7-11).
        current_level: Dict[int, List[HCsPathQuery]] = {}
        for vertex in sorted(frontier):
            entries = frontier[vertex]
            matching: List[HCsPathQuery] = []
            seen_here: Set[HCsPathQuery] = set()
            rest: List[Tuple[HCsPathQuery, int]] = []
            for node, node_budget in entries:
                if node_budget == budget:
                    if node not in seen_here:
                        seen_here.add(node)
                        matching.append(node)
                else:
                    rest.append((node, node_budget))
            if matching:
                frontier[vertex] = rest
                current_level[vertex] = matching

        for vertex in sorted(current_level):
            nodes_here = current_level[vertex]
            rooted_here = [
                node
                for node in nodes_here
                if node.vertex == vertex and node.budget == budget
            ]
            existing = rooted_query.get(vertex)

            if len(nodes_here) == 1:
                node = nodes_here[0]
                if rooted_here:
                    # The node's own enumeration starts here.  An earlier
                    # (larger-budget) HC-s path query rooted at this vertex
                    # covers it entirely (same-source different-budget
                    # sharing); otherwise it becomes MQ[v] and extends.
                    if existing is not None and try_reuse(existing, node, budget):
                        continue
                    if existing is None or existing.budget < budget:
                        rooted_query[vertex] = node
                    extend(node, vertex, budget)
                else:
                    # A single query passing through: reuse MQ[v] if it
                    # covers the remaining need, otherwise keep extending.
                    if existing is not None and try_reuse(existing, node, budget):
                        continue
                    extend(node, vertex, budget)
                continue

            # Several queries meet here with the same remaining budget
            # (Algorithm 3 lines 16-19): choose or create the provider.
            all_positions: Set[int] = set()
            for node in nodes_here:
                all_positions |= served[node]

            if existing is not None and existing.budget >= budget:
                provider = existing
                newly_created = False
            elif rooted_here:
                provider = rooted_here[0]
                newly_created = False
                rooted_query[vertex] = provider
            else:
                provider = HCsPathQuery(vertex, budget, direction)
                psi.add_node(provider)
                newly_created = True
                rooted_query[vertex] = provider

            for node in nodes_here:
                if node is provider:
                    continue
                if not try_reuse(provider, node, budget):
                    # Extremely rare (cycle guard): fall back to extending
                    # this query on its own.
                    extend(node, vertex, budget)
            propagate_served(provider, all_positions)

            if newly_created or (rooted_here and provider is rooted_here[0]):
                extend(provider, vertex, budget)
            # When the provider pre-existed, its own (earlier, larger
            # budget) extension already covered the deeper levels.

    return outcome
