"""PathEnum — index-based bidirectional HC-s-t path enumeration.

Re-implementation of the single-query state of the art [Sun et al.,
SIGMOD'21] as described in Section III of the batch paper:

1. Build a light-weight index holding ``dist_G(s, v)`` and ``dist_G(v, t)``
   for every vertex within the hop constraint (two hop-bounded BFS
   traversals, or a shared batch index when processing a batch).
2. Run a *backward* search from ``t`` on ``Gr`` with hop budget ``⌊k/2⌋``
   and a *forward* search from ``s`` on ``G`` with hop budget ``⌈k/2⌉``.
   Lemma 3.1 prunes every neighbour that cannot reach the other endpoint
   within the remaining budget.
3. Concatenate the two partial-path sets with the ``⊕`` hash join and keep
   the simple concatenations: the backward paths, the small side, are
   hashed by junction and the forward search probes them as it runs, so
   the forward paths are never stored.

The class can operate standalone (it builds its own per-query index) or on
top of a shared :class:`~repro.bfs.distance_index.CSRDistanceIndex`, which is
how :class:`~repro.batch.batch_enum.BatchEnum` answers a cluster of one —
every query of ``basic``/``basic+``, which run it with clustering off.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.bfs.distance_index import CSRDistanceIndex, build_index
from repro.enumeration.hc_s_search import search_hc_s_paths
from repro.enumeration.join import JoinProbe, PathJoinPolicy, join_path_sets
from repro.enumeration.paths import Path
from repro.enumeration.search_order import choose_budget_split, mean_degree_of
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.utils.validation import require_vertex


class PathEnum:
    """Single-query HC-s-t path enumerator.

    Parameters
    ----------
    graph:
        The directed graph.
    index:
        Optional pre-built (batch) distance index covering the query's
        source and target; when omitted a per-query index is built on
        demand, which is what the standalone PathEnum baseline does.
    optimize_search_order:
        Enable the "+" search-order optimisation (adaptive forward/backward
        budget split).
    """

    def __init__(
        self,
        graph: DiGraph,
        index: Optional[CSRDistanceIndex] = None,
        optimize_search_order: bool = False,
    ) -> None:
        self.graph = graph
        self.index = index
        self.optimize_search_order = optimize_search_order

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def enumerate(self, query: HCSTQuery) -> List[Path]:
        """Enumerate all HC-s-t simple paths of ``query``."""
        require_vertex(query.s, self.graph.num_vertices, "query source")
        require_vertex(query.t, self.graph.num_vertices, "query target")
        index = self._index_for(query)
        if index.dist_from(query.s, query.t) > query.k:
            return []

        if self.optimize_search_order:
            forward_budget = choose_budget_split(
                [query], index, mean_degree_of(self.graph)
            )[query.k]
        else:
            forward_budget = query.forward_budget
        backward_budget = query.k - forward_budget
        policy = PathJoinPolicy(
            forward_budget=forward_budget, backward_budget=backward_budget
        )

        backward_paths = self._search(
            query, index, forward=False, budget=backward_budget
        )
        forward = partial(self._search, query, index, True, forward_budget)
        return join_path_sets(forward, [(backward_paths, query.t, policy)])[0]

    def count(self, query: HCSTQuery) -> int:
        """Number of HC-s-t simple paths of ``query``."""
        return len(self.enumerate(query))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _index_for(self, query: HCSTQuery) -> CSRDistanceIndex:
        """Return an index covering the query, building one if necessary."""
        index = self.index
        if (
            index is not None
            and index.has_source(query.s)
            and index.has_target(query.t)
            and index.max_hops >= query.k
        ):
            return index
        return build_index(self.graph, [query.s], [query.t], query.k)

    def _search(
        self,
        query: HCSTQuery,
        index: CSRDistanceIndex,
        forward: bool,
        budget: int,
        probe: Optional[JoinProbe] = None,
    ) -> List[Path]:
        """Collect the partial paths of one direction; with ``probe`` the
        forward search joins them as it finds them and returns none.

        Forward direction: paths from ``s`` on ``G``; a path is collected
        when it either reaches ``t`` (complete result candidate) or has
        length exactly ``budget`` (join candidate).  Backward direction:
        paths from ``t`` on ``Gr`` of length 1..budget (join candidates).
        Pruning follows Lemma 3.1 — a neighbour is only explored when the
        hops already used plus its distance to the *other* endpoint still
        fit within ``k``.

        This is the shared HC-s path search run for one query with no
        provider, under the two single-query rules: the trivial path is
        not collected and the other endpoint is never passed through.
        """
        if forward:
            start, other_end = query.s, query.t
            row = index.dense_to(query.t)
        else:
            start, other_end = query.t, query.s
            row = index.dense_from(query.s)
        return search_hc_s_paths(
            self.graph.csr_snapshot().adjacency_lists(forward),
            start,
            budget,
            [(row, budget + 1 - query.k)],
            (other_end,),
            False,
            forward,
            record_root=False,
            stop_at=other_end,
            probe=probe,
        )


def enumerate_paths(
    graph: DiGraph,
    s: int,
    t: int,
    k: int,
    optimize_search_order: bool = False,
) -> List[Path]:
    """Convenience wrapper: enumerate the HC-s-t simple paths of one query."""
    enumerator = PathEnum(graph, optimize_search_order=optimize_search_order)
    return enumerator.enumerate(HCSTQuery(s=s, t=t, k=k))
