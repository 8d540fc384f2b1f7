"""Workload generation.

Two generators:

* :func:`generate_random_queries` — the paper's default protocol (Section V,
  "Settings"): random ``(s, t)`` pairs such that ``t`` is reachable from
  ``s`` within ``k`` hops, with ``k`` drawn uniformly from a range.
* :func:`generate_similar_workload` — the Exp-1 protocol: produce a batch
  whose *average pairwise similarity* µ_Q is close to a requested target by
  mixing "anchored" queries (sources/targets drawn from a small
  neighbourhood so their hop-constrained neighbourhoods overlap heavily)
  with fully random queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bfs.single_source import bfs_distances
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery
from repro.queries.workload import QueryWorkload
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a generated workload (recorded with experiment output)."""

    size: int
    min_k: int
    max_k: int
    seed: int
    target_similarity: Optional[float] = None
    achieved_similarity: Optional[float] = None


def generate_random_queries(
    graph: DiGraph,
    count: int,
    min_k: int = 4,
    max_k: int = 7,
    seed: int = 0,
) -> List[HCSTQuery]:
    """Random reachable queries: ``s`` uniform, ``k`` uniform in
    ``[min_k, max_k]``, ``t`` uniform among vertices reachable from ``s``
    within ``k`` hops (excluding ``s``)."""
    require_positive(count, "count")
    require(1 <= min_k <= max_k, "need 1 <= min_k <= max_k")
    require(graph.num_vertices >= 2, "graph must have at least two vertices")
    rng = random.Random(seed)
    queries: List[HCSTQuery] = []
    attempts = 0
    max_attempts = 500 * count
    while len(queries) < count and attempts < max_attempts:
        attempts += 1
        s = rng.randrange(graph.num_vertices)
        k = rng.randint(min_k, max_k)
        reachable = bfs_distances(graph, s, max_hops=k)
        reachable.pop(s, None)
        if not reachable:
            continue
        t = rng.choice(sorted(reachable))
        queries.append(HCSTQuery(s=s, t=t, k=k))
    require(
        len(queries) == count,
        "failed to generate the requested number of reachable queries; "
        "the graph may be too sparse or disconnected",
    )
    return queries


def generate_similar_workload(
    graph: DiGraph,
    count: int,
    target_similarity: float,
    min_k: int = 4,
    max_k: int = 7,
    seed: int = 0,
    measure: bool = True,
) -> Tuple[List[HCSTQuery], WorkloadSpec]:
    """Generate a workload whose average pairwise similarity µ_Q is close to
    ``target_similarity`` (Exp-1 varies this from 0 % to 90 %).

    Strategy: a fraction ``target_similarity`` of the queries are *anchored*
    — their sources are drawn from the 1-hop out-neighbourhood of a single
    anchor source and their targets from the 1-hop in-neighbourhood of a
    single anchor target, so their Γ/Γr sets overlap almost entirely.  The
    remaining queries are independent random queries.  The achieved µ_Q is
    measured (unless ``measure=False``) and recorded in the returned spec.
    """
    require_positive(count, "count")
    require(0.0 <= target_similarity <= 1.0, "target_similarity must be in [0, 1]")
    rng = random.Random(seed)

    # The average pairwise similarity of a batch made of g groups of m
    # near-identical queries (and negligible cross-group similarity) is
    # roughly (m - 1) / (count - 1), so the group size is chosen to hit the
    # requested target.  Within a group the queries share their source and
    # draw targets from a small pool around a common anchor target, which
    # is also the realistic "burst of related queries" scenario from the
    # paper's motivating applications.
    if count == 1 or target_similarity == 0.0:
        group_size = 1
    else:
        group_size = max(1, int(round(target_similarity * (count - 1))) + 1)
    group_size = min(group_size, count)

    queries: List[HCSTQuery] = []
    while len(queries) < count:
        remaining = count - len(queries)
        size = min(group_size, remaining)
        if size <= 1:
            queries.extend(
                generate_random_queries(
                    graph, remaining, min_k=min_k, max_k=max_k,
                    seed=rng.randrange(2**30),
                )
            )
            break
        queries.extend(_group_queries(graph, size, min_k, max_k, rng))
    rng.shuffle(queries)

    achieved: Optional[float] = None
    if measure and len(queries) >= 2:
        achieved = QueryWorkload(graph, queries).similarity_matrix.average()
    spec = WorkloadSpec(
        size=count,
        min_k=min_k,
        max_k=max_k,
        seed=seed,
        target_similarity=target_similarity,
        achieved_similarity=achieved,
    )
    return queries, spec


def _group_queries(
    graph: DiGraph,
    count: int,
    min_k: int,
    max_k: int,
    rng: random.Random,
) -> List[HCSTQuery]:
    """A group of ``count`` queries sharing one source and near-identical
    targets, so their hop-constrained neighbourhoods overlap almost fully."""
    anchor = _find_anchor_pair(graph, min_k, rng)
    require(anchor is not None, "could not find a reachable anchor pair")
    anchor_s, anchor_t = anchor

    # Targets near the anchor target that are still reachable from the
    # anchor source within the smallest hop constraint in play.
    reachable = bfs_distances(graph, anchor_s, max_hops=min_k)
    target_pool = [anchor_t] + [
        v
        for v in list(graph.out_neighbors(anchor_t)) + list(graph.in_neighbors(anchor_t))
        if v != anchor_s and v in reachable
    ]

    queries: List[HCSTQuery] = []
    while len(queries) < count:
        t = target_pool[len(queries) % len(target_pool)]
        k = rng.randint(min_k, max_k)
        queries.append(HCSTQuery(s=anchor_s, t=t, k=k))
    return queries


def _find_anchor_pair(
    graph: DiGraph, max_k: int, rng: random.Random
) -> Optional[Tuple[int, int]]:
    """Find an (s, t) pair with t several hops from s (but within max_k)."""
    best: Optional[Tuple[int, int]] = None
    best_distance = -1
    for _ in range(200):
        s = rng.randrange(graph.num_vertices)
        distances = bfs_distances(graph, s, max_hops=max_k)
        distances.pop(s, None)
        if not distances:
            continue
        # Prefer a target a few hops away so the query has interesting paths.
        t, distance = max(distances.items(), key=lambda item: (item[1], -item[0]))
        if distance > best_distance:
            best = (s, t)
            best_distance = distance
        if best_distance >= max(2, max_k - 2):
            break
    return best


def queries_to_triples(queries: Sequence[HCSTQuery]) -> List[Tuple[int, int, int]]:
    """Convert query objects to raw ``(s, t, k)`` triples."""
    return [(q.s, q.t, q.k) for q in queries]


def triples_to_queries(triples: Sequence[Tuple[int, int, int]]) -> List[HCSTQuery]:
    """Convert raw ``(s, t, k)`` triples to query objects."""
    return [HCSTQuery(s=s, t=t, k=k) for s, t, k in triples]
