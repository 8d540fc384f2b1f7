"""Search-order optimisation for the "+" algorithm variants.

PathEnum's optimised variant chooses how to divide the hop budget between
the forward search on ``G`` and the backward search on ``Gr`` based on an
estimate of how much work each side will do; the paper's ``BasicEnum+`` and
``BatchEnum+`` inherit this optimisation (Section V, "Algorithms").

The estimator uses the per-level frontier sizes available from the distance
index: giving one more hop to the side whose frontier grows more slowly
reduces the number of partial paths that have to be materialised before the
join.  Any split is *correct* (the join policy adapts), so this module only
affects performance.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.bfs.distance_index import CSRDistanceIndex
from repro.queries.query import HCSTQuery


def estimate_side_cost(level_sizes: Iterable[int]) -> float:
    """Rough cost of enumerating all prefixes down to the deepest level.

    Models the partial-path count as the running product of average
    branching per level, which over-penalises explosive frontiers — exactly
    the behaviour we want when deciding which side should receive the extra
    hop of an odd budget.
    """
    sizes = [size for size in level_sizes]
    if not sizes:
        return 0.0
    cost = 0.0
    partial_paths = 1.0
    for depth in range(1, len(sizes)):
        branching = sizes[depth] / max(sizes[depth - 1], 1)
        partial_paths *= max(branching, 1.0)
        cost += partial_paths + sizes[depth]
    return cost


def choose_budget_split(
    query: HCSTQuery, index: CSRDistanceIndex
) -> Tuple[int, int]:
    """Choose ``(forward_budget, backward_budget)`` for ``query``.

    Candidates are the balanced split and its two neighbours; the pair with
    the lowest combined estimated cost wins.  Ties fall back to the paper's
    default ``(⌈k/2⌉, ⌊k/2⌋)``.
    """
    k = query.k
    default_forward = query.forward_budget
    candidates = sorted(
        {
            default_forward,
            max(1, default_forward - 1),
            min(k - 1, default_forward + 1) if k > 1 else default_forward,
        }
    )
    # One read per side, down to the deepest level any candidate needs;
    # each candidate prices a prefix of it.
    forward_sizes = index.forward_level_sizes(query.s, candidates[-1])
    backward_sizes = index.backward_level_sizes(query.t, k - candidates[0])
    best_split = (default_forward, k - default_forward)
    best_cost = float("inf")
    for forward_budget in candidates:
        backward_budget = k - forward_budget
        forward_cost = estimate_side_cost(forward_sizes[: forward_budget + 1])
        backward_cost = estimate_side_cost(backward_sizes[: backward_budget + 1])
        total = forward_cost + backward_cost
        if total < best_cost - 1e-12:
            best_cost = total
            best_split = (forward_budget, backward_budget)
    return best_split
