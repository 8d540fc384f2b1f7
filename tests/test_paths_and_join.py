"""Unit tests for path primitives and the ⊕ join."""

from collections.abc import Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.batch import batch_enum
from repro.batch.batch_enum import BatchEnum
from repro.enumeration.join import JunctionIndex, PathJoinPolicy, join_path_sets
from repro.enumeration.paths import (
    concatenate,
    is_simple,
    path_length,
    reverse_path,
    sort_paths,
    validate_path,
)
from repro.graph.digraph import DiGraph
from repro.queries.query import HCSTQuery


def test_path_length_and_simplicity():
    assert path_length((0, 1, 2)) == 2
    assert is_simple((0, 1, 2))
    assert not is_simple((0, 1, 0))


def test_concatenate_requires_matching_junction():
    assert concatenate((0, 1), (1, 2, 3)) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        concatenate((0, 1), (2, 3))
    with pytest.raises(ValueError):
        concatenate((), (1,))


def test_reverse_path():
    assert reverse_path((0, 1, 2)) == (2, 1, 0)


def test_validate_path_accepts_valid_and_rejects_invalid():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    validate_path(graph, (0, 1, 2), s=0, t=2, k=2)
    with pytest.raises(AssertionError):
        validate_path(graph, (0, 1, 2), s=0, t=2, k=1)     # too long
    with pytest.raises(AssertionError):
        validate_path(graph, (0, 2), s=0, t=2, k=2)        # missing edge
    with pytest.raises(AssertionError):
        validate_path(graph, (1, 2), s=0, t=2, k=2)        # wrong source


def test_sort_paths_is_canonical():
    paths = [(0, 2, 3), (0, 1), (0, 1, 3)]
    assert sort_paths(paths) == [(0, 1), (0, 1, 3), (0, 2, 3)]


def test_join_short_path_uses_forward_complete_case():
    # Path 0 -> 3 of length 1 must come from the forward side only.
    forward = [(0,), (0, 3), (0, 1)]
    backward = [(3,), (3, 1)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=1)
    joined = join_path_sets(forward, backward, target=3, policy=policy)
    assert (0, 3) in joined


def test_join_produces_no_duplicates_for_multi_split_paths():
    # The path 0-1-3 (length 2 <= forward budget) could also be formed by
    # joining prefix (0, 1) with suffix (1, 3); the split rule must emit it
    # exactly once.
    forward = [(0,), (0, 1), (0, 1, 3)]
    backward = [(3,), (3, 1)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=1)
    joined = join_path_sets(forward, backward, target=3, policy=policy)
    assert joined.count((0, 1, 3)) == 1


def test_join_connects_forward_and_backward_halves():
    # forward: 0 -> 1 -> 2 (budget 2); backward from 4 on Gr: 4 <- 3 <- 2.
    forward = [(0, 1, 2)]
    backward = [(4, 3, 2)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    joined = join_path_sets(forward, backward, target=4, policy=policy)
    assert joined == [(0, 1, 2, 3, 4)]


def test_join_rejects_non_simple_combinations():
    forward = [(0, 1, 2)]
    backward = [(4, 1, 2)]  # re-orients to 2 -> 1 -> 4, repeating vertex 1
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    assert join_path_sets(forward, backward, target=4, policy=policy) == []


def test_join_respects_budgets():
    # Forward paths longer than the forward budget must be ignored.
    forward = [(0, 1, 2, 3)]
    backward = [(5, 4, 3)]
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    assert join_path_sets(forward, backward, target=5, policy=policy) == []


def test_join_policy_hop_constraint():
    assert PathJoinPolicy(3, 2).hop_constraint == 5


# ---------------------------------------------------------------------- #
# The junction-indexed join against the nested loop it replaced
# ---------------------------------------------------------------------- #
def reference_join(forward_paths, backward_paths, target, policy):
    """The scan-everything ⊕ join that ``join_path_sets`` used to be: every
    forward path is visited and every output is tested for simplicity and
    duplication on its own.  Kept as the oracle for content *and* order."""
    results = []
    forward_budget = policy.forward_budget
    backward_budget = policy.backward_budget

    suffix_by_junction = {}
    for backward in backward_paths:
        length = len(backward) - 1
        if length < 1 or length > backward_budget:
            continue
        junction = backward[-1]
        suffix = tuple(reversed(tuple(backward)))
        suffix_by_junction.setdefault(junction, []).append(suffix)

    seen = set()
    for forward in forward_paths:
        forward = tuple(forward)
        length = len(forward) - 1
        if length > forward_budget:
            continue
        if forward[-1] == target:
            if forward not in seen and is_simple(forward) and length >= 1:
                seen.add(forward)
                results.append(forward)
            continue
        if length != forward_budget:
            continue
        junction = forward[-1]
        for suffix in suffix_by_junction.get(junction, ()):
            combined = forward + suffix[1:]
            if combined[-1] != target:
                continue
            if not is_simple(combined):
                continue
            if combined not in seen:
                seen.add(combined)
                results.append(combined)
    return results


@st.composite
def join_inputs(draw):
    """Arbitrary join inputs over five vertices: duplicate, non-simple and
    over-budget paths, backward paths that do not start at the target and
    junctions equal to the target all occur."""
    k = draw(st.integers(min_value=2, max_value=6))
    forward_budget = draw(st.integers(min_value=1, max_value=k - 1))
    vertex = st.integers(min_value=0, max_value=4)
    target = draw(vertex)
    path = st.lists(vertex, min_size=1, max_size=k + 1).map(tuple)
    from_target = path.map(lambda rest: (target,) + rest)
    forward = draw(st.lists(path, max_size=16))
    backward = draw(st.lists(st.one_of(from_target, path), max_size=16))
    return forward, backward, target, PathJoinPolicy(forward_budget, k - forward_budget)


@given(join_inputs())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_join_equals_the_nested_loop_on_arbitrary_inputs(inputs):
    forward, backward, target, policy = inputs
    expected = reference_join(forward, backward, target, policy)
    assert join_path_sets(forward, backward, target, policy) == expected
    assert join_path_sets(JunctionIndex(forward), backward, target, policy) == expected


def _fan_out(source, k=5):
    """One query from ``source`` to every other vertex of the Fig. 1 graph."""
    return [HCSTQuery(source, t, k) for t in range(16) if t != source]


def test_shared_root_joins_equal_the_nested_loop(paper_graph, monkeypatch):
    """γ = 0 puts the fan-out in one cluster, where all fifteen targets are
    served by the single forward root q[0, 3, G]."""
    joins = []

    def checked_join(forward, backward, target, policy):
        joined = join_path_sets(forward, backward, target, policy)
        assert isinstance(forward, JunctionIndex)
        assert joined == reference_join(forward.paths, backward, target, policy)
        joins.append((id(forward), target, len(joined)))
        return joined

    monkeypatch.setattr(batch_enum, "join_path_sets", checked_join)
    result = BatchEnum(paper_graph, gamma=0.0).run(_fan_out(0))
    assert len({root for root, _, _ in joins}) == 1
    assert len({target for _, target, _ in joins}) == 15
    assert sum(1 for _, _, emitted in joins if emitted) >= 3
    assert sum(emitted for _, _, emitted in joins) == result.total_paths() == 21


class CountingIndex(JunctionIndex):
    built = 0

    def __init__(self, paths):
        type(self).built += 1
        super().__init__(paths)


def test_shared_root_is_indexed_once_and_joined_once_per_target(
    paper_graph, monkeypatch
):
    joins = []

    def counted_join(*args):
        joins.append(args)
        return join_path_sets(*args)

    monkeypatch.setattr(CountingIndex, "built", 0)
    monkeypatch.setattr(batch_enum, "JunctionIndex", CountingIndex)
    monkeypatch.setattr(batch_enum, "join_path_sets", counted_join)
    queries = _fan_out(0)
    # A repeated query shares its first occurrence's join.
    BatchEnum(paper_graph, gamma=0.0).run(queries + queries[:4])
    assert CountingIndex.built == 1
    assert len(joins) == len(queries) == 15


class CountingPaths(Sequence):
    """A path result that counts how often a path is read."""

    def __init__(self, paths):
        self._paths = list(paths)
        self.reads = 0

    def __len__(self):
        return len(self._paths)

    def __getitem__(self, ordinal):
        self.reads += 1
        return self._paths[ordinal]


def test_probe_reads_only_the_paths_filed_under_its_junctions():
    forward = CountingPaths([(0, 1, 2), (0, 1, 3), (0, 4, 2), (0, 4, 5)])
    index = JunctionIndex(forward)
    policy = PathJoinPolicy(forward_budget=2, backward_budget=2)
    forward.reads = 0

    # Junctions 6 and 7 end no forward path, and none reaches the target.
    assert join_path_sets(index, [(9,), (9, 6), (9, 8, 7)], 9, policy) == []
    assert forward.reads == 0

    # Junction 2 ends two of the four; the other two stay unread.
    joined = join_path_sets(index, [(9, 2), (9, 8, 2)], 9, policy)
    assert joined == [(0, 1, 2, 9), (0, 1, 2, 8, 9), (0, 4, 2, 9), (0, 4, 2, 8, 9)]
    assert forward.reads == 2
