"""Differential suite: array-backed CSRDistanceIndex ≡ the BFS dicts.

The reference is one sparse ``bfs_distances`` dict per endpoint read through
``DictIndexOracle`` (``tests/dict_index_oracle.py``); this suite pins the
index to it on random graphs and workloads — lookups, neighbourhoods,
level sizes, masks, entry counts — plus the pickle round-trip that carries
a parent-built index, levels included, to workers the parallel executor
spawns, the range checking that distinguishes "unreachable" from "not a
vertex of this snapshot", and the BFS levels every whole-row reader answers
from: however an index came to be (built, copied, pickled, delta-repaired)
the levels of each row equal a brute scan of its dense distances.
"""

from __future__ import annotations

import math
import pickle
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from dict_index_oracle import DictIndexOracle
from repro.batch.engine import ALGORITHMS, BatchQueryEngine
from repro.bfs import distance_index
from repro.bfs.distance_index import (
    CSRDistanceIndex,
    NARROW_MAX_HOPS,
    NARROW_UNREACHABLE,
    TYPECODE,
    UNREACHABLE,
    build_index,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_directed_gnm
from repro.queries.query import HCSTQuery
from test_differential import assert_answers, oracle

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def graph_and_endpoints(draw):
    num_vertices = draw(st.integers(min_value=3, max_value=14))
    possible_edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    edges = draw(
        st.lists(
            st.sampled_from(possible_edges),
            min_size=num_vertices,
            max_size=4 * num_vertices,
        )
    )
    graph = DiGraph.from_edges(set(edges), num_vertices=num_vertices)
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    sources = draw(st.lists(vertex, min_size=1, max_size=4))
    targets = draw(st.lists(vertex, min_size=1, max_size=4))
    max_hops = draw(st.integers(min_value=1, max_value=6))
    return graph, sources, targets, max_hops


def hole(row):
    """What a dense row holds where its BFS never arrived: 0xFF in a
    one-byte row, ``2**31 - 1`` in a wide one."""
    return NARROW_UNREACHABLE if isinstance(row, bytearray) else UNREACHABLE


def sparse(row):
    """``{vertex: distance}`` of a dense row's reached vertices."""
    return {v: d for v, d in enumerate(row) if d != hole(row)}


def sparse_levels(levels):
    """``{vertex: distance}`` read off a row's BFS levels."""
    return {v: d for d, level in enumerate(levels) for v in level}


#: Duplicates in both lists, vertex 1 in both, 4 isolated, 3 reaches
#: nothing and 0 cannot reach it back.
PLANTED = (
    DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], num_vertices=5),
    [0, 1, 0, 4],
    [3, 1, 4, 3],
)


@given(case=graph_and_endpoints())
@example(case=(*PLANTED, 1))
@example(case=(*PLANTED, 6))
@SETTINGS
def test_csr_index_equivalent_to_dict_index(case):
    graph, sources, targets, max_hops = case
    csr = build_index(graph, sources, targets, max_hops)
    legacy = DictIndexOracle(graph, sources, targets, max_hops)
    # What build_index writes as it traverses — the rows, hence the serialized
    # bytes, and the levels — is what a deque BFS per endpoint finds.
    from_oracle = CSRDistanceIndex(
        graph.num_vertices,
        max_hops,
        {source: legacy.dense_from(source) for source in legacy.from_source},
        {target: legacy.dense_to(target) for target in legacy.to_target},
    )
    assert csr.to_bytes() == from_oracle.to_bytes()
    for source in legacy.from_source:
        assert csr.forward_levels(source) == legacy.forward_levels(source)
    for target in legacy.to_target:
        assert csr.backward_levels(target) == legacy.backward_levels(target)

    assert csr.max_hops == legacy.max_hops
    assert csr.size_in_entries == legacy.size_in_entries
    assert csr.sources == sorted(legacy.from_source)
    assert csr.targets == sorted(legacy.to_target)

    for source in set(sources):
        assert csr.has_source(source)
        # The dense row and the levels hold exactly the sparse contents.
        assert sparse(csr.dense_from(source)) == legacy.from_source[source]
        assert sparse_levels(csr.forward_levels(source)) == legacy.from_source[source]
        for vertex in range(graph.num_vertices):
            assert csr.dist_from(source, vertex) == legacy.dist_from(
                source, vertex
            )
        for hops in range(max_hops + 1):
            assert csr.forward_neighborhood(source, hops) == (
                legacy.forward_neighborhood(source, hops)
            )
            assert csr.forward_level_sizes(source, hops) == (
                legacy.forward_level_sizes(source, hops)
            )
    for target in set(targets):
        assert csr.has_target(target)
        assert sparse(csr.dense_to(target)) == legacy.to_target[target]
        assert sparse_levels(csr.backward_levels(target)) == legacy.to_target[target]
        for vertex in range(graph.num_vertices):
            assert csr.dist_to(target, vertex) == legacy.dist_to(target, vertex)
        for hops in range(max_hops + 1):
            assert csr.backward_neighborhood(target, hops) == (
                legacy.backward_neighborhood(target, hops)
            )
            assert csr.backward_level_sizes(target, hops) == (
                legacy.backward_level_sizes(target, hops)
            )


@pytest.mark.parametrize(
    "sources, targets, message",
    [
        ([7], [2], "source=7 is out of range"),
        ([0], [7], "target=7 is out of range"),
        ([True], [2], "source must be an int, got bool"),
        ([0], [True], "target must be an int, got bool"),
    ],
)
def test_a_bad_endpoint_is_reported_under_its_own_name(
    sources, targets, message, monkeypatch
):
    """Both lists are checked before the first traversal, so a bad target
    is a bad *target* and nothing was built for the sources before it."""
    traversals = []
    monkeypatch.setattr(
        distance_index,
        "truncated_bfs_levels",
        lambda *args: traversals.append(args) or iter(()),
    )
    graph = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
    with pytest.raises(ValueError, match=message):
        build_index(graph, sources, targets, 2)
    assert traversals == []


@given(case=graph_and_endpoints())
@SETTINGS
def test_pickle_round_trip(case):
    """What a spawned worker receives through the pool initializer: the
    rows, their BFS levels and so the blob all survive a pickle."""
    graph, sources, targets, max_hops = case
    index = build_index(graph, sources, targets, max_hops)
    clone = pickle.loads(pickle.dumps(index))

    assert clone.num_vertices == index.num_vertices
    assert clone.max_hops == index.max_hops
    assert clone.sources == index.sources
    assert clone.targets == index.targets
    for source in index.sources:
        assert clone.dense_from(source) == index.dense_from(source)
        # Carried along, not derived again on first use.
        assert source in clone._from_levels
        assert clone.forward_levels(source) == index.forward_levels(source)
    for target in index.targets:
        assert clone.dense_to(target) == index.dense_to(target)
        assert target in clone._to_levels
        assert clone.backward_levels(target) == index.backward_levels(target)
    # Serialization is deterministic.
    assert clone.to_bytes() == index.to_bytes()


def scanned_levels(row):
    """Reference: group a dense row's reached vertices by exact distance."""
    by_distance = {}
    for vertex, distance in enumerate(row):
        if distance != hole(row):
            by_distance.setdefault(distance, []).append(vertex)
    return tuple(
        array(TYPECODE, by_distance.get(distance, []))
        for distance in range(max(by_distance, default=-1) + 1)
    )


def assert_levels_equal_a_scan_of_every_row(index):
    for source in index.sources:
        assert index.forward_levels(source) == scanned_levels(
            index.dense_from(source)
        )
    for target in index.targets:
        assert index.backward_levels(target) == scanned_levels(
            index.dense_to(target)
        )


def assert_whole_row_readers_agree(csr, legacy):
    """Everything answered from the levels ≡ the dict reference, also one
    hop past ``max_hops`` (levels the truncated BFS never filled)."""
    assert csr.size_in_entries == legacy.size_in_entries
    for hops in range(csr.max_hops + 2):
        for source in legacy.from_source:
            assert csr.forward_level_sizes(source, hops) == (
                legacy.forward_level_sizes(source, hops)
            )
            neighborhood = legacy.forward_neighborhood(source, hops)
            assert csr.forward_neighborhood(source, hops) == neighborhood
            assert csr.forward_mask(source, hops) == (
                sum(1 << v for v in neighborhood),
                len(neighborhood),
            ) == legacy.forward_mask(source, hops)
        for target in legacy.to_target:
            assert csr.backward_level_sizes(target, hops) == (
                legacy.backward_level_sizes(target, hops)
            )
            neighborhood = legacy.backward_neighborhood(target, hops)
            assert csr.backward_neighborhood(target, hops) == neighborhood
            assert csr.backward_mask(target, hops) == (
                sum(1 << v for v in neighborhood),
                len(neighborhood),
            ) == legacy.backward_mask(target, hops)


@st.composite
def graph_endpoints_and_edge_script(draw):
    graph, sources, targets, max_hops = draw(graph_and_endpoints())
    vertex = st.integers(min_value=0, max_value=graph.num_vertices - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    script = draw(st.lists(st.tuples(st.booleans(), edge), max_size=8))
    return graph, sources, targets, max_hops, script


@given(case=graph_endpoints_and_edge_script())
@SETTINGS
def test_levels_equal_a_row_scan_however_the_index_came_to_be(case):
    graph, sources, targets, max_hops, script = case
    index = build_index(graph, sources, targets, max_hops)
    assert_levels_equal_a_scan_of_every_row(index)
    assert_whole_row_readers_agree(
        index, DictIndexOracle(graph, sources, targets, max_hops)
    )

    # A pickled index (what a spawned worker reads) carries its levels.
    assert_levels_equal_a_scan_of_every_row(pickle.loads(pickle.dumps(index)))

    before = set(graph.edges())
    for add, (u, v) in script:
        if add and not graph.has_edge(u, v):
            graph.add_edge(u, v)
        elif not add and graph.has_edge(u, v):
            graph.remove_edge(u, v)
    after = set(graph.edges())

    clone = index.copy()
    assert_levels_equal_a_scan_of_every_row(clone)
    repaired = clone.apply_delta(graph, after - before, before - after)
    assert_levels_equal_a_scan_of_every_row(repaired)
    fresh = build_index(graph, sources, targets, max_hops)
    assert repaired.to_bytes() == fresh.to_bytes()
    assert_whole_row_readers_agree(
        repaired, DictIndexOracle(graph, sources, targets, max_hops)
    )
    # The repair keeps the level object of exactly the rows it left alone
    # and never touches the frozen original's.
    for source in index.sources:
        assert repaired.forward_levels(source) == fresh.forward_levels(source)
        unchanged = repaired.dense_from(source) == index.dense_from(source)
        shared = repaired.forward_levels(source) is index.forward_levels(source)
        assert shared == unchanged
    for target in index.targets:
        assert repaired.backward_levels(target) == fresh.backward_levels(target)
        unchanged = repaired.dense_to(target) == index.dense_to(target)
        shared = repaired.backward_levels(target) is index.backward_levels(target)
        assert shared == unchanged
    assert_levels_equal_a_scan_of_every_row(index)


def test_whole_row_readers_raise_for_an_endpoint_that_is_not_indexed():
    """An unindexed endpoint is a caller bug for every reader alike — the
    level sizes used to answer it with zeros, silently pricing the side at
    nothing; ``hops`` past ``max_hops`` stays a legitimate question."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    for index in (
        build_index(graph, sources=[0], targets=[3], max_hops=2),
        DictIndexOracle(graph, sources=[0], targets=[3], max_hops=2),
    ):
        for reader in (
            index.forward_level_sizes,
            index.forward_neighborhood,
            index.forward_mask,
            index.backward_level_sizes,
            index.backward_neighborhood,
            index.backward_mask,
        ):
            with pytest.raises(KeyError):
                reader(1, 2)
    index = build_index(graph, sources=[0], targets=[3], max_hops=2)
    with pytest.raises(KeyError):
        index.forward_levels(1)
    with pytest.raises(KeyError):
        index.backward_levels(1)
    assert index.forward_level_sizes(0, 4) == [1, 1, 1, 0, 0]
    assert index.backward_level_sizes(3, 4) == [1, 1, 1, 0, 0]


def test_unreachable_is_infinity():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (3, 0)])
    index = build_index(graph, sources=[0], targets=[2], max_hops=3)
    assert index.dist_from(0, 2) == 2
    assert index.dist_to(2, 0) == 2
    assert math.isinf(index.dist_from(0, 3))  # 3 is not reachable from 0
    assert index.dense_from(0)[3] == NARROW_UNREACHABLE
    wide = build_index(graph, sources=[0], targets=[2], max_hops=NARROW_MAX_HOPS + 1)
    assert wide.dist_from(0, 2) == 2
    assert math.isinf(wide.dist_from(0, 3))
    assert wide.dense_from(0)[3] == UNREACHABLE


def test_out_of_range_vertex_ids_raise():
    """Unknown-but-in-range ids are "unreachable"; ids outside the CSR
    snapshot's vertex range are a caller bug and must raise (mirroring the
    CSR packing range assert), not silently report infinity."""
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    index = build_index(graph, sources=[0], targets=[2], max_hops=2)

    with pytest.raises(ValueError):
        index.dist_from(0, 3)
    with pytest.raises(ValueError):
        index.dist_from(0, -1)
    with pytest.raises(ValueError):
        index.dist_to(2, 99)
    # Unindexed endpoints raise KeyError, like the BFS dicts.
    with pytest.raises(KeyError):
        index.dist_from(1, 0)
    with pytest.raises(KeyError):
        index.dense_from(1)
    with pytest.raises(KeyError):
        index.dense_to(0)


def test_ship_payload_survives_larger_graph():
    """The pickle a spawned worker unpacks answers every lookup alike."""
    graph = random_directed_gnm(120, 600, seed=3)
    index = build_index(graph, sources=[0, 5, 7], targets=[10, 11], max_hops=4)
    clone = pickle.loads(pickle.dumps(index))
    for source in (0, 5, 7):
        for vertex in range(graph.num_vertices):
            assert clone.dist_from(source, vertex) == index.dist_from(
                source, vertex
            )
    assert clone.size_in_entries == index.size_in_entries
    # One byte per (endpoint, vertex) at max_hops 4.
    assert isinstance(index.dense_from(0), bytearray)
    assert index.nbytes == 5 * graph.num_vertices == 5 * len(index.dense_from(0))


def chain_with_a_chord(num_vertices=300):
    """0 -> 1 -> ... -> 299 plus the chord 10 -> 12: two simple paths between
    any pair that straddles it, one hop apart."""
    edges = [(v, v + 1) for v in range(num_vertices - 1)] + [(10, 12)]
    return DiGraph.from_edges(edges, num_vertices=num_vertices)


@pytest.mark.parametrize(
    "deepest, narrow", [(NARROW_MAX_HOPS, True), (NARROW_MAX_HOPS + 1, False)]
)
def test_both_row_widths_answer_alike_at_the_boundary(deepest, narrow):
    """A batch whose largest k is 254 gets one-byte rows, one with 255 wide
    rows; either way the paths, the lookups, the pickled bytes, the delta
    repair and the µ masks are what they must be."""
    graph = chain_with_a_chord()
    # dist(0, 250) = 249, dist(5, 200) = 194, dist(3, 290) = 286 > 255.
    queries = [
        HCSTQuery(0, 250, deepest),
        HCSTQuery(5, 200, 196),
        HCSTQuery(3, 290, deepest),
    ]
    expected = oracle(graph, queries)
    assert [len(paths) for paths in expected] == [2, 2, 0]
    for algorithm in ALGORITHMS:
        engine = BatchQueryEngine(graph, algorithm)
        assert_answers(expected, engine.run(queries), algorithm)

    sources, targets = [q.s for q in queries], [q.t for q in queries]
    index = build_index(graph, sources, targets, deepest)
    assert isinstance(index.dense_from(0), bytearray) == narrow
    width = 1 if narrow else array(TYPECODE).itemsize
    assert index.nbytes == 6 * graph.num_vertices * width
    legacy = DictIndexOracle(graph, sources, targets, deepest)
    for vertex in range(graph.num_vertices):
        for source in sources:
            assert index.dist_from(source, vertex) == legacy.dist_from(source, vertex)
        for target in targets:
            assert index.dist_to(target, vertex) == legacy.dist_to(target, vertex)
    assert math.isinf(index.dist_from(5, 0)) and math.isinf(index.dist_to(250, 290))

    blob = index.to_bytes()
    pickled = pickle.loads(pickle.dumps(index))
    assert pickled.to_bytes() == blob
    assert type(pickled.dense_to(290)) is type(index.dense_to(290))

    # Beyond max_hops, and beyond what a byte can hold, a mask still holds
    # exactly the reached vertices: never a hole's bit.
    for hops in (deepest, deepest + 1, 255, 256, 10**4):
        for source in sources:
            reached = legacy.forward_neighborhood(source, deepest)
            assert index.forward_mask(source, hops) == (
                sum(1 << v for v in reached),
                len(reached),
            )
        for target in targets:
            reached = legacy.backward_neighborhood(target, deepest)
            assert index.backward_mask(target, hops) == (
                sum(1 << v for v in reached),
                len(reached),
            )

    # Lose the chord, gain a shortcut and a back edge that fills holes.
    graph.remove_edge(10, 12)
    graph.add_edge(100, 110)
    graph.add_edge(150, 3)
    repaired = index.copy().apply_delta(graph, [(100, 110), (150, 3)], [(10, 12)])
    fresh = build_index(graph, sources, targets, deepest)
    assert repaired.to_bytes() == fresh.to_bytes()
    assert index.to_bytes() == blob  # the copy was repaired, not the original
