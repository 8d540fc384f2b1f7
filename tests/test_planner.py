"""Tests for the plan/execute split: QueryPlanner, ExecutionPlan, CostModel
and the one eagerly-validated ``ExecutionConfig`` the options live on.

The load-bearing contract: whatever the planner decides — worker count,
shard assignments — the paths delivered per batch position are
bit-identical to the sequential ``num_workers=1`` run (which itself
bypasses planning entirely).  The all-algorithms parallel differential
lives in ``test_parallel_executor.py``.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.batch.config import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    CostModel,
    ExecutionConfig,
    validate_num_workers,
)
from repro.batch.engine import BatchQueryEngine, batch_enumerate
from repro.batch.executor import WorkerPool, stream_parallel
from repro.batch.planner import ExecutionPlan, QueryPlanner, estimate_query_cost
from repro.batch.service import IngestionService
from repro.enumeration import kernels
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.paths import sort_paths
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries

#: A cost model that makes parallelism look free (forces sharding).
EAGER_MODEL = CostModel(
    spawn_overhead_base=0.0,
    spawn_overhead_per_worker=0.0,
    seconds_per_cost_unit=1.0,
    parallel_benefit_margin=1.0,
)


def _workload(seed, num_queries=8):
    graph = random_directed_gnm(30, 110, seed=seed)
    queries = generate_random_queries(graph, num_queries, min_k=2, max_k=4, seed=seed)
    return graph, queries


# --------------------------------------------------------------------- #
# Eager validation: every execution option is checked once, by the
# ExecutionConfig both public constructors build before any query is seen
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [0, -1, -7, 2.5, "turbo", "", True, False, None])
def test_engine_rejects_bad_num_workers_eagerly(bad):
    graph, _ = _workload(0)
    with pytest.raises((ValueError, TypeError)):
        BatchQueryEngine(graph, num_workers=bad)


@pytest.mark.parametrize("num_workers", [1, "auto"])
@pytest.mark.parametrize(
    "option, bad",
    [
        ("max_workers", 0),
        ("max_workers", -1),
        ("max_workers", True),
        ("algorithm", "batch++"),
        ("gamma", 1.5),
        ("num_workers", 0),
        ("num_workers", "AUTO"),
        ("kernel", "cuda"),
        ("kernel", "numpy"),  # with numpy made unavailable below
        ("cost_model", {"seconds_per_cost_unit": 1.0}),
    ],
)
def test_bad_execution_options_raise_at_construction(
    option, bad, num_workers, monkeypatch
):
    """``ValueError`` from ``BatchQueryEngine(...)`` and from
    ``IngestionService(..., start=False)``, ``num_workers=1`` included —
    the route that plans nothing used to check ``max_workers`` never."""
    monkeypatch.setattr(kernels, "NUMPY_AVAILABLE", False)
    graph, _ = _workload(0)
    options = {"num_workers": num_workers, option: bad}
    with pytest.raises(ValueError):
        BatchQueryEngine(graph, **options)
    with pytest.raises(ValueError):
        IngestionService(graph, start=False, **options)


@pytest.mark.parametrize("good", [1, 2, 16, "auto"])
def test_engine_accepts_valid_num_workers(good):
    graph, _ = _workload(0)
    engine = BatchQueryEngine(graph, num_workers=good)
    assert engine.num_workers == good


def test_validate_num_workers_is_exported_and_strict():
    assert validate_num_workers("auto") == "auto"
    assert validate_num_workers(3) == 3
    with pytest.raises(ValueError):
        validate_num_workers("AUTO")
    with pytest.raises(ValueError):
        validate_num_workers(True)


def test_planner_validates_num_workers_and_max_workers_itself():
    """The invariant holds at the planner layer too, not just the engine
    facade — QueryPlanner is public API, and the only way to hand it these
    options is an ``ExecutionConfig``, which cannot hold a bad value."""
    graph, queries = _workload(0)
    assert QueryPlanner(graph).plan(queries).requested_workers == "auto"
    for bad in (0, -3, True, "turbo"):
        with pytest.raises(ValueError):
            QueryPlanner(graph, ExecutionConfig(num_workers=bad))
    with pytest.raises(ValueError):
        QueryPlanner(graph, ExecutionConfig(max_workers=0))


def test_execution_options_are_declared_once():
    """The planner, the pool and the executor take the config object; none
    re-declares one of its fields (or the detection-depth constant)."""
    fields = {"algorithm", "gamma", "kernel", "cost_model", "max_detection_depth"}
    for callable_ in (QueryPlanner.__init__, WorkerPool.__init__, stream_parallel):
        parameters = inspect.signature(callable_).parameters
        assert "config" in parameters
        assert not fields & set(parameters), callable_
    assert "num_workers" not in inspect.signature(QueryPlanner.plan).parameters


def test_execution_config_is_frozen_hashable_and_picklable():
    config = ExecutionConfig(algorithm="basic+", gamma=0.25, num_workers=3)
    with pytest.raises(FrozenInstanceError):
        config.gamma = 0.5
    assert hash(config) == hash(ExecutionConfig("basic+", 0.25, 3))
    # It travels to the workers through the pool initializer.
    assert pickle.loads(pickle.dumps(config)) == config
    # None resolves on construction: readers never see an unset option.
    assert config.max_workers >= 1 and config.cost_model == CostModel()


# --------------------------------------------------------------------- #
# Plans: structure and explain()
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_explain_shards_cover_every_position_exactly_once(algorithm):
    graph, queries = _workload(1)
    engine = BatchQueryEngine(graph, algorithm)
    plan = engine.explain(queries)
    assert isinstance(plan, ExecutionPlan)
    covered = sorted(p for shard in plan.shards for p in shard.positions)
    assert covered == list(range(len(queries)))
    # Every engine name has exactly one table row, and the row is all the
    # planner and the engine consult.
    assert list(ALGORITHM_TABLE).count(algorithm) == 1
    assert len(ALGORITHM_TABLE) == len(ALGORITHMS) == 5
    spec = ALGORITHM_TABLE[algorithm]
    expected_kind = "cluster" if spec.clustered else "slice"
    assert {shard.kind for shard in plan.shards} == {expected_kind}
    assert plan.num_workers >= 1
    assert plan.total_estimated_cost > 0
    assert "ExecutionPlan" in plan.describe()
    result = engine.run(queries)
    assert result.algorithm == spec.display_name
    for position, query in enumerate(queries):
        assert result.sorted_paths_at(position) == sort_paths(
            enumerate_paths_brute_force(graph, query.s, query.t, query.k)
        )


def test_explain_empty_batch_is_trivial():
    graph, _ = _workload(2)
    plan = BatchQueryEngine(graph).explain([])
    assert plan.num_workers == 1
    assert plan.shards == [] and plan.index_payload_bytes == 0


def test_explain_does_not_execute():
    graph, queries = _workload(3)
    engine = BatchQueryEngine(graph, algorithm="batch+")
    plan = engine.explain(queries)
    # Planning built the index and clusters but enumerated nothing.
    assert plan.workload is not None
    assert plan.stage_timer.total("Enumeration") == 0.0


def test_auto_resolves_to_one_on_tiny_workloads():
    graph, queries = _workload(4)
    plan = BatchQueryEngine(graph, algorithm="batch+").explain(queries)
    # Spawn overhead dwarfs any pure-Python win on an 8-query toy batch.
    assert plan.num_workers == 1


def test_auto_can_choose_parallel_when_cost_model_favours_it():
    graph, queries = _workload(5)
    plan = BatchQueryEngine(
        graph,
        algorithm="basic+",
        cost_model=EAGER_MODEL,
        max_workers=4,
    ).explain(queries)
    assert plan.num_workers > 1
    assert len(plan.shards) == min(plan.num_workers, len(queries))


def test_fixed_worker_request_is_honoured():
    graph, queries = _workload(6)
    plan = BatchQueryEngine(graph, algorithm="batch+", num_workers=3).explain(
        queries
    )
    assert plan.requested_workers == 3
    assert plan.num_workers == 3


def test_parallel_plan_accounts_for_shipping_the_index_rows():
    graph, queries = _workload(7)
    engine = BatchQueryEngine(graph, algorithm="batch+", num_workers=2)
    plan = engine.explain(queries)
    assert plan.index_payload_bytes == plan.workload.index.nbytes > 0
    assert plan.estimated_index_ship_seconds == pytest.approx(
        plan.index_payload_bytes * CostModel().seconds_per_shipped_byte
    )
    assert "ship" in plan.describe()
    # Unindexed algorithms have nothing to ship.
    bare = BatchQueryEngine(graph, algorithm="pathenum", num_workers=2).explain(queries)
    assert bare.index_payload_bytes == 0 and bare.workload is None


def test_auto_engine_matches_sequential_results():
    graph, queries = _workload(9)
    for algorithm in ("batch+", "basic"):
        sequential = BatchQueryEngine(
            graph, algorithm=algorithm, num_workers=1
        ).run(queries)
        auto = BatchQueryEngine(graph, algorithm=algorithm).run(queries)
        assert auto.counts() == sequential.counts()
        for position in range(len(queries)):
            assert auto.paths_at(position) == sequential.paths_at(position)


def test_forced_parallel_auto_still_matches_sequential():
    graph, queries = _workload(10)
    sequential = BatchQueryEngine(
        graph, algorithm="basic+", num_workers=1
    ).run(queries)
    forced = BatchQueryEngine(
        graph, algorithm="basic+", cost_model=EAGER_MODEL, max_workers=3
    ).run(queries)
    for position in range(len(queries)):
        assert forced.paths_at(position) == sequential.paths_at(position)


def test_batch_enumerate_accepts_auto():
    graph, queries = _workload(11)
    sequential = batch_enumerate(graph, queries, num_workers=1)
    auto = batch_enumerate(graph, queries)  # default "auto"
    assert auto.counts() == sequential.counts()


# --------------------------------------------------------------------- #
# Cost estimates
# --------------------------------------------------------------------- #
def test_estimate_query_cost_positive_with_and_without_index():
    graph, queries = _workload(12)
    planner = QueryPlanner(graph, ExecutionConfig(algorithm="batch+"))
    plan = planner.plan(queries)
    index = plan.workload.index
    for query in queries:
        assert estimate_query_cost(query, index, graph) > 0
        assert estimate_query_cost(query, None, graph) > 0


def test_planner_reuses_artifacts_in_sequential_auto_run():
    graph, queries = _workload(13)
    engine = BatchQueryEngine(graph, algorithm="batch+")  # auto -> 1 here
    result = engine.run(queries)
    # BuildIndex ran exactly once (during planning) and was reused; a
    # duplicated build would show up as a second timing entry of the same
    # magnitude, so we simply require the stage to be present and the
    # result complete.
    assert result.stage_timer.total("BuildIndex") > 0.0
    assert len(result.paths_by_position) == len(queries)
