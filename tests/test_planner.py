"""Tests for the plan/execute split: QueryPlanner, ExecutionPlan and the
one eagerly-validated ``ExecutionConfig`` the options live on.

The load-bearing contracts: the default is one process and never opens a
process pool, and whatever a plan records — worker count, shard
assignments — the paths delivered per batch position are bit-identical
to the ``num_workers=1`` run (which plans nothing).  The all-algorithms
parallel differential lives in ``test_parallel_executor.py``.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.batch import executor
from repro.batch.config import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ExecutionConfig,
    validate_num_workers,
)
from repro.batch.engine import BatchQueryEngine
from repro.batch.executor import stream_parallel
from repro.batch.planner import ExecutionPlan, QueryPlanner
from repro.batch.service import IngestionService
from repro.graph.generators import random_directed_gnm
from repro.queries.generation import generate_random_queries
from repro.queries.query import HCSTQuery
from test_differential import assert_answers, oracle


def _workload(seed, num_queries=8):
    graph = random_directed_gnm(30, 110, seed=seed)
    queries = generate_random_queries(graph, num_queries, min_k=2, max_k=4, seed=seed)
    return graph, queries


# --------------------------------------------------------------------- #
# Eager validation: every execution option is checked once, by the
# ExecutionConfig both public constructors build before any query is seen
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "bad", [0, -1, -7, 2.5, "turbo", "", "auto", True, False, None]
)
def test_engine_rejects_bad_num_workers_eagerly(bad):
    graph, _ = _workload(0)
    with pytest.raises((ValueError, TypeError)):
        BatchQueryEngine(graph, num_workers=bad)


# One worker count, spelled out so each ID keeps naming the process count.
@pytest.mark.parametrize("num_workers", [1])
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
    ],
)
def test_bad_execution_options_raise_at_construction(option, bad, num_workers):
    """``ValueError`` from ``BatchQueryEngine(...)`` and from
    ``IngestionService(..., start=False)``, ``num_workers=1`` included —
    the route that plans nothing used to check ``max_workers`` never."""
    graph, _ = _workload(0)
    options = {"num_workers": num_workers, option: bad}
    with pytest.raises(ValueError):
        BatchQueryEngine(graph, **options)
    with pytest.raises(ValueError):
        IngestionService(graph, start=False, **options)


@pytest.mark.parametrize("good", [1, 2, 16])
def test_engine_accepts_valid_num_workers(good):
    graph, _ = _workload(0)
    engine = BatchQueryEngine(graph, num_workers=good)
    assert engine.num_workers == good


def test_validate_num_workers_is_exported_and_strict():
    assert validate_num_workers(3) == 3
    with pytest.raises(ValueError):
        validate_num_workers("auto")
    with pytest.raises(ValueError):
        validate_num_workers(True)


def test_planner_validates_num_workers_and_max_workers_itself():
    """The invariant holds at the planner layer too, not just the engine
    facade — QueryPlanner is public API, and the only way to hand it these
    options is an ``ExecutionConfig``, which cannot hold a bad value."""
    graph, queries = _workload(0)
    assert QueryPlanner(graph).plan(queries).num_workers == 1
    for bad in (0, -3, True, "turbo"):
        with pytest.raises(ValueError):
            QueryPlanner(graph, ExecutionConfig(num_workers=bad))
    with pytest.raises(ValueError):
        QueryPlanner(graph, ExecutionConfig(max_workers=0))


def test_execution_options_are_declared_once():
    """The planner and the executor take the config object; neither
    re-declares one of its fields (or the detection-depth constant)."""
    fields = {"algorithm", "gamma", "max_detection_depth"}
    for callable_ in (QueryPlanner.__init__, stream_parallel):
        parameters = inspect.signature(callable_).parameters
        assert "config" in parameters
        assert not fields & set(parameters), callable_
    assert "num_workers" not in inspect.signature(QueryPlanner.plan).parameters
    # The plan carries its batch: the fan-out takes no second copy of it.
    assert list(inspect.signature(stream_parallel).parameters)[:2] == [
        "plan",
        "config",
    ]
    assert "queries" not in inspect.signature(stream_parallel).parameters


def test_execution_config_is_frozen_hashable_and_picklable():
    config = ExecutionConfig(algorithm="basic+", gamma=0.25, num_workers=3)
    with pytest.raises(FrozenInstanceError):
        config.gamma = 0.5
    assert hash(config) == hash(ExecutionConfig("basic+", 0.25, 3))
    # It travels to the workers through the pool initializer.
    assert pickle.loads(pickle.dumps(config)) == config
    assert ExecutionConfig().num_workers == 1


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
    assert plan.num_workers == 1
    assert "ExecutionPlan" in plan.describe()
    result = engine.run(queries)
    assert result.algorithm == spec.display_name
    assert_answers(oracle(graph, queries), result)


def test_explain_empty_batch_is_trivial():
    graph, _ = _workload(2)
    plan = BatchQueryEngine(graph).explain([])
    assert plan.num_workers == 1
    assert plan.shards == [] and plan.estimated_sequential_seconds == 0.0


def test_explain_does_not_execute():
    graph, queries = _workload(3)
    engine = BatchQueryEngine(graph, algorithm="batch+")
    plan = engine.explain(queries)
    # Planning built the index and clusters but enumerated nothing.
    assert plan.workload is not None
    assert plan.stage_timer.total("Enumeration") == 0.0


@pytest.mark.parametrize("num_workers", [1, 2])
def test_a_plan_answers_the_batch_it_was_planned_for(paper_graph, num_workers):
    """``stream_planned`` takes the plan alone and runs ``plan.queries``,
    in this process or fanned out (``stream_parallel`` takes the plan
    alone too), so one batch's answers can never be labelled with another
    batch's positions."""
    engine = BatchQueryEngine(
        paper_graph, algorithm="batch+", num_workers=num_workers
    )
    batches = (
        [HCSTQuery(0, 11, 5), HCSTQuery(2, 13, 5)],
        [HCSTQuery(4, 14, 4), HCSTQuery(0, 11, 5)],
    )
    plans = [engine.explain(queries) for queries in batches]
    for queries, plan in zip(batches, plans):
        assert plan.queries == queries
        answers = dict(engine.stream_planned(plan))
        assert_answers(oracle(paper_graph, queries), answers)


def test_the_default_is_one_process_on_tiny_workloads():
    graph, queries = _workload(4)
    for algorithm in ALGORITHMS:
        plan = BatchQueryEngine(graph, algorithm=algorithm).explain(queries)
        assert plan.num_workers == 1
        assert plan.estimated_sequential_seconds == 0.0
        assert "workers: 1" in plan.describe()


def test_the_default_never_opens_a_process_pool(monkeypatch):
    """A multi-cluster batch on which the deleted cost model chose two
    workers (``max_workers=2``) runs in this process by default."""
    graph = random_directed_gnm(3000, 24000, seed=2)
    queries = generate_random_queries(graph, 16, min_k=7, max_k=7, seed=2)
    expected = BatchQueryEngine(
        graph, algorithm="batch+", gamma=1.0, num_workers=1
    ).run(queries)

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)
    engine = BatchQueryEngine(graph, algorithm="batch+", gamma=1.0, max_workers=2)
    assert engine.explain(queries).num_shards >= 2
    result = engine.run(queries)
    assert result.paths_by_position == expected.paths_by_position
    assert result.sharing == expected.sharing
    # An explicit request still fans out.
    with pytest.raises(AssertionError, match="process pool"):
        BatchQueryEngine(graph, algorithm="batch+", num_workers=2).run(queries)


def test_fixed_worker_request_is_honoured():
    graph, queries = _workload(6)
    plan = BatchQueryEngine(graph, algorithm="batch+", num_workers=3).explain(
        queries
    )
    assert plan.num_workers == 3
    assert "workers: 3" in plan.describe()
    per_query = BatchQueryEngine(graph, algorithm="basic", num_workers=3).explain(
        queries
    )
    assert per_query.num_shards == 3


def test_planner_reuses_artifacts_in_sequential_auto_run():
    graph, queries = _workload(13)
    engine = BatchQueryEngine(graph, algorithm="batch+")  # one process
    result = engine.run(queries)
    # BuildIndex ran exactly once and was reused; a duplicated build would
    # show up as a second timing entry of the same magnitude, so we simply
    # require the stage to be present and the result complete.
    assert result.stage_timer.total("BuildIndex") > 0.0
    assert len(result.paths_by_position) == len(queries)
