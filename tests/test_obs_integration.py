"""End-to-end telemetry: the instrumented engine/service under real load.

The contracts under test, per the observability PR's acceptance criteria:

* a traced parallel run produces the span tree ``batch`` → ``plan`` /
  ``ship`` / worker-side ``enumerate`` (recorded in another process and
  reparented onto the batch root on merge) / ``merge``;
* every plan records its index strategy;
* instrumentation changes *nothing* about results: the default
  (null-registry) run and the instrumented run return byte-identical
  paths;
* the ingestion service exports admission/completion counters, the
  queue-depth gauge, the successful-only ticket-latency histogram and
  why each micro-batch closed;
* the snapshot store's gauges track live versions and pin refcounts.
"""

import os

import pytest

from repro.batch.engine import BatchQueryEngine
from repro.batch.service import AdmissionPolicy, IngestionService
from repro.graph.generators import random_directed_gnm
from repro.obs import MetricsRegistry, Tracer
from repro.queries.generation import generate_random_queries

TIMEOUT = 60.0


def _workload(seed=3, queries=12):
    # 60/150 at 12 queries clusters into several shards (so the parallel
    # path genuinely fans out) while staying fast enough for a unit test.
    graph = random_directed_gnm(60, 150, seed=seed)
    return graph, generate_random_queries(
        graph, queries, min_k=2, max_k=4, seed=seed
    )


# --------------------------------------------------------------------- #
# Traced parallel execution
# --------------------------------------------------------------------- #
def test_parallel_run_produces_full_span_tree():
    graph, queries = _workload()
    registry, tracer = MetricsRegistry(), Tracer()
    engine = BatchQueryEngine(
        graph, algorithm="batch+", num_workers=2, metrics=registry, tracer=tracer
    )
    baseline = BatchQueryEngine(graph, algorithm="batch+", num_workers=2).run(
        queries
    )
    result = engine.run(queries)

    # Instrumentation must not change results: byte-identical paths.
    for position in range(len(queries)):
        assert result.paths_at(position) == baseline.paths_at(position)

    trace_id = tracer.find_trace("batch")
    records = tracer.spans(trace_id)
    by_name = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)
    assert {"batch", "plan", "shard", "ship", "enumerate", "merge"} <= set(
        by_name
    )

    (batch,) = by_name["batch"]
    assert batch["parent_id"] is None
    assert by_name["plan"][0]["parent_id"] == batch["span_id"]
    for name in ("ship", "merge"):
        for record in by_name[name]:
            assert record["trace_id"] == trace_id

    # Worker-side enumerate spans: recorded in another process, reparented
    # onto the submitting batch's root span when the fragment merged.
    for record in by_name["enumerate"]:
        assert record["pid"] != os.getpid()
        assert record["parent_id"] == batch["span_id"]
        assert record["trace_id"] == trace_id
        assert record["tags"]["kind"] == "cluster"
    assert len(by_name["enumerate"]) == len(by_name["merge"])

    # One enumeration-seconds sample per executed shard.
    snap = registry.snapshot()["counters"]
    assert snap["repro_executor_shards_total"] >= 2
    assert snap["repro_executor_ship_bytes_total"] > 0
    assert registry.histogram("repro_shard_seconds").count == int(
        snap["repro_executor_shards_total"]
    )

    # The render is a tree: batch at the root, children indented under it.
    tree = tracer.render_tree(trace_id)
    lines = tree.splitlines()
    assert lines[0].startswith("batch ")
    assert any(line.startswith("  enumerate") for line in lines)


def test_every_plan_records_its_index_strategy():
    graph, queries = _workload(seed=4)
    registry = MetricsRegistry()
    engine = BatchQueryEngine(graph, algorithm="batch+", metrics=registry)
    engine.run(queries)  # one process: nothing is planned
    assert "repro_plans_total" not in registry.snapshot()["counters"]
    engine.explain(queries)
    snap = registry.snapshot()["counters"]
    assert snap["repro_plans_total"] == 1
    assert snap['repro_plan_index_strategy_total{strategy="built"}'] == 1


# --------------------------------------------------------------------- #
# Instrumented ingestion service
# --------------------------------------------------------------------- #
def test_service_exports_counters_gauges_and_latency_histogram():
    graph, queries = _workload(seed=6)
    registry, tracer = MetricsRegistry(), Tracer()
    service = IngestionService(
        graph,
        algorithm="batch+",
        policy=AdmissionPolicy(max_batch_size=4),
        metrics=registry,
        tracer=tracer,
    )
    try:
        tickets = service.submit_many(queries)
        for ticket in tickets:
            ticket.result(timeout=TIMEOUT)
    finally:
        service.close()

    snap = registry.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    assert counters["repro_service_admitted_total"] == len(queries)
    assert counters["repro_service_completed_total"] == len(queries)
    assert counters["repro_service_batches_total"] >= 1
    assert counters.get("repro_service_failed_total", 0) == 0
    assert gauges["repro_service_queue_depth"] == 0  # drained on close
    latency = snap["histograms"]["repro_service_ticket_latency_seconds"]
    assert latency["count"] == len(queries)
    stats = service.stats()
    assert stats.mean_ticket_latency_s == pytest.approx(
        latency["sum"] / latency["count"]
    )

    # Each dispatched micro-batch roots one traced span tree.
    batch_spans = [r for r in tracer.spans() if r["name"] == "batch"]
    assert len(batch_spans) == int(counters["repro_service_batches_total"])
    assert all(record["parent_id"] is None for record in batch_spans)


# --------------------------------------------------------------------- #
# Snapshot-store gauges
# --------------------------------------------------------------------- #
def test_snapshot_store_gauges_track_pins_and_versions():
    graph, queries = _workload(seed=7)
    registry = MetricsRegistry()
    BatchQueryEngine(graph, algorithm="batch+", metrics=registry)

    graph.csr_snapshot()  # seals the current version into the store
    live = registry.gauge("repro_snapshot_live_versions")
    pins = registry.gauge("repro_snapshot_pinned_refcount_total")
    assert live.value >= 1
    assert pins.value == 0

    lease = graph.snapshots.pin()
    assert pins.value == 1
    second = graph.snapshots.pin()
    assert pins.value == 2
    second.release()
    lease.release()
    assert pins.value == 0

    before = registry.gauge("repro_snapshot_mutation_log_entries").value
    u, v = next(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(graph.num_vertices)
        if u != v and not graph.has_edge(u, v)
    )
    graph.add_edge(u, v)
    after = registry.gauge("repro_snapshot_mutation_log_entries").value
    assert after == before + 1
