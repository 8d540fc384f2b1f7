"""Unit tests for the ``repro.obs`` telemetry primitives.

Covers the registry contract (get-or-create identity, label canonical
form, kind conflicts), histogram percentile math over the fixed
log-spaced buckets, snapshot JSON round-tripping and cross-process
merging, Prometheus text rendering, the null objects' no-op guarantees,
span parentage/adoption/rendering, and a multi-thread hammer proving the
counters are exact and histogram counts are conserved under contention.
"""

import importlib
import json
import pkgutil
import re
import threading

import pytest

import repro
from repro.obs import (
    DEFAULT_BUCKET_BOUNDS,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    RemoteSpanRecorder,
    Tracer,
    resolve_registry,
    resolve_tracer,
)


# --------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------- #
def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("repro_events_total")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)

    gauge = registry.gauge("repro_depth")
    gauge.set(7.0)
    gauge.add(-2.0)
    assert gauge.value == 5.0


def test_get_or_create_identity_and_label_canonical_form():
    registry = MetricsRegistry()
    a = registry.counter("repro_x_total", {"b": "2", "a": "1"})
    b = registry.counter("repro_x_total", {"a": "1", "b": "2"})
    assert a is b  # label insertion order must not create a new series
    other = registry.counter("repro_x_total", {"a": "1", "b": "3"})
    assert other is not a
    bare = registry.counter("repro_x_total")
    assert bare is not a


def test_kind_conflict_and_bad_names_raise():
    registry = MetricsRegistry()
    registry.counter("repro_thing")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("repro_thing")
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("0bad name")
    registry.histogram("repro_lat", bounds=(0.1, 1.0))
    with pytest.raises(ValueError, match="different bounds"):
        registry.histogram("repro_lat", bounds=(0.1, 2.0))


def test_histogram_quantiles_over_log_spaced_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_lat_seconds")
    assert hist.bounds == DEFAULT_BUCKET_BOUNDS
    for value in (0.001, 0.002, 0.004, 0.008, 0.5):
        hist.observe(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(0.515)
    assert hist.max == 0.5
    quantiles = hist.quantiles()
    assert set(quantiles) == {"p50", "p95", "p99", "max"}
    assert 0.0 < quantiles["p50"] <= 0.008
    assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
    assert quantiles["max"] == 0.5
    # Values past the last bound land in the overflow bucket, which
    # reports the tracked exact maximum instead of interpolating.
    hist2 = registry.histogram("repro_big", bounds=(1.0,))
    hist2.observe(123.0)
    assert hist2.percentile(0.99) == 123.0
    with pytest.raises(ValueError):
        hist2.percentile(1.5)


def test_empty_histogram_reports_zeros():
    hist = MetricsRegistry().histogram("repro_lat")
    assert hist.percentile(0.5) == 0.0
    assert hist.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


# --------------------------------------------------------------------- #
# Snapshots: JSON round-trip, rebuild, merge
# --------------------------------------------------------------------- #
def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("repro_events_total", {"kind": "a"}).inc(3)
    registry.counter("repro_events_total", {"kind": "b"}).inc(5)
    registry.gauge("repro_depth").set(4)
    hist = registry.histogram("repro_lat_seconds")
    for value in (0.001, 0.01, 0.1):
        hist.observe(value)
    return registry


def test_snapshot_round_trips_through_json():
    snap = _populated_registry().snapshot()
    assert json.loads(json.dumps(snap)) == snap
    rebuilt = MetricsRegistry.from_snapshot(snap)
    assert rebuilt.snapshot() == snap


def test_merge_snapshot_adds_counters_and_buckets():
    first = _populated_registry()
    second = _populated_registry()
    second.counter("repro_events_total", {"kind": "c"}).inc()
    second.histogram("repro_lat_seconds").observe(5.0)

    first.merge_snapshot(second.snapshot())
    snap = first.snapshot()
    assert snap["counters"]['repro_events_total{kind="a"}'] == 6
    assert snap["counters"]['repro_events_total{kind="c"}'] == 1
    assert snap["gauges"]["repro_depth"] == 8  # gauges add across replicas
    merged = snap["histograms"]["repro_lat_seconds"]
    assert merged["count"] == 7
    assert merged["max"] == 5.0
    assert sum(merged["counts"]) == merged["count"]


def test_merge_rejects_mismatched_bucket_layout():
    registry = MetricsRegistry()
    registry.histogram("repro_lat", bounds=(0.1, 1.0)).observe(0.5)
    other = MetricsRegistry()
    other.histogram("repro_lat", bounds=(0.2, 2.0)).observe(0.5)
    with pytest.raises(ValueError, match="different bounds"):
        registry.merge_snapshot(other.snapshot())


# --------------------------------------------------------------------- #
# Prometheus text rendering
# --------------------------------------------------------------------- #
def test_render_prometheus_shape():
    text = _populated_registry().render_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_events_total counter" in lines
    assert "# TYPE repro_depth gauge" in lines
    assert "# TYPE repro_lat_seconds histogram" in lines
    assert 'repro_events_total{kind="a"} 3' in lines
    assert "repro_depth 4" in lines

    bucket_re = re.compile(r'repro_lat_seconds_bucket\{le="([^"]+)"\} (\d+)')
    buckets = [
        (match.group(1), int(match.group(2)))
        for match in map(bucket_re.match, lines)
        if match
    ]
    assert buckets[-1][0] == "+Inf"
    counts = [count for _, count in buckets]
    assert counts == sorted(counts)  # cumulative counts never decrease
    assert "repro_lat_seconds_count 3" in lines
    assert buckets[-1][1] == 3  # +Inf bucket equals the total count
    assert text.endswith("\n")


# --------------------------------------------------------------------- #
# Null objects and resolvers
# --------------------------------------------------------------------- #
def test_null_registry_is_inert():
    registry = NullRegistry()
    registry.counter("repro_x").inc(5)
    registry.gauge("repro_y").set(1)
    hist = registry.histogram("repro_z")
    hist.observe(3.0)
    assert hist.percentile(0.5) == 0.0
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert registry.render_prometheus() == ""
    registry.merge_snapshot(_populated_registry().snapshot())
    assert registry.snapshot()["counters"] == {}


def test_resolvers_default_to_null_singletons():
    assert resolve_registry(None) is NULL_REGISTRY
    assert resolve_tracer(None) is NULL_TRACER
    live_registry, live_tracer = MetricsRegistry(), Tracer()
    assert resolve_registry(live_registry) is live_registry
    assert resolve_tracer(live_tracer) is live_tracer


def test_null_tracer_spans_are_noops():
    tracer = NullTracer()
    with tracer.span("anything", tags={"a": 1}):
        assert tracer.current_context() is None
    assert tracer.spans() == []
    assert tracer.latest_trace_id() is None
    assert tracer.render_tree() == "(no spans)"


# --------------------------------------------------------------------- #
# Tracing: parentage, adoption, rendering, bounds
# --------------------------------------------------------------------- #
def test_span_nesting_builds_parent_links():
    tracer = Tracer()
    with tracer.span("batch", tags={"queries": 2}):
        root_context = tracer.current_context()
        with tracer.span("plan"):
            pass
        with tracer.span("merge"):
            pass
    assert tracer.current_context() is None

    trace_id = tracer.latest_trace_id()
    records = tracer.spans(trace_id)
    by_name = {record["name"]: record for record in records}
    assert set(by_name) == {"batch", "plan", "merge"}
    batch = by_name["batch"]
    assert batch["parent_id"] is None
    assert batch["trace_id"] == batch["span_id"] == root_context[0]
    for child in ("plan", "merge"):
        assert by_name[child]["parent_id"] == batch["span_id"]
        assert by_name[child]["trace_id"] == trace_id
    assert batch["duration_s"] >= by_name["plan"]["duration_s"]
    assert batch["tags"] == {"queries": 2}


def test_remote_span_recorder_reparents_into_submitting_trace():
    tracer = Tracer()
    with tracer.span("batch"):
        context = tracer.current_context()
    recorder = RemoteSpanRecorder(context)
    with recorder.span("enumerate", tags={"kind": "cluster"}):
        pass
    assert len(recorder.records) == 1
    record = recorder.records[0]
    assert record["trace_id"] == context[0]
    assert record["parent_id"] == context[1]

    tracer.adopt(recorder.records)
    names = {r["name"] for r in tracer.spans(context[0])}
    assert names == {"batch", "enumerate"}

    tree = tracer.render_tree(context[0])
    batch_line, enum_line = tree.splitlines()
    assert batch_line.lstrip().startswith("batch ")
    assert enum_line.startswith("  ") and "enumerate" in enum_line


def test_remote_span_recorder_without_context_records_nothing():
    recorder = RemoteSpanRecorder(None)
    with recorder.span("enumerate"):
        pass
    assert recorder.records == []


def test_find_trace_and_render_tree_defaults():
    tracer = Tracer()
    assert tracer.find_trace("batch") is None
    assert tracer.render_tree() == "(no spans)"
    with tracer.span("batch"):
        with tracer.span("plan"):
            pass
    assert tracer.find_trace("plan") == tracer.latest_trace_id()
    assert "plan" in tracer.render_tree()


def test_tracer_storage_is_bounded():
    tracer = Tracer(max_spans=8)
    for index in range(50):
        with tracer.span(f"s{index}"):
            pass
    assert len(tracer.spans()) == 8
    assert tracer.spans()[-1]["name"] == "s49"


def test_span_records_survive_exceptions():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("batch"):
            raise RuntimeError("boom")
    assert tracer.current_context() is None  # stack unwound
    assert [r["name"] for r in tracer.spans()] == ["batch"]


# --------------------------------------------------------------------- #
# Concurrency: exact totals under contention
# --------------------------------------------------------------------- #
def test_registry_is_exact_under_thread_contention():
    registry = MetricsRegistry()
    threads, per_thread = 8, 5_000
    barrier = threading.Barrier(threads)
    created = []

    def hammer(seed):
        barrier.wait()
        # Concurrent get-or-create must converge on one object per series.
        counter = registry.counter("repro_hammer_total")
        hist = registry.histogram("repro_hammer_seconds")
        gauge = registry.gauge("repro_hammer_depth")
        created.append((counter, hist, gauge))
        for index in range(per_thread):
            counter.inc()
            hist.observe((seed + index) % 17 * 0.001)
            gauge.add(1.0)

    workers = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert len({id(c) for c, _, _ in created}) == 1
    assert len({id(h) for _, h, _ in created}) == 1
    total = threads * per_thread
    assert registry.counter("repro_hammer_total").value == total
    hist = registry.histogram("repro_hammer_seconds")
    assert hist.count == total
    snap = registry.snapshot()["histograms"]["repro_hammer_seconds"]
    assert sum(snap["counts"]) == total  # every observation landed in a bucket
    assert registry.gauge("repro_hammer_depth").value == total


# --------------------------------------------------------------------- #
# Injection discipline
# --------------------------------------------------------------------- #
def test_no_module_outside_obs_holds_a_live_telemetry_handle():
    """Telemetry is injected, never a module-level global: outside
    ``repro.obs`` no module holds a registry or tracer at import time
    except the shared no-op ``NULL_REGISTRY``/``NULL_TRACER``.  A global
    one would record from every engine and service in the process,
    whether or not its caller opted in."""
    handles = (MetricsRegistry, NullRegistry, Tracer, NullTracer)
    offenders = []
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in names:
        if name == "repro.obs" or name.startswith("repro.obs."):
            continue
        for attribute, value in vars(importlib.import_module(name)).items():
            if isinstance(value, handles) and not (
                value is NULL_REGISTRY or value is NULL_TRACER
            ):
                offenders.append(f"{name}.{attribute}")
    assert len(names) > 40  # the walk really saw the package
    assert not offenders, f"module-level telemetry handles: {offenders}"
