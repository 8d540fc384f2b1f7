"""Traced pass: spans around each layer's public entry points, from outside.

Nothing under ``src/`` knows about this module.  :func:`installed` rebinds
every wrapped entry point — the class attribute for methods, and for
module-level functions the name in *every* loaded ``repro.*`` module that
holds the original object (call sites use ``from x import y``) — and puts
the originals back on exit.  A span is ``{id, name, trace, parent, start,
end}`` plus an optional ``note`` of counts taken at the same boundary; spans
of one repeat share its ``trace`` id.  A generator entry point gets one span
per resumption, so it owns only time spent inside ``next()``; ``call``
groups the resumptions of one generator.

Self time of a span is its duration minus the durations of its direct
children, so within one repeat the self times of everything under the root
``engine.run`` span add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Dict[str, object]
Note = Callable[[tuple, dict, object], Dict[str, object]]


class SpanRecorder:
    """In-memory span store with per-thread parentage."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Identifier shared by the spans of one repeat; the driver loop
        #: sets it before each traced operation.
        self.trace = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def open(self, name: str, call: Optional[int] = None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])  # per thread
        span: Span = {
            "id": next(self._ids),
            "name": name,
            "trace": self.trace,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if call is not None:
            span["call"] = call
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap_call(self, name: str, fn: Callable, note: Optional[Note]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span["note"] = note(args, kwargs, result)
                return result
            finally:
                self.close(span)

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, note: Optional[Note]
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)  # runs no body code yet
            call = next(self._ids)
            first_note = note(args, kwargs, None) if note is not None else None
            return self._resume(name, call, generator, first_note)

        return traced

    def _resume(self, name, call, generator, first_note):
        try:
            while True:
                span = self.open(name, call)
                if first_note is not None:
                    span["note"], first_note = first_note, None
                try:
                    item = next(generator)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.close(span)
                yield item
        finally:
            # An abandoned consumer closes us at the yield above; the
            # wrapped generator's own cleanup (pool shutdown) is busy time.
            span = self.open(name, call)
            try:
                generator.close()
            finally:
                self.close(span)


# ---------------------------------------------------------------------- #
# Counts taken at the boundaries
# ---------------------------------------------------------------------- #
def _note_index(args, kwargs, index):
    return {"rows": index.num_rows, "bytes": index.nbytes}


def _note_similarity(args, kwargs, matrix):
    return {"pairs": len(matrix) * (len(matrix) - 1) // 2}


def _note_clusters(args, kwargs, clusters):
    return {"clusters": len(clusters), "largest": max(map(len, clusters))}


def _note_seal(args, kwargs, csr):
    return {"version": csr.version}


def _note_plan(args, kwargs, plan):
    return {
        "workers": plan.num_workers,
        "shards": plan.num_shards,
        "numpy_shards": sum(shard.kernel == "numpy" for shard in plan.shards),
        "index": plan.index_strategy,
        "predicted_s": plan.estimated_sequential_seconds,
    }


def _note_pool(args, kwargs, _):
    return {"spawned": kwargs.get("pool") is None}


#: (span name, module, dotted attribute, is generator, note)
ENTRY_POINTS: Tuple[Tuple[str, str, str, bool, Optional[Note]], ...] = (
    # DiGraph.csr_snapshot() is a one-line delegate to this method, and the
    # service pins through it too, so one span covers both routes.
    ("graph.seal", "repro.graph.snapshots", "SnapshotStore.seal", False, _note_seal),
    ("bfs.build_index", "repro.bfs.distance_index", "build_index", False, _note_index),
    ("bfs.apply_delta", "repro.bfs.distance_index", "CSRDistanceIndex.apply_delta", False, None),
    ("queries.similarity", "repro.queries.similarity", "QuerySimilarityMatrix.from_queries", False, _note_similarity),
    ("clustering.cluster", "repro.batch.clustering", "cluster_queries", False, _note_clusters),
    ("detection.detect", "repro.batch.detection", "detect_common_queries", False, None),
    ("enumeration.search_order", "repro.enumeration.search_order", "choose_budget_split", False, None),
    ("enumeration.kernel", "repro.enumeration.kernels", "enumerate_node_paths", False, None),
    ("enumeration.kernel", "repro.enumeration.kernels", "search_paths", False, None),
    ("enumeration.join", "repro.enumeration.join", "join_path_sets", False, None),
    ("batch_enum.iter_run", "repro.batch.batch_enum", "BatchEnum.iter_run", True, None),
    ("batch_enum.iter_run", "repro.batch.basic_enum", "BasicEnum.iter_run", True, None),
    ("planner.plan", "repro.batch.planner", "QueryPlanner.plan", False, _note_plan),
    ("executor.stream_parallel", "repro.batch.executor", "stream_parallel", True, _note_pool),
    ("results.flush", "repro.batch.executor", "flush_fragments", True, None),
    ("engine.run", "repro.batch.engine", "BatchQueryEngine.run", False, None),
    ("engine.stream_planned", "repro.batch.engine", "BatchQueryEngine.stream_planned", True, None),
)


def _repro_modules() -> List[Tuple[str, object]]:
    return [
        (name, module) for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
    ]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers; restore every original on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, dotted, is_generator, note in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            wrap = recorder.wrap_generator if is_generator else recorder.wrap_call
            owner_name, _, attribute = dotted.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrap(name, raw.__func__, note))
                else:
                    wrapped = wrap(name, raw, note)
                undo.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = wrap(name, original, note)
            for _, holder in _repro_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapped)
        yield
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def leftovers() -> List[str]:
    """Names still bound to a span wrapper (empty once uninstalled)."""
    found = []
    for holder_name, holder in _repro_modules():
        for key, value in list(vars(holder).items()):
            targets = [value]
            if isinstance(value, type):
                targets = [
                    getattr(raw, "__func__", raw) for raw in vars(value).values()
                ]
            for target in targets:
                code = getattr(target, "__code__", None)
                if code is not None and code.co_filename == __file__:
                    found.append(f"{holder_name}.{key}")
    return found


# ---------------------------------------------------------------------- #
# Reading spans
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


class Layers:
    """Per-name totals of one group of spans (one repeat, or a replay)."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        own = self_times(spans)
        self.busy: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        seen_calls = set()
        for span in spans:
            name = span["name"]
            self.busy[name] = self.busy.get(name, 0.0) + span["end"] - span["start"]
            self.own[name] = self.own.get(name, 0.0) + own[span["id"]]
            call = (name, span.get("call", span["id"]))
            if call not in seen_calls:
                seen_calls.add(call)
                self.calls[name] = self.calls.get(name, 0) + 1

    def notes(self, name: str) -> List[Dict[str, object]]:
        return [s["note"] for s in self.spans if s["name"] == name and "note" in s]

    def total(self, name: str, key: str) -> float:
        return sum(note[key] for note in self.notes(name))


def root_closure_error(spans: List[Span]) -> float:
    """|Σ self − root| / root for the spans of one closed-batch repeat."""
    roots = [s for s in spans if s["name"] == "engine.run" and s["parent"] is None]
    if len(roots) != 1:
        return float("inf")
    root = roots[0]["end"] - roots[0]["start"]
    return abs(sum(self_times(spans).values()) - root) / root


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def span_metrics(layers: Layers, root: str) -> Dict[str, float]:
    """The per-layer numbers one group of spans yields on its own.

    ``*_s`` of a leaf layer is the total duration of its spans; where a
    layer calls into another wrapped layer the metric says which part it
    is: ``clustering.cluster_s``, ``planner.self_s``, ``batch_enum.self_s``,
    ``results.flush_s`` and ``engine.self_s`` are self times.
    """
    busy = lambda name: layers.busy.get(name, 0.0)  # noqa: E731
    own = lambda name: layers.own.get(name, 0.0)  # noqa: E731
    calls = lambda name: float(layers.calls.get(name, 0))  # noqa: E731
    plans = layers.notes("planner.plan")
    run_s = busy(root)
    return {
        "engine.run_s": run_s,
        "engine.self_s": own(root),
        "engine.attributed_fraction": 1.0 - own(root) / run_s if run_s else 0.0,
        "graph.seal_s": busy("graph.seal"),
        "graph.seal_calls": calls("graph.seal"),
        "bfs.build_index_s": busy("bfs.build_index"),
        "bfs.build_index_calls": calls("bfs.build_index"),
        "bfs.index_rows": layers.total("bfs.build_index", "rows"),
        "bfs.index_bytes": layers.total("bfs.build_index", "bytes"),
        "bfs.apply_delta_s": busy("bfs.apply_delta"),
        "bfs.apply_delta_calls": calls("bfs.apply_delta"),
        "queries.similarity_s": busy("queries.similarity"),
        "queries.similarity_pairs": layers.total("queries.similarity", "pairs"),
        "clustering.cluster_s": own("clustering.cluster"),
        "clustering.clusters": layers.total("clustering.cluster", "clusters"),
        "clustering.largest_cluster": max(
            (note["largest"] for note in layers.notes("clustering.cluster")),
            default=0,
        ),
        "detection.detect_s": busy("detection.detect"),
        "detection.detect_calls": calls("detection.detect"),
        "enumeration.search_order_s": busy("enumeration.search_order"),
        "enumeration.search_order_calls": calls("enumeration.search_order"),
        "enumeration.kernel_s": busy("enumeration.kernel"),
        "enumeration.kernel_calls": calls("enumeration.kernel"),
        "enumeration.join_s": busy("enumeration.join"),
        "enumeration.join_calls": calls("enumeration.join"),
        "batch_enum.iter_run_s": busy("batch_enum.iter_run"),
        "batch_enum.self_s": own("batch_enum.iter_run"),
        "planner.plan_s": busy("planner.plan"),
        "planner.self_s": own("planner.plan"),
        "planner.resolved_workers": max((p["workers"] for p in plans), default=0),
        "planner.shards": sum(p["shards"] for p in plans),
        "planner.numpy_shards": sum(p["numpy_shards"] for p in plans),
        "planner.index_built": sum(p["index"] == "built" for p in plans),
        "planner.index_cached": sum(p["index"] == "cached" for p in plans),
        "planner.index_delta": sum(p["index"] == "delta" for p in plans),
        "results.flush_s": own("results.flush"),
    }


def enumeration_busy_s(metrics: Dict[str, float]) -> float:
    """Seconds the enumeration and batch_enum layers own in the parent."""
    return (
        metrics["enumeration.search_order_s"]
        + metrics["enumeration.kernel_s"]
        + metrics["enumeration.join_s"]
        + metrics["batch_enum.self_s"]
    )


def executor_metrics(
    layers_list: List[Layers], counters: Dict[str, float],
    histograms: Dict[str, dict], workers: int,
) -> Dict[str, float]:
    """``executor.*`` from the injected registry (worker-side counters
    cross the process boundary only there), per traced repeat.  Nothing
    unless ``stream_parallel`` ran: the sequential planned path feeds the
    same ``repro_shard_seconds`` histogram."""
    repeats = len(layers_list)
    fan_out_s = sum(l.busy.get("executor.stream_parallel", 0.0) for l in layers_list)
    if not fan_out_s:
        return {}
    busy_s = histograms.get("repro_shard_seconds", {}).get("sum", 0.0)
    hits = counters.get("repro_executor_deserialize_cache_hits_total", 0.0)
    misses = counters.get("repro_executor_deserialize_cache_misses_total", 0.0)
    one_shot_pools = sum(
        note["spawned"] for l in layers_list for note in l.notes("executor.stream_parallel")
    )
    return {
        "executor.stream_parallel_s": fan_out_s / repeats,
        "executor.shards_submitted": counters.get("repro_executor_shards_total", 0.0) / repeats,
        "executor.ship_bytes": counters.get("repro_executor_ship_bytes_total", 0.0) / repeats,
        "executor.shm_bytes": counters.get("repro_executor_shm_bytes_total", 0.0) / repeats,
        "executor.worker_busy_s": busy_s / repeats,
        "executor.parallel_efficiency": busy_s / (workers * fan_out_s),
        "executor.pool_spawns": (
            counters.get("repro_executor_pool_spawns_total", 0.0) + one_shot_pools
        ) / repeats,
        "executor.deserialize_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
