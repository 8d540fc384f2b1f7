#!/usr/bin/env python3
"""The one benchmark command (see README.md in this directory).

``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
workload in this process and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0`` (tracing off), the per-layer metrics
with ``--trace 1`` (span wrappers installed from ``trace.py``).

Without ``--workload`` it runs all five workloads, each pass in its own
child process (fresh interpreter, per-workload RSS), prints every metric by
name with its unit and writes ``out/results.json``.
``--check-repeatability`` runs the untraced set twice and compares medians
against the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (the planner's "auto" kernel needs it; fail early)

import trace as spans  # noqa: E402  (this directory's trace.py)
import workloads as wl  # noqa: E402
from repro import BatchQueryEngine, serve  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402

DEFAULT_SEED = 20240
OUT = HERE / "out"

#: The contract: workload names and whys, metric names, units and bounds.
#: Every workload reports every declared metric.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
UNIT = {
    m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
}

#: Fewest cycles (batch) / rounds (serve) of a timed phase, however short.
MIN_STEPS = {
    "batch": {"full": 3, "smoke": 1},
    "serve": {"full": 20, "smoke": 3},
}


def environment(args: argparse.Namespace) -> Dict[str, object]:
    """The stamp every result and trace file carries."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _reap(keep: Optional[int] = None) -> None:
    """Kill and wait for every child process of this one except ``keep``."""
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == keep:
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were looking
        if stat.rpartition(")")[2].split()[1] != me:  # fields: state, ppid
            continue
        try:
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)
        except OSError:
            pass  # already reaped by its owner


def stop_children() -> None:
    """Leave no process behind, on every path out of the command.

    A sharded run creates shared-memory segments, and the first one starts
    ``multiprocessing``'s resource tracker: a helper process that lives
    until its parent's pipe closes, so it outlasts the parent by a moment
    and a later run would find it still there.  Pool workers are joined by
    the engine; any that survived an error hold a copy of that pipe and are
    killed first.  Then the tracker is stopped the graceful way (pipe
    closed, process waited for), and whatever is still a child of this
    process is killed and reaped.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    _reap(keep=tracker_pid)
    if tracker_pid is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    _reap()


def show(name: str, value: float, unit: str, samples: Optional[List[float]] = None) -> None:
    line = f"  {name:<34} {value:>14.6g} {unit}"
    if samples:
        q1, median, q3 = wl.quartiles(samples)
        line += f"   (n={len(samples)}, q1={q1:.6g}, median={median:.6g}, q3={q3:.6g})"
    print(line)


def finish(correct: bool, samples_list, metrics: Dict[str, Tuple[float, str]]) -> int:
    attempted = sum(s.attempted for s in samples_list)
    failed = sum(s.failed for s in samples_list)
    show("failed_fraction", failed / attempted, "ratio")
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value}")
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------- #
# One workload, tracing off: the end-to-end metrics
# ---------------------------------------------------------------------- #
def run_untraced(workload: wl.Workload, args: argparse.Namespace) -> int:
    inputs, ready, setups, draws = wl.draw_and_set_up(workload, args.seed, args.scale)
    samples = wl.Samples()
    try:
        if workload.mode == "batch":
            driver = wl.BatchDriver(inputs.queries, ready.reference_counts)
            step = lambda: driver.cycle(ready.system, samples)  # noqa: E731
        else:
            driver = wl.ServeDriver(ready, inputs, random.Random(args.seed))
            step = lambda: driver.round(ready.system, samples)  # noqa: E731
        wl.repeat_for(args.seconds, MIN_STEPS[workload.mode][args.scale], step)
    finally:
        ready.close()
    rss = peak_rss_mb()  # before the oracle below allocates anything
    wl.verify_against_oracle(inputs, ready)

    print(f"{workload.name}: {WHY[workload.name]}")
    print(
        f"  achieved: draws={draws} clusters={ready.clusters} "
        f"shared_nodes={ready.shared_nodes} total_paths={ready.total_paths} "
        f"mu_Q={wl.average_similarity(inputs):.3f} queries={len(inputs.queries)}"
    )
    if not samples.batch_walls or not samples.first_results:
        raise RuntimeError("no operation succeeded")
    batch_wall = wl.undisturbed(samples.batch_walls)
    if workload.mode == "batch":
        throughput = len(inputs.queries) / batch_wall
    else:
        throughput = wl.SERVE_WINDOW / wl.undisturbed(samples.round_periods)
    values = {
        "batch_wall_s": (batch_wall, samples.batch_walls),
        "first_result_s": (wl.undisturbed(samples.first_results), samples.first_results),
        "queries_per_s": (throughput, None),
        "ticket_p50_s": (wl.undisturbed(samples.ticket_medians), samples.ticket_medians),
        "peak_rss_mb": (rss, None),
        "setup_s": (wl.quartiles(setups)[1], setups),
    }
    for name, (value, raw) in values.items():
        show(name, value, UNIT[name], raw)
    pooled = samples.ticket_latencies
    print(f"  all {len(pooled)} ticket latencies pooled: "
          f"p50 {wl.percentile(pooled, 0.5):.6g} s, p99 {wl.percentile(pooled, 0.99):.6g} s")
    return finish(
        True, [samples],
        {name: (value, UNIT[name]) for name, (value, _) in values.items()},
    )


# ---------------------------------------------------------------------- #
# One workload, traced pass: the per-layer metrics
# ---------------------------------------------------------------------- #
def sharing_speedup(workload, inputs, ready) -> Tuple[float, float]:
    """Walls of one ``basic+`` and one ``batch+`` run (``num_workers=1``)."""
    probe = inputs.queries
    if workload.mode == "serve":
        probe = probe[: 4 * wl.SERVE_WINDOW]
    walls = []
    for algorithm in ("basic+", "batch+"):
        engine = BatchQueryEngine(ready.graph, algorithm, num_workers=1)
        start = time.perf_counter()
        engine.run(probe)
        walls.append(time.perf_counter() - start)
    return walls[0], walls[1]


def run_traced(workload: wl.Workload, args: argparse.Namespace) -> int:
    inputs, ready, _setups, _draws = wl.draw_and_set_up(workload, args.seed, args.scale)
    recorder = spans.SpanRecorder()
    registry = MetricsRegistry()
    telemetry = {"metrics": registry, "tracer": Tracer()}
    baseline, samples = wl.Samples(), wl.Samples()
    traced_system = None
    try:
        # A second engine/service on the same graph carries the registry;
        # untraced and traced operations alternate, so both see the same
        # machine and their ratio is the tracing overhead.
        if workload.mode == "batch":
            traced_system = BatchQueryEngine(ready.graph, **workload.options, **telemetry)
            driver = wl.BatchDriver(inputs.queries, ready.reference_counts)
            operation = driver.run
        else:
            traced_system = serve(ready.graph, **workload.options, **telemetry)
            for ticket in traced_system.submit_many(inputs.queries[: wl.SERVE_WINDOW]):
                ticket.result(timeout=wl.TICKET_TIMEOUT_S)
            driver = wl.ServeDriver(ready, inputs, random.Random(args.seed))
            operation = driver.round
            stats_before = traced_system.stats()

        def step() -> None:
            operation(ready.system, baseline)
            recorder.trace += 1
            with spans.installed(recorder):
                operation(traced_system, samples)

        wl.repeat_for(args.seconds, MIN_STEPS[workload.mode][args.scale], step)
        if workload.mode == "serve":
            stats_after = traced_system.stats()
        basic_wall, batch_wall = sharing_speedup(workload, inputs, ready)
    finally:
        ready.close()
        if workload.mode == "serve" and traced_system is not None:
            traced_system.close(drain=True)
    if spans.leftovers():
        raise RuntimeError(f"span wrappers still installed: {spans.leftovers()}")

    snapshot = registry.snapshot()
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    metrics = {m["name"]: 0.0 for m in CONTRACT["per_layer"]}
    correct = True
    if workload.mode == "batch":
        by_trace: Dict[int, List[spans.Span]] = {}
        for span in recorder.spans:
            by_trace.setdefault(span["trace"], []).append(span)
        layers_list = [spans.Layers(group) for group in by_trace.values()]
        worst = max(spans.root_closure_error(l.spans) for l in layers_list)
        print(f"  sum of self times vs root: worst relative gap {worst:.2e}")
        correct = worst <= 0.01
        per_repeat = [spans.span_metrics(l, "engine.run") for l in layers_list]
        for name in per_repeat[0]:
            metrics[name] = statistics.median(m[name] for m in per_repeat)
        sharing = samples.sharing
        paths_out = samples.paths_out
        repeats = len(layers_list)
        sealed = {n["version"] for l in layers_list for n in l.notes("graph.seal")}
        metrics["graph.versions_sealed"] = max(0, len(sealed) - 1) / repeats
    else:
        layers = spans.Layers(recorder.spans)
        layers_list = [layers]
        batches = stats_after.batches_dispatched - stats_before.batches_dispatched
        per_batch = spans.span_metrics(layers, "engine.stream_planned")
        whole = ("engine.attributed_fraction", "planner.resolved_workers",
                 "clustering.largest_cluster")
        for name, value in per_batch.items():
            metrics[name] = value if name in whole else value / batches
        sharing = stats_after.sharing
        sharing.num_hc_s_nodes -= stats_before.sharing.num_hc_s_nodes
        sharing.num_shared_nodes -= stats_before.sharing.num_shared_nodes
        sharing.cache_reuse_count -= stats_before.sharing.cache_reuse_count
        for attribute in ("num_hc_s_nodes", "num_shared_nodes", "cache_reuse_count"):
            setattr(sharing, attribute, getattr(sharing, attribute) / batches)
        paths_out = samples.paths_out / batches
        repeats = batches
        sealed = {n["version"] for n in layers.notes("graph.seal")}
        metrics["graph.versions_sealed"] = len(sealed) / batches
        metrics["graph.mutations"] = samples.mutations / batches
        tickets = stats_after.completed - stats_before.completed
        busy = layers.busy.get("engine.stream_planned", 0.0)
        planning = layers.busy.get("planner.plan", 0.0)
        pooled = samples.ticket_latencies
        metrics.update({
            "service.ticket_p50_s": wl.percentile(pooled, 0.50),
            "service.ticket_p99_s": wl.percentile(pooled, 0.99),
            "service.batches_dispatched": float(batches),
            "service.mean_batch_size": tickets / batches,
            "service.joined_fast_path": float(
                stats_after.joined_fast_path - stats_before.joined_fast_path
            ),
            "service.dispatch_busy_s": busy / batches,
            "service.plan_s": planning / batches,
            "service.other_s": (sum(samples.batch_walls) - busy - planning) / batches,
        })
    metrics.update({
        "detection.hc_s_nodes": float(sharing.num_hc_s_nodes),
        "detection.shared_nodes": float(sharing.num_shared_nodes),
        "batch_enum.cache_reuse_count": float(sharing.cache_reuse_count),
        "batch_enum.cache_peak_entries": float(sharing.cache_peak_entries),
        "batch_enum.sharing_speedup": basic_wall / batch_wall,
        "enumeration.paths_out": float(paths_out),
    })
    busy_s = spans.enumeration_busy_s(metrics)
    metrics["enumeration.paths_per_busy_s"] = paths_out / busy_s if busy_s else 0.0
    # Untraced and traced operations alternate, so the ratio of neighbours
    # cancels the machine's slow phases; the median ratio is the overhead.
    pairs = list(zip(baseline.batch_walls, samples.batch_walls))
    metrics["engine.trace_overhead_fraction"] = (
        statistics.median(traced / untraced for untraced, traced in pairs) - 1.0
    )
    predicted = sum(l.total("planner.plan", "predicted_s") for l in layers_list)
    actual = counters.get("repro_cost_actual_seconds_total", 0.0)
    metrics["planner.predicted_over_actual"] = predicted / actual if actual else 0.0
    metrics.update(spans.executor_metrics(
        layers_list, counters, histograms, workload.options.get("num_workers", 1),
    ))

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{workload.name}.json"
    trace_file.write_text(json.dumps(
        {"environment": environment(args), "workload": workload.name,
         "spans": recorder.spans}
    ))
    print(f"{workload.name}: traced pass, {repeats} repeats, "
          f"{len(recorder.spans)} spans -> {trace_file.relative_to(ROOT)}")
    print(f"  untraced wall {wl.undisturbed(baseline.batch_walls):.4f} s, "
          f"traced wall {wl.undisturbed(samples.batch_walls):.4f} s; "
          f"basic+ {basic_wall:.4f} s vs batch+ {batch_wall:.4f} s")
    for name, value in metrics.items():
        show(name, value, UNIT[name])
    return finish(
        correct, [baseline, samples],
        {name: (value, UNIT[name]) for name, value in metrics.items()},
    )


# ---------------------------------------------------------------------- #
# All workloads, each pass in a child process
# ---------------------------------------------------------------------- #
def child(name: str, args: argparse.Namespace, traced: int) -> Dict[str, object]:
    """Run one pass of one workload in a fresh interpreter; relay its
    report and return the parsed result line."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(traced), "--scale", args.scale],
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = completed.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if completed.returncode != 0:
        raise RuntimeError(f"{name} (trace {traced}) exited {completed.returncode}")
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, passes: Tuple[int, ...]) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for name in wl.WORKLOADS:
        results[name] = {
            "per_layer" if traced else "end_to_end": child(name, args, traced)
            for traced in passes
        }
    return results


def run_all(args: argparse.Namespace) -> int:
    results = run_set(args, (0, 1))
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"environment": environment(args), "workloads": results}, indent=1
    ))
    clean = all(
        part["correct"] and part["failed"] == 0
        for result in results.values() for part in result.values()
    )
    print(f"results -> {(OUT / 'results.json').relative_to(ROOT)}; "
          f"{'all outputs verified' if clean else 'FAILURES (see above)'}")
    return 0 if clean else 1


def check_repeatability(args: argparse.Namespace) -> int:
    """Two untraced sets back to back; per (metric, workload) the share by
    which the second is worse than the first, next to the bound."""
    declared = CONTRACT["end_to_end"]
    first, second = run_set(args, (0,)), run_set(args, (0,))
    exceeded = 0
    print(f"{'workload':<20} {'metric':<16} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for name in wl.WORKLOADS:
        for metric in declared:
            a = first[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            b = second[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            over = worse > metric["bound"]
            exceeded += over
            print(f"{name:<20} {metric['name']:<16} {a:>12.6g} {b:>12.6g} "
                  f"{worse:>+9.3f} {metric['bound']:>6}{'  EXCEEDED' if over else ''}")
    return 1 if exceeded else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(CONTRACT["run_seconds"]),
                        help="length of one timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--check-repeatability", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.check_repeatability:
            return check_repeatability(args)
        if args.workload is None:
            return run_all(args)
        wl.verify_paper_example()
        workload = wl.WORKLOADS[args.workload]
        return (run_traced if args.trace else run_untraced)(workload, args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
