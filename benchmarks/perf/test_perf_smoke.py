"""Tier-1 smoke test of ``benchmarks/perf``: the whole command at tiny sizes.

Checks the contract between ``BENCHMARK.json`` and what ``run.py`` prints,
not the numbers: every declared metric is emitted finite for every
workload, nothing failed, trace self times add up to their root, and the
span wrappers leave no trace behind.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _load_trace_module():
    # Loaded under a private name: a bare ``import trace`` from this process
    # would shadow (or be shadowed by) the standard library's ``trace``.
    spec = importlib.util.spec_from_file_location("perf_trace", HERE / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0.2", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads((HERE / "out" / "results.json").read_text())


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/perf"]
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_every_declared_metric_is_emitted(contract, smoke_results):
    stamp = smoke_results["environment"]
    assert {"commit", "python", "platform", "nproc", "numpy",
            "loadavg_at_start", "seed"} <= set(stamp)
    workloads = smoke_results["workloads"]
    assert list(workloads) == [w["name"] for w in contract["workloads"]]
    for name, passes in workloads.items():
        for kind in ("end_to_end", "per_layer"):
            result = passes[kind]
            assert result["correct"] is True, (name, kind)
            assert result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in contract[kind]}
            assert set(result["metrics"]) == set(declared), (name, kind)
            for metric, reading in result["metrics"].items():
                assert reading["unit"] == declared[metric]
                assert math.isfinite(reading["value"]), (name, metric)
        for metric, reading in passes["end_to_end"]["metrics"].items():
            assert reading["value"] > 0, (name, metric)


def test_executor_layer_is_silent_unless_sharded(smoke_results):
    for name, passes in smoke_results["workloads"].items():
        busy = passes["per_layer"]["metrics"]["executor.stream_parallel_s"]["value"]
        assert (busy > 0) == (name == "deep_paths_sharded")


def test_trace_self_times_sum_to_root(smoke_results):
    tracing = _load_trace_module()
    trace = json.loads((HERE / "out" / "trace_deep_paths.json").read_text())
    by_repeat = {}
    for span in trace["spans"]:
        by_repeat.setdefault(span["trace"], []).append(span)
    assert len(by_repeat) >= 1
    for spans in by_repeat.values():
        assert tracing.root_closure_error(spans) <= 0.01


def test_wrappers_are_fully_uninstalled():
    from repro import BatchQueryEngine, HCSTQuery
    from repro.batch import batch_enum
    from repro.graph.generators import paper_example_graph

    tracing = _load_trace_module()
    original_join = batch_enum.join_path_sets
    original_run = BatchQueryEngine.__dict__["run"]
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert batch_enum.join_path_sets is not original_join
        BatchQueryEngine(paper_example_graph()).run([HCSTQuery(0, 11, 5)])
    assert {"engine.run", "enumeration.join"} <= {s["name"] for s in recorder.spans}
    assert batch_enum.join_path_sets is original_join
    assert BatchQueryEngine.__dict__["run"] is original_run
    assert tracing.leftovers() == []
