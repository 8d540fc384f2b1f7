#!/usr/bin/env python3
"""Same answers as another revision: result digests of the five engine names.

    python3 benchmarks/digest.py --against HEAD~1
    python3 benchmarks/digest.py --against HEAD~1 --allow-sharing basic --allow-sharing basic+

The draws are fixed: Fig. 1 (the paper's example graph and its five
queries) and the first seeded draw of every workload of
``benchmarks/perf/workloads.py`` (imported read-only, run with that
workload's engine options).  ``<rev>``'s ``src/`` is extracted with ``git
archive`` into a temporary directory — local objects only, nothing fetched,
no worktree left registered — and this tree and that one each run every
draw under ``pathenum``, ``basic``, ``basic+``, ``batch`` and ``batch+`` in
a fresh interpreter.

One digest is one (draw, name) pair.  It matches when every position's
sorted path list and ``repr(BatchResult.sharing)`` are equal: order
*within* a position is unspecified (README, "Result order").  Each digest
also drains ``stream(ordered=True)``, whose positions must come out
``0..n-1``, and ``stream(ordered=False)``, where each position must come
out exactly once; both streams' sorted lists must equal ``run()``'s and
the other revision's.  Beside them, one graph digest per draw and per
``repro.graph.generators`` family (at one fixed small seed) hashes the
graph's out-rows and in-rows, so a change to the graph layer is checked
row for row.  The last line is ``N mismatches over M digests``;
each mismatch is printed above it.  ``--allow-sharing NAME`` turns a
``sharing``-only difference of that name into an "allowed" line, for a
change that means to move those counters.  Positions whose emitted order
differs, and an ``ordered=False`` stream that flushes its positions in
another order, are listed as "order" lines, never as mismatches.  Exit
status is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALGORITHMS = ("pathenum", "basic", "basic+", "batch", "batch+")
#: The stream surfaces digested beside ``run()``, with their ``ordered``.
STREAMS = {"stream(ordered=True)": True, "stream(ordered=False)": False}
#: ``benchmarks/perf/run.py``'s default seed, so the draws are its first.
SEED = 20240
#: One small graph of every generator family: (function name, arguments),
#: each also called with ``seed=SEED``.
GENERATED = {
    "random_directed_gnm": (500, 4000),
    "powerlaw_directed": (600, 5),
    "small_world_directed": (500, 4),
    "layered_dag": (6, 40, 3),
}


def draws() -> List[Dict[str, object]]:
    """Fig. 1 plus the first full-scale draw of every perf workload, as
    plain data."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE / "perf")]
    import workloads as wl
    from repro.graph.generators import PAPER_EXAMPLE_QUERIES, paper_example_graph

    paper = paper_example_graph()
    found = [{
        "name": "fig1",
        "edges": sorted(paper.edges()),
        "num_vertices": paper.num_vertices,
        "queries": [list(query) for query in PAPER_EXAMPLE_QUERIES],
        "options": {"gamma": 0.8},
    }]
    for name, workload in wl.WORKLOADS.items():
        inputs = workload.draw(random.Random(SEED), workload.sizes["full"])
        found.append({
            "name": name,
            "edges": [list(edge) for edge in inputs.edges],
            "num_vertices": inputs.num_vertices,
            "queries": [[q.s, q.t, q.k] for q in inputs.queries],
            "options": workload.options,
        })
    return found


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def graph_digest(graph) -> Dict[str, object]:
    """Vertex and edge counts, and one hash each of the out- and in-rows."""
    return {
        "counts": [graph.num_vertices, graph.num_edges],
        "out": _sha([tuple(graph.out_neighbors(v)) for v in graph.vertices()]),
        "in": _sha([tuple(graph.in_neighbors(v)) for v in graph.vertices()]),
    }


def child(draws_file: str) -> None:
    """Run every draw under every name on the ``repro`` of ``PYTHONPATH``
    and print one JSON line per digest."""
    import repro
    from repro import BatchQueryEngine, DiGraph, HCSTQuery
    from repro.enumeration.paths import sort_paths
    from repro.graph import generators

    print(json.dumps({"repro": repro.__file__}), flush=True)
    for family, arguments in GENERATED.items():
        graph = getattr(generators, family)(*arguments, seed=SEED)
        print(json.dumps({"graph": family, **graph_digest(graph)}), flush=True)
    for draw in json.loads(Path(draws_file).read_text()):
        graph = DiGraph.from_edges(
            [tuple(edge) for edge in draw["edges"]],
            num_vertices=draw["num_vertices"],
        )
        print(json.dumps({"graph": draw["name"], **graph_digest(graph)}), flush=True)
        queries = [HCSTQuery(*triple) for triple in draw["queries"]]
        for algorithm in ALGORITHMS:
            engine = BatchQueryEngine(graph, algorithm, **draw["options"])
            result = engine.run(queries)
            emitted = [result.paths_at(i) for i in range(len(queries))]
            streams = {}
            for surface, ordered in STREAMS.items():
                order, digests = [], {}
                for position, paths in engine.stream(queries, ordered=ordered):
                    order.append(position)
                    digests[position] = _sha(sort_paths(paths))
                streams[surface] = {
                    "order": order,
                    "sorted": [digests.get(i) for i in range(len(queries))],
                }
            print(json.dumps({
                "draw": draw["name"],
                "algorithm": algorithm,
                "sorted": [_sha(sort_paths(paths)) for paths in emitted],
                "emitted": [_sha(paths) for paths in emitted],
                "sharing": repr(result.sharing),
                "fields": dataclasses.asdict(result.sharing),
                "streams": streams,
            }), flush=True)
            del result, emitted


def run_tree(tree: Path, draws_file: str) -> Dict[tuple, dict]:
    """Digests of one tree, keyed by (draw, algorithm) for results and by
    ("graph", draw or family) for graphs."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", draws_file],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()
    loaded = Path(json.loads(out[0])["repro"]).resolve()
    if tree.resolve() not in loaded.parents:
        raise RuntimeError(f"{tree} imported repro from {loaded}")
    records = [json.loads(line) for line in out[1:]]
    return {
        ("graph", r["graph"]) if "graph" in r else (r["draw"], r["algorithm"]): r
        for r in records
    }


def extract(rev: str, into: Path) -> Path:
    """``rev``'s ``src/`` under ``into``, from the local object store."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as archive:
        archive.extractall(into, filter="data")
    return into


def stream_faults(record: dict) -> List[str]:
    """How one tree's streams break their contract: positions out of
    ``ordered``'s order, or sorted lists other than ``run()``'s."""
    faults = []
    everyone = list(range(len(record["sorted"])))
    for surface, stream in record["streams"].items():
        order = stream["order"]
        if (order if STREAMS[surface] else sorted(order)) != everyone:
            faults.append(f"{surface} flushed positions {order[:20]}")
        elif stream["sorted"] != record["sorted"]:
            faults.append(f"{surface} sorted paths differ from run()'s")
    return faults


def compare(
    theirs: Dict[tuple, dict], ours: Dict[tuple, dict], allow_sharing: List[str]
) -> int:
    """Print every mismatch, allowed difference and order note; return the
    number of mismatches."""
    mismatches = reordered_digests = reflushed_digests = 0
    for key in sorted(set(theirs) | set(ours)):
        label = "/".join(key)
        if key not in theirs or key not in ours:
            print(f"MISMATCH {label}: run on one side only")
            mismatches += 1
            continue
        old, new = theirs[key], ours[key]
        if key[0] == "graph":
            for field in ("counts", "out", "in"):
                if old[field] != new[field]:
                    print(f"MISMATCH {label}: {field} {old[field]} -> {new[field]}")
                    mismatches += 1
            continue
        positions = [
            i for i, pair in enumerate(zip(old["sorted"], new["sorted"]))
            if pair[0] != pair[1]
        ]
        if positions or len(old["sorted"]) != len(new["sorted"]):
            print(f"MISMATCH {label}: sorted paths differ at positions {positions[:20]}")
            mismatches += 1
        if old["sharing"] != new["sharing"]:
            changed = {
                field: (old["fields"][field], new["fields"][field])
                for field in old["fields"]
                if old["fields"][field] != new["fields"].get(field)
            }
            if key[1] in allow_sharing:
                print(f"allowed  {label}: sharing {changed}")
            else:
                print(f"MISMATCH {label}: {old['sharing']} -> {new['sharing']}")
                mismatches += 1
        faults = [
            f"{side}: {fault}"
            for side, record in (("theirs", old), ("ours", new))
            for fault in stream_faults(record)
        ]
        faults += [
            f"{surface} sorted paths differ from the other revision's"
            for surface in STREAMS
            if old["streams"][surface]["sorted"] != new["streams"][surface]["sorted"]
        ]
        for fault in faults:
            print(f"MISMATCH {label}: {fault}")
        mismatches += len(faults)
        unordered = "stream(ordered=False)"
        if old["streams"][unordered]["order"] != new["streams"][unordered]["order"]:
            print(f"order    {label}: {unordered} flushed positions in another order")
            reflushed_digests += 1
        reordered = [
            i for i, pair in enumerate(zip(old["emitted"], new["emitted"]))
            if pair[0] != pair[1]
        ]
        if reordered and not positions:
            print(f"order    {label}: {len(reordered)} positions emitted in another order")
        reordered_digests += bool(reordered)
    print(f"emitted order differs in {reordered_digests} digests")
    print(f"stream(ordered=False) position order differs in {reflushed_digests} digests")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument(
        "--allow-sharing", action="append", default=[], choices=ALGORITHMS,
        metavar="NAME", help="tolerate a sharing-stats difference of NAME",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not args.against:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory(prefix="digest-") as scratch:
        draws_file = str(Path(scratch) / "draws.json")
        Path(draws_file).write_text(json.dumps(draws()))
        other = extract(args.against, Path(scratch) / "tree")
        theirs = run_tree(other, draws_file)
        ours = run_tree(ROOT, draws_file)
    mismatches = compare(theirs, ours, args.allow_sharing)
    print(f"{mismatches} mismatches over {len(set(theirs) | set(ours))} digests")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
