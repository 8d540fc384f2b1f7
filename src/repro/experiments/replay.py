"""One replay of the paper's evaluation (Section V): Table I, Fig. 3(c)
and Figs. 7-13 as rows of one table.

:data:`FIGURES` holds one :class:`Figure` per table or figure: the swept
setting and its values, the algorithms compared and the workload recipe.
:func:`replay` runs one figure and returns one row per (dataset, value,
algorithm), each carrying the wall, the four Fig. 9 stages, paths,
clusters, shared nodes, |Q| and the achieved µ_Q of a similar workload.
Every run goes through :class:`~repro.batch.engine.BatchQueryEngine` or
one of the Exp-6 :data:`~repro.baselines.BASELINES`.

``python -m repro.experiments.replay [--figure F ...] [--full]
[--queries N] [--scale X] [--out PATH]`` prints one text table per figure
(all of them by default) and ``--out`` writes every row as one JSON list.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines import BASELINES
from repro.batch.config import ALGORITHMS
from repro.batch.engine import BatchQueryEngine
from repro.experiments.datasets import dataset_names, dataset_table, load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.sampling import sample_vertices
from repro.queries.generation import generate_random_queries, generate_similar_workload
from repro.queries.query import HCSTQuery
from repro.utils.validation import require

#: The four stages of the Fig. 9 decomposition, one column each.
STAGES: Tuple[str, ...] = ("BuildIndex", "ClusterQuery", "IdentifySubquery", "Enumeration")

Row = Dict[str, object]


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper as a sweep over one setting."""

    name: str
    title: str
    #: The swept setting: "similarity" (the target µ_Q), "queries" (|Q|),
    #: "gamma", "fraction" (of the vertices kept) or "k"; None for a
    #: figure of one cell per dataset.
    param: Optional[str] = None
    values: Tuple = (None,)
    #: Engine algorithms or :data:`~repro.baselines.BASELINES` names; none
    #: for Table I, which reports the datasets only.
    algorithms: Tuple[str, ...] = ("batch+",)
    queries: int = 30
    #: Target µ_Q of a similar workload; None draws random queries.
    similarity: Optional[float] = None
    k: Tuple[int, int] = (3, 4)
    gamma: float = 0.5
    #: The figure's own datasets; None runs the quick (or full) suite.
    datasets: Optional[Tuple[str, ...]] = None
    #: Fig. 3(c): also time a scan of the materialised result paths.
    scan: bool = False


FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure("table1", "Table I — dataset statistics (synthetic stand-ins)",
               algorithms=()),
        Figure("fig3c", "Fig. 3(c) — enumeration vs. materialised retrieval",
               algorithms=("basic+",), queries=20, scan=True),
        Figure("fig7", "Fig. 7 — time vs. query similarity", param="similarity",
               values=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9), algorithms=ALGORITHMS,
               similarity=0.0),
        Figure("fig8", "Fig. 8 — time vs. query set size", param="queries",
               values=(20, 40, 60, 80, 100), algorithms=ALGORITHMS),
        Figure("fig9", "Fig. 9 — BatchEnum+ processing time decomposition",
               similarity=0.5),
        Figure("fig10", "Fig. 10 — BatchEnum+ time vs. γ", param="gamma",
               values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
               similarity=0.5),
        Figure("fig11", "Fig. 11 — time vs. graph size", param="fraction",
               values=(0.2, 0.4, 0.6, 0.8, 1.0),
               algorithms=("basic", "basic+", "batch", "batch+"),
               datasets=("TW", "FS")),
        Figure("fig12", "Fig. 12 — adapted KSP algorithms vs. BatchEnum+",
               algorithms=("dksp", "onepass", "batch+"), queries=10),
        Figure("fig13", "Fig. 13 — number of HC-s-t paths vs. k", param="k",
               values=(3, 4, 5), queries=20),
    )
}


def replay(
    figure: Figure,
    datasets: Optional[Sequence[str]] = None,
    quick: bool = True,
    queries: Optional[int] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Row]:
    """Rows of ``figure``: one per (dataset, swept value, algorithm).

    ``datasets`` overrides the figure's own datasets, which default to the
    quick suite (all twelve with ``quick=False``); ``queries`` overrides
    |Q| unless |Q| is the swept setting.  Every algorithm of a cell must
    return the same number of paths.
    """
    names = list(datasets or figure.datasets or dataset_names(quick=quick))
    if not figure.algorithms:
        table = dataset_table(scale=scale, quick=datasets is None and quick)
        return [
            {"figure": figure.name, "dataset": row.pop("name"), **row}
            for row in table
            if row["name"] in names
        ]
    rows: List[Row] = []
    for name in names:
        full_graph = load_dataset(name, scale=scale)
        for value in figure.values:
            setting = {"queries": queries or figure.queries, "similarity": figure.similarity,
                       "gamma": figure.gamma, "k": figure.k}
            if figure.param == "k":
                setting["k"] = (value, value)
            elif figure.param in setting:
                setting[figure.param] = value
            graph = full_graph
            if figure.param == "fraction":
                graph = sample_vertices(full_graph, value, seed=seed)
            try:
                workload, mu = _draw(graph, setting, seed)
            except ValueError:
                # A heavily sampled graph can be too fragmented for the
                # batch size: skip the point rather than fail the sweep.
                if figure.param != "fraction":
                    raise
                continue
            head: Row = {"figure": figure.name, "dataset": name}
            if figure.param not in (None, "queries"):
                head[figure.param] = value
            head.update(queries=len(workload), mu_q=mu)
            if figure.param == "fraction":
                head["edges"] = graph.num_edges
            cell = [
                {**head, **_run(graph, workload, algorithm, setting["gamma"], figure.scan)}
                for algorithm in figure.algorithms
            ]
            counts = {row["algorithm"]: row["paths"] for row in cell}
            require(
                len(set(counts.values())) == 1,
                f"algorithms disagree on the total number of result paths: {counts}",
            )
            rows.extend(cell)
    return rows


def _draw(
    graph: DiGraph, setting: Mapping[str, object], seed: int
) -> Tuple[List[HCSTQuery], Optional[float]]:
    """The cell's workload and its achieved µ_Q (None for random queries)."""
    min_k, max_k = setting["k"]
    if setting["similarity"] is None:
        workload = generate_random_queries(
            graph, setting["queries"], min_k=min_k, max_k=max_k, seed=seed
        )
        return workload, None
    workload, spec = generate_similar_workload(
        graph, setting["queries"], target_similarity=setting["similarity"],
        min_k=min_k, max_k=max_k, seed=seed,
    )
    return workload, spec.achieved_similarity or 0.0


def _run(
    graph: DiGraph, workload: List[HCSTQuery], algorithm: str, gamma: float, scan: bool
) -> Row:
    """Time one ``algorithm`` on ``workload``: a fresh engine, or a
    baseline function, called once."""
    if algorithm in BASELINES:
        run = partial(BASELINES[algorithm], graph)
    else:
        run = BatchQueryEngine(graph, algorithm=algorithm, gamma=gamma).run
    started = time.perf_counter()
    result = run(workload)
    wall = time.perf_counter() - started
    row: Row = {"algorithm": result.algorithm, "wall_s": wall}
    row.update((stage, result.stage_seconds(stage)) for stage in STAGES)
    row.update(
        paths=result.total_paths(),
        clusters=result.sharing.num_clusters,
        shared_nodes=result.sharing.num_shared_nodes,
    )
    if scan:
        # Materialise the answers, then pay what a consumer pays to read
        # them: one visit per vertex of every path.
        materialized = [result.paths_at(position) for position in range(len(workload))]
        started = time.perf_counter()
        for paths in materialized:
            for path in paths:
                for _vertex in path:
                    pass
        row["scan_s"] = time.perf_counter() - started
    return row


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render homogeneous dict rows as an aligned text table."""
    cells = [[_text(value) for value in row.values()] for row in rows]
    headers = list(rows[0]) if rows else ["(no rows)"]
    widths = [max(len(text) for text in column) for column in zip(headers, *cells)]
    lines = [title] if title else []
    for line in [headers, ["-" * width for width in widths], *cells]:
        lines.append("  ".join(text.ljust(width) for text, width in zip(line, widths)).rstrip())
    return "\n".join(lines)


def _text(value: object) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--figure", action="append", choices=list(FIGURES),
                        help="replay this table or figure (repeatable; default: all)")
    parser.add_argument("--full", action="store_true",
                        help="all twelve datasets instead of the quick four")
    parser.add_argument("--queries", type=int, help="|Q| of every cell not sweeping |Q|")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (1.0 = the default suite)")
    parser.add_argument("--out", help="write every row as one JSON list here")
    arguments = parser.parse_args(argv)
    everything: List[Row] = []
    for name in arguments.figure or FIGURES:
        figure = FIGURES[name]
        rows = replay(figure, quick=not arguments.full, queries=arguments.queries,
                      scale=arguments.scale)
        print(format_table(rows, title=figure.title), end="\n\n", flush=True)
        everything.extend(rows)
    if arguments.out:
        with open(arguments.out, "w") as handle:
            json.dump(everything, handle, indent=1)


if __name__ == "__main__":
    main()
