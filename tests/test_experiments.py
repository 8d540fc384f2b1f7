"""Tests for the dataset suite and the paper replay (reduced scales)."""

import json
import math
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.experiments import datasets
from repro.experiments import replay as replay_module
from repro.experiments.replay import FIGURES, STAGES, format_table, replay

SMALL_SCALE = 0.25  # shrink every dataset for the test suite

#: Every figure at smoke size: its sweep shrunk, EP at a quarter scale
#: (Fig. 11: TW at a tenth) and 8 queries per cell.
SMOKE = {
    "table1": (FIGURES["table1"], {}),
    "fig3c": (FIGURES["fig3c"], {}),
    "fig7": (replace(FIGURES["fig7"], values=(0.0, 0.8)), {}),
    "fig8": (replace(FIGURES["fig8"], values=(4, 8)), {}),
    "fig9": (FIGURES["fig9"], {}),
    "fig10": (replace(FIGURES["fig10"], values=(0.2, 0.8)), {}),
    "fig11": (replace(FIGURES["fig11"], values=(0.5, 1.0)), {"datasets": ["TW"], "scale": 0.1}),
    "fig12": (FIGURES["fig12"], {}),
    "fig13": (replace(FIGURES["fig13"], values=(3, 4)), {}),
}

COMMON = ("figure", "dataset", "queries", "mu_q", "algorithm", "wall_s", *STAGES,
          "paths", "clusters", "shared_nodes")


@lru_cache(maxsize=None)
def _rows(name):
    """The smoke rows of one figure, with the columns every run row has and
    one path count per cell checked."""
    figure, overrides = SMOKE[name]
    if not figure.algorithms:
        return replay(figure, scale=SMALL_SCALE, **overrides)
    arguments = {"datasets": ["EP"], "queries": 8, "scale": SMALL_SCALE, **overrides}
    rows = replay(figure, **arguments)
    assert rows
    cells = {}
    for row in rows:
        assert set(COMMON) <= set(row)
        assert row["figure"] == figure.name
        cells.setdefault((row["dataset"], row.get(figure.param)), set()).add(row["paths"])
    assert all(len(counts) == 1 for counts in cells.values())
    assert len(rows) == len(cells) * len(figure.algorithms)
    return rows


def test_every_figure_has_a_smoke_case():
    assert set(SMOKE) == set(FIGURES)


# --------------------------------------------------------------------- #
# Dataset suite (Table I)
# --------------------------------------------------------------------- #
def test_dataset_registry_has_twelve_named_datasets():
    names = datasets.dataset_names()
    assert names == ["EP", "SL", "BK", "WT", "BS", "SK", "UK", "DA", "PO", "LJ", "TW", "FS"]


def test_dataset_sizes_preserve_paper_ordering():
    """The synthetic stand-ins keep the relative |V| ordering of Table I for
    the extreme datasets."""
    ep = datasets.load_dataset("EP", scale=SMALL_SCALE)
    fs = datasets.load_dataset("FS", scale=SMALL_SCALE)
    assert ep.num_vertices < fs.num_vertices


def test_dataset_loading_is_cached_and_deterministic():
    a = datasets.load_dataset("EP", scale=SMALL_SCALE)
    b = datasets.load_dataset("EP", scale=SMALL_SCALE)
    assert a is b


def test_dataset_table_rows():
    rows = _rows("table1")
    assert [row["dataset"] for row in rows] == list(datasets.QUICK_DATASETS)
    for row in rows:
        assert row["figure"] == "table1"
        assert row["|V|"] > 0
        assert row["|E|"] > 0
        assert row["davg"] > 0
    assert "EP" in format_table(rows)


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        datasets.load_dataset("NOPE")


# --------------------------------------------------------------------- #
# The replay's runs, guard and table
# --------------------------------------------------------------------- #
def test_run_algorithm_records_time_and_paths():
    """Every run row carries a positive wall, non-negative stages and the
    paper's name for its algorithm."""
    names = set()
    for name, (figure, _) in SMOKE.items():
        for row in _rows(name) if figure.algorithms else ():
            assert row["wall_s"] > 0.0
            assert row["paths"] >= 0
            assert all(row[stage] >= 0.0 for stage in STAGES)
            names.add(row["algorithm"])
    assert names == {"PathEnum", "BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+",
                     "DkSP", "OnePass"}


def test_compare_algorithms_agree_on_path_counts(monkeypatch):
    """A cell whose algorithms disagree on the number of paths fails."""
    run = replay_module._run

    def off_by_one(graph, workload, algorithm, gamma, scan):
        row = run(graph, workload, algorithm, gamma, scan)
        row["paths"] += algorithm == "batch+"
        return row

    monkeypatch.setattr(replay_module, "_run", off_by_one)
    with pytest.raises(ValueError, match="disagree"):
        replay(FIGURES["fig12"], datasets=["EP"], queries=2, scale=SMALL_SCALE)


def test_reporting_formats():
    table = format_table([{"a": 1, "b": 0.123456, "c": None}, {"a": 22, "b": 2.0, "c": "x"}],
                         title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert lines[1].split() == ["a", "b", "c"]
    assert lines[3].split() == ["1", "0.1235", "-"]
    assert lines[4].split() == ["22", "2", "x"]
    assert "(no rows)" in format_table([])


def test_main_writes_every_row_as_one_json_list(tmp_path, capsys):
    out = tmp_path / "replay.json"
    replay_module.main(["--figure", "table1", "--figure", "fig9", "--scale", "0.1",
                        "--queries", "4", "--out", str(out)])
    rows = json.loads(out.read_text())
    assert [row["figure"] for row in rows] == ["table1"] * 4 + ["fig9"] * 4
    assert FIGURES["fig9"].title in capsys.readouterr().out


# --------------------------------------------------------------------- #
# One case per figure (smoke level, reduced scale)
# --------------------------------------------------------------------- #
def test_fig7_similarity_experiment_shape():
    rows = _rows("fig7")
    for similarity in (0.0, 0.8):
        cell = [row for row in rows if row["similarity"] == similarity]
        assert {row["algorithm"] for row in cell} >= {"BasicEnum", "BatchEnum", "BatchEnum+"}
        assert all(row["wall_s"] > 0 for row in cell)
    mu = next(row["mu_q"] for row in rows if row["similarity"] == 0.8)
    assert 0.0 <= mu <= 1.0
    limit = 1.0 / (1.0 - mu) if mu < 1.0 else math.inf
    assert limit >= 1.0


def test_fig8_query_set_size_experiment_shape():
    rows = _rows("fig8")
    for algorithm in {row["algorithm"] for row in rows}:
        assert {row["queries"] for row in rows if row["algorithm"] == algorithm} == {4, 8}


def test_fig9_decomposition_covers_all_stages():
    (row,) = _rows("fig9")
    assert row["algorithm"] == "BatchEnum+"
    assert row["mu_q"] is not None
    assert row["wall_s"] >= sum(row[stage] for stage in STAGES) * 0.99


def test_fig10_gamma_experiment_shape():
    by_gamma = {row["gamma"]: row for row in _rows("fig10")}
    assert set(by_gamma) == {0.2, 0.8}
    # Lower γ merges more aggressively, so it cannot produce more clusters.
    assert by_gamma[0.2]["clusters"] <= by_gamma[0.8]["clusters"]


def test_fig11_scalability_experiment_shape():
    rows = _rows("fig11")
    edges = {row["fraction"]: row["edges"] for row in rows}
    assert edges[1.0] >= edges[0.5]
    assert all(row["wall_s"] > 0 for row in rows)


def test_fig12_ksp_experiment_orders_of_magnitude():
    walls = {row["algorithm"]: row["wall_s"] for row in _rows("fig12")}
    assert set(walls) == {"DkSP", "OnePass", "BatchEnum+"}
    # The adapted KSP algorithms must be slower than the batch algorithm.
    assert walls["DkSP"] > walls["BatchEnum+"]
    assert walls["OnePass"] > walls["BatchEnum+"]


def test_fig13_path_counts_grow_with_k():
    averages = {row["k"]: row["paths"] / row["queries"] for row in _rows("fig13")}
    assert averages[4] >= averages[3]


def test_fig3c_materialization_gap():
    (row,) = _rows("fig3c")
    assert row["wall_s"] > 0
    assert row["scan_s"] >= 0
    ratio = row["wall_s"] / max(row["scan_s"], 1e-9)
    assert math.isfinite(ratio)
    # Scanning materialised results must be much cheaper than enumerating.
    assert ratio > 5.0
