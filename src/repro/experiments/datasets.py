"""The synthetic stand-ins for the paper's twelve datasets (Table I).

The paper evaluates on real graphs between 75 K and 65 M vertices (up to
1.8 B edges).  Those graphs are not redistributable here and far exceed
what pure-Python enumeration can process, so each dataset is replaced by a
deterministic synthetic graph that keeps

* the *relative ordering* of vertex counts and edge counts,
* the *degree character* (heavy-tailed for the social networks, dense and
  more regular for the web/recommendation graphs), and
* the dataset *names*, so every experiment prints rows labelled exactly
  like the paper's.

The ``scale`` knob multiplies every vertex count; 1.0 is the default used
by the paper replay (:mod:`repro.experiments.replay`) and finishes in
seconds per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    powerlaw_directed,
    random_directed_gnm,
    small_world_directed,
)
from repro.graph.stats import GraphStats, compute_stats
from repro.utils.validation import require


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset.

    ``paper_vertices`` / ``paper_edges`` / ``paper_davg`` record the real
    dataset's statistics from Table I for side-by-side reporting.
    """

    name: str
    full_name: str
    generator: str            # "powerlaw" | "gnm" | "smallworld"
    vertices: int
    degree: int
    seed: int
    paper_vertices: str
    paper_edges: str
    paper_davg: float


#: The twelve datasets of Table I in the paper's order.
DATASETS: Tuple[DatasetSpec, ...] = (
    DatasetSpec("EP", "Epinions", "powerlaw", 1500, 7, 101, "75K", "508K", 13.4),
    DatasetSpec("SL", "Slashdot", "powerlaw", 1600, 11, 102, "82K", "948K", 21.2),
    DatasetSpec("BK", "Baidu-baike", "powerlaw", 4000, 3, 103, "416K", "3M", 5.0),
    DatasetSpec("WT", "WikiTalk", "powerlaw", 6000, 3, 104, "2M", "5M", 5.0),
    DatasetSpec("BS", "BerkStan", "smallworld", 3000, 11, 105, "685K", "7M", 22.2),
    DatasetSpec("SK", "Skitter", "powerlaw", 5000, 7, 106, "1.6M", "11M", 13.1),
    DatasetSpec("UK", "Web-uk-2005", "smallworld", 1200, 45, 107, "130K", "11.7M", 181.2),
    DatasetSpec("DA", "Rec-dating", "gnm", 1500, 50, 108, "169K", "17M", 205.7),
    DatasetSpec("PO", "Pokec", "powerlaw", 5000, 19, 109, "1.6M", "31M", 37.5),
    DatasetSpec("LJ", "LiveJournal", "powerlaw", 8000, 9, 110, "4M", "69M", 17.9),
    DatasetSpec("TW", "Twitter-2010", "powerlaw", 12000, 18, 111, "42M", "1.46B", 70.5),
    DatasetSpec("FS", "Friendster", "powerlaw", 15000, 7, 112, "65M", "1.81B", 27.5),
)

_BY_NAME: Dict[str, DatasetSpec] = {spec.name: spec for spec in DATASETS}

#: Subset used by the quick benchmark configuration (one per size class).
QUICK_DATASETS: Tuple[str, ...] = ("EP", "BK", "UK", "LJ")


def dataset_names(quick: bool = False) -> List[str]:
    """Names of the datasets, in Table I order."""
    if quick:
        return list(QUICK_DATASETS)
    return [spec.name for spec in DATASETS]


def get_spec(name: str) -> DatasetSpec:
    require(name in _BY_NAME, f"unknown dataset {name!r}; known: {sorted(_BY_NAME)}")
    return _BY_NAME[name]


@lru_cache(maxsize=None)
def load_dataset(name: str, scale: float = 1.0) -> DiGraph:
    """Generate (and cache) the synthetic graph for ``name``.

    ``scale`` multiplies the vertex count (edges scale accordingly); the
    scalability experiment uses it to shrink the two largest datasets.
    """
    spec = get_spec(name)
    require(scale > 0.0, "scale must be positive")
    vertices = max(50, int(round(spec.vertices * scale)))
    if spec.generator == "powerlaw":
        return powerlaw_directed(
            vertices, spec.degree, seed=spec.seed, reciprocal_probability=0.3
        )
    if spec.generator == "gnm":
        return random_directed_gnm(vertices, vertices * spec.degree, seed=spec.seed)
    if spec.generator == "smallworld":
        return small_world_directed(
            vertices, spec.degree, rewire_probability=0.15, seed=spec.seed
        )
    raise ValueError(f"unknown generator {spec.generator!r}")


def dataset_table(scale: float = 1.0, quick: bool = False) -> List[Dict[str, object]]:
    """Rows of Table I: per dataset, the synthetic graph's statistics next
    to the real dataset's published statistics."""
    rows: List[Dict[str, object]] = []
    for name in dataset_names(quick=quick):
        spec = get_spec(name)
        graph = load_dataset(name, scale=scale)
        stats: GraphStats = compute_stats(graph)
        rows.append(
            {
                "name": spec.name,
                "full_name": spec.full_name,
                "|V|": stats.num_vertices,
                "|E|": stats.num_edges,
                "davg": round(stats.average_degree, 1),
                "dmax": stats.max_degree,
                "paper |V|": spec.paper_vertices,
                "paper |E|": spec.paper_edges,
                "paper davg": spec.paper_davg,
            }
        )
    return rows
