"""Directed graph substrate.

The algorithms in this library operate on unweighted directed graphs with
integer vertex ids in ``[0, n)``.  :class:`~repro.graph.digraph.DiGraph` is
the primary container; :class:`~repro.graph.csr.CSRGraph` is an immutable
snapshot used by the hot enumeration loops.  The graph is live: its
:class:`~repro.graph.snapshots.SnapshotStore` (``graph.snapshots``) seals
refcounted snapshots per version, sharing every adjacency row a mutation
did not replace, so mutation never disturbs in-flight consumers.
"""

from repro.graph.digraph import DiGraph
from repro.graph.csr import CSRGraph
from repro.graph.snapshots import PinnedSnapshot, SnapshotStore
from repro.graph.stats import GraphStats, compute_stats
from repro.graph.generators import (
    paper_example_graph,
    random_directed_gnm,
    powerlaw_directed,
    layered_dag,
    small_world_directed,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.sampling import sample_vertices, vertex_induced_subgraph

__all__ = [
    "DiGraph",
    "CSRGraph",
    "SnapshotStore",
    "PinnedSnapshot",
    "GraphStats",
    "compute_stats",
    "paper_example_graph",
    "random_directed_gnm",
    "powerlaw_directed",
    "layered_dag",
    "small_world_directed",
    "read_edge_list",
    "write_edge_list",
    "sample_vertices",
    "vertex_induced_subgraph",
]
