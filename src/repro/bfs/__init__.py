"""Breadth-first search substrate and the PathEnum-style distance index."""

from repro.bfs.single_source import bfs_distances, bfs_levels
from repro.bfs.distance_index import (
    CSRDistanceIndex,
    UNREACHABLE,
    build_index,
)

__all__ = [
    "bfs_distances",
    "bfs_levels",
    "CSRDistanceIndex",
    "UNREACHABLE",
    "build_index",
]
