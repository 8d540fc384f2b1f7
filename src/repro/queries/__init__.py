"""Query model, similarity measures and workload generation."""

from repro.queries.query import HCSTQuery, HCsPathQuery, Direction
from repro.queries.similarity import (
    query_similarity,
    group_similarity,
    QuerySimilarityMatrix,
)
from repro.queries.generation import (
    generate_random_queries,
    generate_similar_workload,
    WorkloadSpec,
)
from repro.queries.workload import QueryWorkload

__all__ = [
    "HCSTQuery",
    "HCsPathQuery",
    "Direction",
    "query_similarity",
    "group_similarity",
    "QuerySimilarityMatrix",
    "generate_random_queries",
    "generate_similar_workload",
    "WorkloadSpec",
    "QueryWorkload",
]
