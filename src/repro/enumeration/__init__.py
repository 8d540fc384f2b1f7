"""Single-query HC-s-t path enumeration algorithms.

* :mod:`repro.enumeration.brute_force` — reference DFS enumerator used by
  tests and by the Fig. 3(c) materialisation experiment.
* :mod:`repro.enumeration.path_enum` — PathEnum [Sun et al., SIGMOD'21], the
  state-of-the-art single-query algorithm the batch approach builds on.
* :mod:`repro.enumeration.hc_s_search` — the one explicit-stack HC-s path
  search (Algorithm 4's Search: PathEnum's search plus the provider splice)
  and the one Lemma 3.1 admissibility rule; PathEnum, BatchEnum and
  DetectCommonQuery all read it.
"""

from repro.enumeration.paths import (
    Path,
    is_simple,
    concatenate,
    validate_path,
)
from repro.enumeration.join import join_path_sets, PathJoinPolicy
from repro.enumeration.brute_force import enumerate_paths_brute_force
from repro.enumeration.path_enum import PathEnum, enumerate_paths
from repro.enumeration.search_order import choose_budget_split

__all__ = [
    "Path",
    "is_simple",
    "concatenate",
    "validate_path",
    "join_path_sets",
    "PathJoinPolicy",
    "enumerate_paths_brute_force",
    "PathEnum",
    "enumerate_paths",
    "choose_budget_split",
]
