"""Adapted k-shortest-path baselines (Exp-6 competitors).

The paper compares against two route-planning algorithms adapted to HC-s-t
path enumeration by dropping their diversity/overlap constraints and
letting them generate paths until the hop constraint is exceeded:

* ``DkSP`` [Luo et al., VLDB'22] — implemented here as Yen-style deviation
  enumeration of simple paths in non-decreasing hop order.
* ``OnePass`` [Chondrogiannis et al., VLDBJ'20] — implemented here as a
  single best-first sweep over partial simple paths ordered by hop count.

Neither uses the HC-s-t specific index pruning, which is why the paper (and
this reproduction) finds them orders of magnitude slower.
"""

from repro.baselines.yen import shortest_path_hops, yen_k_shortest_paths
from repro.baselines.dksp import enumerate_paths_dksp, run_dksp_baseline
from repro.baselines.onepass import enumerate_paths_onepass, run_onepass_baseline

#: Fig. 12's baselines by name: plain ``(graph, queries) -> BatchResult``
#: functions, not engine algorithms, timed on the same workload.
BASELINES = {"dksp": run_dksp_baseline, "onepass": run_onepass_baseline}

__all__ = [
    "shortest_path_hops",
    "yen_k_shortest_paths",
    "enumerate_paths_dksp",
    "run_dksp_baseline",
    "enumerate_paths_onepass",
    "run_onepass_baseline",
    "BASELINES",
]
