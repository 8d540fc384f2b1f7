"""Wall-clock timing helpers used by the experiment harness.

The paper reports wall-clock time of each algorithm and, for Exp-3, the
decomposition of BatchEnum+ into BuildIndex / ClusterQuery /
IdentifySubquery / Enumeration.  ``StageTimer`` accumulates named spans so
a run can be decomposed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class StageTimer:
    """Accumulates wall-clock time per named stage.

    Used to produce the Fig. 9 style decomposition: each stage name maps to
    the total number of seconds spent inside ``stage(name)`` blocks.

    Example
    -------
    >>> timer = StageTimer()
    >>> with timer.stage("BuildIndex"):
    ...     _ = sum(range(10))
    >>> timer.add("BuildIndex", 1.0)
    >>> timer.total("BuildIndex") >= 1.0, list(timer.totals)
    (True, ['BuildIndex'])
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Manually credit ``seconds`` to ``name`` (used when a stage is
        timed externally)."""
        self._totals[name] = self._totals.get(name, 0.0) + seconds

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    @property
    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    @property
    def overall(self) -> float:
        return sum(self._totals.values())

    def merge(self, other: "StageTimer") -> None:
        for name, seconds in other.totals.items():
            self.add(name, seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self._totals.items()))
        return f"StageTimer({inner})"
