"""Shared utilities: timing, deterministic RNG helpers and validation."""

from repro.utils.timer import StageTimer
from repro.utils.validation import (
    require,
    require_non_negative,
    require_positive,
    require_vertex,
)

__all__ = [
    "StageTimer",
    "require",
    "require_non_negative",
    "require_positive",
    "require_vertex",
]
