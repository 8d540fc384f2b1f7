"""Unit tests for the utility helpers."""

import time

import pytest

from repro.utils.timer import StageTimer
from repro.utils.validation import (
    require,
    require_non_negative,
    require_positive,
    require_vertex,
)


def test_stage_timer_accumulates_per_stage():
    stages = StageTimer()
    with stages.stage("a"):
        time.sleep(0.001)
    with stages.stage("a"):
        pass
    with stages.stage("b"):
        pass
    assert stages.total("a") > 0.0
    assert set(stages.totals) == {"a", "b"}
    assert stages.overall == pytest.approx(stages.total("a") + stages.total("b"))


def test_stage_timer_add_and_merge():
    a = StageTimer()
    a.add("x", 1.0)
    b = StageTimer()
    b.add("x", 0.5)
    b.add("y", 2.0)
    a.merge(b)
    assert a.total("x") == pytest.approx(1.5)
    assert a.total("y") == pytest.approx(2.0)
    assert a.total("missing") == 0.0


def test_require():
    require(True, "fine")
    with pytest.raises(ValueError, match="broken"):
        require(False, "broken")


def test_require_non_negative():
    assert require_non_negative(0, "x") == 0
    with pytest.raises(ValueError):
        require_non_negative(-1, "x")
    with pytest.raises(ValueError):
        require_non_negative(1.5, "x")
    with pytest.raises(ValueError):
        require_non_negative(True, "x")


def test_require_positive():
    assert require_positive(3, "x") == 3
    with pytest.raises(ValueError):
        require_positive(0, "x")


def test_require_vertex():
    assert require_vertex(2, 5) == 2
    with pytest.raises(ValueError):
        require_vertex(5, 5)
    with pytest.raises(ValueError):
        require_vertex("a", 5)
