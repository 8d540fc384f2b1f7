"""The ``>>>`` examples in ``repro``'s docstrings run, and stay right.

Every ``repro`` module whose docstrings carry an example is collected
here and run through ``doctest.testmod``, so an example that rots fails
tier-1 instead of misleading a reader.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

_MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)

_FINDER = doctest.DocTestFinder()

#: The modules whose docstrings hold at least one example.
DOCUMENTED = [
    name
    for name in _MODULES
    if any(test.examples for test in _FINDER.find(importlib.import_module(name)))
]


def test_the_documented_modules_are_found():
    assert {
        "repro",
        "repro.batch.engine",
        "repro.batch.service",
        "repro.utils.timer",
    } <= set(DOCUMENTED)


@pytest.mark.parametrize("name", DOCUMENTED)
def test_docstring_examples_pass(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert attempted > 0
    assert failed == 0, f"{failed} of {attempted} examples in {name} failed"
