"""Placeholder for two names the benchmark harness binds.

Every route runs the one explicit-stack search of
:mod:`repro.enumeration.hc_s_search`; nothing in the package calls these
functions.  They exist only because the two ``enumeration.kernel`` rows
of ``ENTRY_POINTS`` in ``benchmarks/perf/trace.py`` look them up by name,
which is also why ``enumeration.kernel_calls`` reads 0 there.  The
harness's contract change (ROADMAP item 9) deletes this module.
"""


def enumerate_node_paths(*args, **kwargs):
    """Unused; see the module docstring."""
    raise NotImplementedError("the enumeration kernels were removed")


def search_paths(*args, **kwargs):
    """Unused; see the module docstring."""
    raise NotImplementedError("the enumeration kernels were removed")
