"""Repo-specific AST invariant checker (``python -m repro.analysis``).

Public API re-exported here; the rule catalog and authoring guide live in
``src/repro/analysis/README.md``.
"""

from repro.analysis.core import (
    DEFAULT_EXCLUDED_DIRS,
    PARSE_ERROR_RULE_ID,
    Finding,
    Rule,
    SourceModule,
    all_rules,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register,
)

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "PARSE_ERROR_RULE_ID",
    "Finding",
    "Rule",
    "SourceModule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "register",
]
