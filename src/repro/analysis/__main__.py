"""Command-line entry point: ``python -m repro.analysis <paths>``.

Exit codes: 0 — no findings; 1 — findings reported; 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.core import (
    DEFAULT_EXCLUDED_DIRS,
    Finding,
    all_rules,
    analyze_paths,
)


def _render_text(findings: Sequence[Finding]) -> str:
    return "\n".join(finding.render() for finding in findings)


def _render_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        [
            {
                "file": finding.file,
                "line": finding.line,
                "rule": finding.rule_id,
                "message": finding.message,
            }
            for finding in findings
        ],
        indent=2,
    )


def _render_github(findings: Sequence[Finding]) -> str:
    # GitHub workflow commands: annotate the PR diff at file:line.  The
    # message payload must stay on one line; %0A is the escaped newline.
    lines = []
    for finding in findings:
        message = finding.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        lines.append(
            f"::error file={finding.file},line={finding.line},"
            f"title={finding.rule_id}::{message}"
        )
    return "\n".join(lines)


FORMATS = {
    "text": _render_text,
    "json": _render_json,
    "github": _render_github,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Run the repo's AST invariant rules (RA001-RA006, one file at "
            "a time) over Python sources and report violations as "
            "file:line: RA###: message."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (directories are walked)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all), e.g. RA001,RA004",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--no-default-excludes",
        action="store_true",
        help=(
            "also scan directories excluded by default "
            f"({', '.join(sorted(DEFAULT_EXCLUDED_DIRS))})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help=(
            "output renderer: 'text' (file:line: RA###: message), 'json' "
            "(machine-readable array), or 'github' (workflow ::error "
            "annotations)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: provide at least one path to analyze "
            "(or --list-rules)",
            file=sys.stderr,
        )
        return 2

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    select: Optional[List[str]] = None
    if args.select is not None:
        select = [part for part in args.select.split(",") if part.strip()]
        if not select:
            print("error: --select names no rule", file=sys.stderr)
            return 2
    try:
        rules = all_rules(select)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    excluded = frozenset() if args.no_default_excludes else DEFAULT_EXCLUDED_DIRS
    findings = analyze_paths(args.paths, rules=rules, excluded_dirs=excluded)
    rendered = FORMATS[args.format](findings)
    if rendered:
        print(rendered)
    if findings:
        print(
            f"{len(findings)} finding(s) across "
            f"{len({finding.file for finding in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
