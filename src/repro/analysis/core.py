"""AST-based invariant checker: engine, rule registry and reporting.

The repository has a handful of load-bearing conventions that unit tests
cannot economically cover — lock discipline in the ingestion service,
snapshot-version pinning for every cached CSR-derived artefact, and
picklability of everything that crosses the worker-pool boundary.  Each of
these has already produced a shipped bug class, so they are machine-checked
on every push by this package instead of being guarded by comments alone.

Architecture
------------
One pass, one file at a time.  A :class:`Rule` inspects one parsed module
(:class:`SourceModule`) and yields :class:`Finding` objects; rules are
registered with the :func:`register` decorator and identified by a stable
``RA###`` id.  :func:`analyze_source` runs the rules over one source
blob; :func:`analyze_paths` reads each file under the given files and
directories and hands it to :func:`analyze_source`.  No rule sees more
than the file in front of it, so nothing is carried between files.
Directories are walked recursively with a default exclusion list
(``__pycache__``, hidden directories and the intentionally-dirty
``analysis_fixtures`` corpus) so a repo-wide scan stays clean while
explicitly named files are always scanned.

Suppressions
------------
A finding is silenced by a comment on any line of the statement it is
anchored to::

    return self._rows  # repro: ignore[RA004] -- shared read-only hot-path cache

``# repro: ignore[RA001,RA004]`` silences several rules, a bare
``# repro: ignore`` silences every rule on that line.  Comments are
extracted with :mod:`tokenize`, so the marker inside a string literal is
inert; a marker on any line within ``node.lineno..node.end_lineno`` of
the anchoring statement covers a wrapped call.  Suppressions should
carry a justification after the bracket — the scanner does not enforce
the prose, reviewers do.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

#: Rule id reserved for files the engine itself cannot parse.
PARSE_ERROR_RULE_ID = "RA000"

#: Directory names skipped when *walking* a directory argument.  Explicitly
#: named files are always analyzed, which is how the test suite points the
#: engine at the intentionally-bad fixture corpus.
DEFAULT_EXCLUDED_DIRS = frozenset({"__pycache__", "analysis_fixtures"})

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s]*)\])?"
)

#: ``{line: rule ids}`` suppression table; ``None`` means all rules.
SuppressionMap = Dict[int, Optional[FrozenSet[str]]]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a ``file:line``.

    ``span`` is the anchoring statement's ``(lineno, end_lineno)`` — it
    participates in suppression matching (a ``# repro: ignore`` on any
    line of a wrapped statement covers the finding) but not in equality
    or ordering, so findings stay comparable across engines that do and
    do not record spans.
    """

    file: str
    line: int
    rule_id: str
    message: str
    span: Optional[Tuple[int, int]] = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule_id}: {self.message}"


def _parse_suppressions(source: str) -> SuppressionMap:
    """Extract ``# repro: ignore[...]`` markers from *comment tokens*.

    Scanning raw lines would let a string literal containing the marker
    silence findings on its line; :mod:`tokenize` sees only real
    comments.  Tokenizer errors are swallowed — the caller has already
    ``ast.parse``-d the source, so the tokenizer failing here would be a
    stdlib disagreement we degrade through (no suppressions) rather than
    crash on.
    """
    suppressions: SuppressionMap = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                suppressions[token.start[0]] = None
            else:
                suppressions[token.start[0]] = frozenset(
                    part.strip().upper()
                    for part in ids.split(",")
                    if part.strip()
                )
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return suppressions


def suppresses(suppressions: SuppressionMap, finding: Finding) -> bool:
    """Whether the table silences ``finding`` (span-aware)."""
    start, end = finding.span or (finding.line, finding.line)
    if end < start:  # pragma: no cover - malformed span, be permissive
        start, end = end, start
    for line in range(start, end + 1):
        if line not in suppressions:
            continue
        ids = suppressions[line]
        if ids is None or finding.rule_id.upper() in ids:
            return True
    return False


class SourceModule:
    """A parsed source file plus the metadata rules need.

    ``path`` is kept exactly as the caller supplied it (findings render it
    verbatim); ``posix_path`` is the forward-slash form rules use for
    package-scoped behaviour (e.g. RA002 exempts ``repro/graph/``).
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.posix_path = Path(path).as_posix()
        self.tree = ast.parse(source, filename=path)
        self._suppressions = _parse_suppressions(source)

    @property
    def suppressions(self) -> SuppressionMap:
        return self._suppressions

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Single-line check (kept for rule unit tests); findings go
        through :func:`suppresses` which also honours spans."""
        if line not in self._suppressions:
            return False
        ids = self._suppressions[line]
        return ids is None or rule_id.upper() in ids


class Rule:
    """Base class for one per-file invariant check.

    Subclasses set ``rule_id`` (stable ``RA###`` identifier) and ``title``
    (one-line summary shown by ``--list-rules``) and implement
    :meth:`check`, yielding a :class:`Finding` per violation.  The
    :meth:`finding` helper anchors a finding to an AST node.
    """

    rule_id: str = ""
    title: str = ""

    def check(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: Union[ast.AST, int], message: str
    ) -> Finding:
        if isinstance(node, int):
            line: int = node
            span: Optional[Tuple[int, int]] = None
        else:
            line = getattr(node, "lineno", 1)
            span = (line, getattr(node, "end_lineno", None) or line)
        return Finding(
            file=module.path,
            line=line,
            rule_id=self.rule_id,
            message=message,
            span=span,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.rule_id
    if not re.fullmatch(r"RA\d{3}", rule_id):
        raise ValueError(f"rule id must match RA###, got {rule_id!r}")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate every registered rule (optionally a subset by id)."""
    _load_builtin_rules()
    if select is None:
        ids = sorted(_REGISTRY)
    else:
        ids = []
        for rule_id in select:
            canonical = rule_id.strip().upper()
            if canonical not in _REGISTRY:
                raise KeyError(
                    f"unknown rule id {rule_id!r}; known: {sorted(_REGISTRY)}"
                )
            ids.append(canonical)
    return [_REGISTRY[rule_id]() for rule_id in ids]


def _load_builtin_rules() -> None:
    """Import the rule modules exactly once (registration side effect)."""
    from repro.analysis import (
        rules_generators,
        rules_internals,
        rules_lock,
        rules_pool,
        rules_snapshot,
        rules_telemetry,
    )

    # Imported for their @register side effect; referencing them here keeps
    # the import visibly intentional (and the linter quiet).
    _ = (
        rules_generators,
        rules_internals,
        rules_lock,
        rules_pool,
        rules_snapshot,
        rules_telemetry,
    )


def _unanalyzable(path: str, line: int, reason: str) -> List[Finding]:
    return [
        Finding(
            file=path,
            line=line,
            rule_id=PARSE_ERROR_RULE_ID,
            message=reason,
        )
    ]


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over one source blob.

    Findings carrying a ``# repro: ignore[...]`` suppression are dropped;
    the remainder is returned sorted by (file, line, rule).  A file that
    fails to parse yields a single :data:`PARSE_ERROR_RULE_ID` finding
    instead of raising — a broken file must fail CI, not crash the
    analyzer.
    """
    if rules is None:
        rules = all_rules()
    try:
        module = SourceModule(path, source)
    except SyntaxError as error:
        return _unanalyzable(
            path, error.lineno or 1, f"could not parse file: {error.msg}"
        )
    return sorted(
        finding
        for rule in rules
        for finding in rule.check(module)
        if not suppresses(module.suppressions, finding)
    )


def iter_python_files(
    paths: Iterable[Union[str, Path]],
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Yield the ``.py`` files named by ``paths``.

    Directories are walked recursively; any component named in
    ``excluded_dirs`` (or starting with a dot) prunes the subtree.  A path
    naming a file directly is always yielded, excluded directory or not.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                parts = relative.parts
                if any(
                    part in excluded_dirs or part.startswith(".")
                    for part in parts[:-1]
                ):
                    continue
                yield candidate
        else:
            yield path


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> List[Finding]:
    """Analyze every Python file under ``paths`` (files or directories).

    Each file goes through :func:`analyze_source` on its own.  A file that
    cannot be read or is not UTF-8 becomes one :data:`PARSE_ERROR_RULE_ID`
    finding at line 1, like a file that does not parse, and the remaining
    files are still scanned.
    """
    if rules is None:
        rules = all_rules()
    findings: List[Finding] = []
    for file in iter_python_files(paths, excluded_dirs):
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings += _unanalyzable(path, 1, f"could not read file: {error}")
        else:
            findings += analyze_source(source, path, rules)
    return sorted(findings)
