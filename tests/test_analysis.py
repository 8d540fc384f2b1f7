"""Tests for the ``repro.analysis`` AST invariant checker.

Three layers: the fixture corpus under ``tests/analysis_fixtures/``
(every rule has at least one fixture it catches — at the exact marked
line — and one it passes), the engine mechanics (tokenize-based
suppressions, spans, registry, parse errors, path walking), and the CLI
contract (exit codes, renderers, ``--list-rules``).  The final test is
the self-scan: the analyzer must report zero findings over
the repo's own ``src``, ``tests`` and ``benchmarks`` trees — the same
invocation CI runs as a blocking job.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE_ID,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register,
)
from repro.analysis.__main__ import _render_github, _render_json, main
from repro.analysis.core import _REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = Path(__file__).resolve().parent / "analysis_fixtures"

RULE_IDS = (
    "RA001",
    "RA002",
    "RA003",
    "RA004",
    "RA005",
    "RA006",
)

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RA\d{3})")


def expected_markers(path: Path):
    """``{(line, rule_id)}`` declared by ``# expect: RA###`` comments."""
    markers = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _EXPECT_RE.search(line)
        if match is not None:
            markers.add((lineno, match.group(1)))
    return markers


def findings_for(path: Path):
    return {
        (finding.line, finding.rule_id)
        for finding in analyze_paths([path])
    }


# --------------------------------------------------------------------- #
# Fixture corpus: each rule catches its bad fixture at the marked lines
# and stays silent on its good twin.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_is_caught_at_marked_lines(rule_id):
    path = FIXTURE_DIR / f"{rule_id.lower()}_bad.py"
    markers = expected_markers(path)
    assert markers, f"{path} declares no # expect markers"
    assert findings_for(path) == markers


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    path = FIXTURE_DIR / f"{rule_id.lower()}_good.py"
    assert findings_for(path) == set()


def test_every_rule_registered_and_titled():
    rules = all_rules()
    assert [rule.rule_id for rule in rules] == list(RULE_IDS)
    assert all(rule.title for rule in rules)


# --------------------------------------------------------------------- #
# Engine mechanics
# --------------------------------------------------------------------- #
BAD_RETURN = (
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._items = []\n"
    "    def items(self):\n"
    "        return self._items{comment}\n"
)


def test_suppression_silences_named_rule():
    source = BAD_RETURN.format(comment="  # repro: ignore[RA004] -- shared")
    assert analyze_source(source) == []


def test_suppression_bare_silences_all_rules():
    source = BAD_RETURN.format(comment="  # repro: ignore")
    assert analyze_source(source) == []


def test_suppression_for_other_rule_does_not_apply():
    source = BAD_RETURN.format(comment="  # repro: ignore[RA001]")
    findings = analyze_source(source)
    assert [finding.rule_id for finding in findings] == ["RA004"]


def test_suppression_accepts_id_lists_case_insensitively():
    source = BAD_RETURN.format(comment="  # repro: ignore[ra001, ra004]")
    assert analyze_source(source) == []


def test_suppression_marker_inside_string_literal_is_inert():
    """Suppressions are parsed from COMMENT tokens, so a marker spelled
    inside a string literal on the finding line must not silence it."""
    source = (
        "from repro.obs import MetricsRegistry\n"
        "NULL = MetricsRegistry()\n"
        "def warm():\n"
        "    NULL.counter('x # repro: ignore').inc()\n"
    )
    findings = {(f.line, f.rule_id) for f in analyze_source(source)}
    assert (4, "RA006") in findings
    # ...while a real comment on the same line still works
    suppressed = source.replace(
        ".inc()\n", ".inc()  # repro: ignore[RA006]\n"
    )
    findings = {(f.line, f.rule_id) for f in analyze_source(suppressed)}
    assert (4, "RA006") not in findings


def test_suppression_applies_anywhere_in_a_multiline_statement():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def items(self):\n"
        "        return (\n"
        "            self._items\n"
        "        )  # repro: ignore[RA004]\n"
    )
    assert analyze_source(source) == []
    unsuppressed = source.replace("  # repro: ignore[RA004]", "")
    findings = analyze_source(unsuppressed)
    assert [(f.line, f.rule_id) for f in findings] == [(5, "RA004")]
    assert findings[0].span == (5, 7)


def test_unsuppressed_finding_reports_file_and_line():
    findings = analyze_source(BAD_RETURN.format(comment=""), path="box.py")
    assert len(findings) == 1
    finding = findings[0]
    assert (finding.file, finding.line, finding.rule_id) == ("box.py", 5, "RA004")
    assert finding.render().startswith("box.py:5: RA004: ")


def test_parse_error_becomes_ra000_finding():
    findings = analyze_source("def broken(:\n", path="broken.py")
    assert [finding.rule_id for finding in findings] == [PARSE_ERROR_RULE_ID]
    assert findings[0].file == "broken.py"


def test_findings_sort_by_file_line_rule():
    findings = [
        Finding("b.py", 1, "RA001", "x"),
        Finding("a.py", 9, "RA005", "x"),
        Finding("a.py", 2, "RA002", "x"),
    ]
    assert sorted(findings) == [findings[2], findings[1], findings[0]]


def test_register_rejects_bad_and_duplicate_ids():
    class BadId(Rule):
        rule_id = "X1"

    with pytest.raises(ValueError, match="RA###"):
        register(BadId)

    class Duplicate(Rule):
        rule_id = "RA001"

    with pytest.raises(ValueError, match="duplicate"):
        register(Duplicate)
    assert _REGISTRY["RA001"].__name__ != "Duplicate"


def test_select_unknown_rule_raises_keyerror():
    with pytest.raises(KeyError, match="RA999"):
        all_rules(["RA999"])


def test_iter_python_files_excludes_fixture_corpus_but_honours_files():
    walked = list(iter_python_files([REPO_ROOT / "tests"]))
    assert not any("analysis_fixtures" in str(path) for path in walked)
    assert Path(__file__).resolve() in {path.resolve() for path in walked}
    explicit = FIXTURE_DIR / "ra004_bad.py"
    assert list(iter_python_files([explicit])) == [explicit]


def test_ra002_private_access_exempt_inside_graph_package():
    source = "def peek(graph):\n    return graph._out\n"
    inside = analyze_source(source, path="src/repro/graph/patch.py")
    outside = analyze_source(source, path="src/repro/batch/patch.py")
    assert inside == []
    assert [finding.rule_id for finding in outside] == ["RA002"]


def test_ra003_resolves_local_alias_to_module_level_function():
    good = (
        "def work(x):\n"
        "    return x\n"
        "def run(pool, items):\n"
        "    worker = work\n"
        "    return [pool.submit(worker, i) for i in items]\n"
    )
    bad = (
        "def run(pool, items):\n"
        "    worker = lambda x: x\n"
        "    return [pool.submit(worker, i) for i in items]\n"
    )
    assert analyze_source(good) == []
    assert [finding.rule_id for finding in analyze_source(bad)] == ["RA003"]


def test_ra006_exempt_inside_obs_package():
    source = (
        "from repro.obs import MetricsRegistry\n"
        "NULL = MetricsRegistry()\n"
        "def warm():\n"
        "    NULL.counter('repro_warm_total').inc()\n"
    )
    inside = analyze_source(source, path="src/repro/obs/metrics.py")
    outside = analyze_source(source, path="src/repro/batch/patch.py")
    assert inside == []
    assert [finding.rule_id for finding in outside] == ["RA006", "RA006"]


def test_ra006_closure_sees_enclosing_function_binding():
    source = (
        "def make_reporter(metrics):\n"
        "    registry = metrics\n"
        "    def report():\n"
        "        registry.counter('repro_total').inc()\n"
        "    return report\n"
    )
    assert analyze_source(source) == []


def test_ra006_class_body_does_not_leak_bindings_into_methods():
    source = (
        "from repro.obs import resolve_registry\n"
        "registry = resolve_registry(None)\n"
        "class Reporter:\n"
        "    def report(self):\n"
        "        registry.gauge('repro_depth').set(1)\n"
    )
    assert [finding.rule_id for finding in analyze_source(source)] == ["RA006"]


def test_ra001_nested_closure_does_not_inherit_lock_state():
    source = (
        "class Service:\n"
        "    _GUARDED_BY_LOCK = frozenset({'_count'})\n"
        "    def hand_out(self):\n"
        "        with self._lock:\n"
        "            return lambda: self._count\n"
    )
    findings = analyze_source(source)
    assert [finding.rule_id for finding in findings] == ["RA001"]


# --------------------------------------------------------------------- #
# Renderers
# --------------------------------------------------------------------- #
def test_render_json_shape():
    findings = [Finding("a.py", 3, "RA001", "msg")]
    assert json.loads(_render_json(findings)) == [
        {"file": "a.py", "line": 3, "rule": "RA001", "message": "msg"}
    ]


def test_render_github_escapes_workflow_payload():
    findings = [Finding("a.py", 3, "RA001", "50% of\nlines")]
    assert _render_github(findings) == (
        "::error file=a.py,line=3,title=RA001::50%25 of%0Alines"
    )


# --------------------------------------------------------------------- #
# CLI contract
# --------------------------------------------------------------------- #
def run_cli(*args):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_cli_exits_zero_on_clean_file():
    result = run_cli(str(FIXTURE_DIR / "ra001_good.py"))
    assert result.returncode == 0
    assert result.stdout == ""


def test_cli_exits_one_with_rendered_findings_on_bad_file():
    path = FIXTURE_DIR / "ra001_bad.py"
    result = run_cli(str(path))
    assert result.returncode == 1
    (line, rule_id), = expected_markers(path)
    assert f"{path}:{line}: {rule_id}: " in result.stdout


def test_cli_select_restricts_rules():
    path = str(FIXTURE_DIR / "ra002_bad.py")
    scoped = run_cli("--select", "RA001", path)
    assert scoped.returncode == 0
    full = run_cli("--select", "RA002", path)
    assert full.returncode == 1


def test_cli_usage_errors_exit_two():
    assert run_cli().returncode == 2
    assert run_cli("--select", "RA999", "src").returncode == 2
    unknown = run_cli("--jobs", "2", "src")
    assert unknown.returncode == 2
    assert "unrecognized arguments: --jobs" in unknown.stderr


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    assert main([str(missing), str(FIXTURE_DIR / "ra001_bad.py")]) == 2
    captured = capsys.readouterr()
    assert str(missing) in captured.err
    assert captured.out == ""  # nothing scanned


def test_select_naming_no_rule_is_a_usage_error(capsys):
    assert main(["--select", ",", str(FIXTURE_DIR / "ra001_bad.py")]) == 2
    captured = capsys.readouterr()
    assert "--select" in captured.err
    assert captured.out == ""


def test_undecodable_file_is_one_ra000_finding_and_the_scan_goes_on(
    tmp_path, capsys
):
    latin = tmp_path / "latin.py"
    latin.write_bytes(b"# \xe9\nx = 1\n")
    bad = FIXTURE_DIR / "ra001_bad.py"
    assert main([str(latin), str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{latin}:1: {PARSE_ERROR_RULE_ID}: could not read file" in out
    assert f"{bad}:" in out and "RA001" in out


def test_cli_format_json():
    path = FIXTURE_DIR / "ra001_bad.py"
    result = run_cli("--format", "json", str(path))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    (line, rule_id), = expected_markers(path)
    assert [(e["file"], e["line"], e["rule"]) for e in payload] == [
        (str(path), line, rule_id)
    ]
    clean = run_cli("--format", "json", str(FIXTURE_DIR / "ra001_good.py"))
    assert clean.returncode == 0
    assert json.loads(clean.stdout) == []


def test_cli_format_github():
    path = FIXTURE_DIR / "ra001_bad.py"
    result = run_cli("--format", "github", str(path))
    assert result.returncode == 1
    (line, rule_id), = expected_markers(path)
    assert f"::error file={path},line={line},title={rule_id}::" in result.stdout


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in RULE_IDS:
        assert rule_id in result.stdout


# --------------------------------------------------------------------- #
# Self-scan: the repo's own trees must be clean (CI's blocking job).
# --------------------------------------------------------------------- #
def test_repo_self_scan_is_clean():
    findings = analyze_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    )
    assert findings == [], "\n".join(f.render() for f in findings)
