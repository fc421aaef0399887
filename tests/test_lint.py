"""Tests for the ``repro.lint`` invariant checker.

Three layers:

* fixture tests — every rule has a ``bad`` fixture that must flag, a
  ``good`` fixture that must stay silent, and a ``suppressed`` fixture
  whose findings must land in ``report.suppressed`` instead of
  ``report.violations``;
* engine/CLI tests — suppression parsing, rule selection, report
  formats, exit codes;
* a meta-test asserting the live ``src/repro`` tree is lint-clean, so
  any future violation fails the suite even without the CI lint job.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.lint import LintReport, Violation, lint_paths
from repro.lint.analysis import AnalysisCache
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.diff import git_changed_lines, parse_unified_diff
from repro.lint.engine import PARSE_RULE, discover_files
from repro.lint.report import json_report, sarif_report, text_report
from repro.lint.rules import all_rules, rule_ids

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_RULE_IDS = (
    "RL001",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL007",
    "RL008",
    "RL009",
    "RL010",
    "RL011",
)

#: rule id -> (bad target, good target, suppressed target).  The
#: cross-file rules (RL006, RL009, RL010) use miniature project trees;
#: trees have no suppressed variant (the comment syntax is per-line and
#: already covered by the single-file rules).
FIXTURE_TARGETS = {
    "RL001": ("rl001_bad.py", "rl001_good.py", "rl001_suppressed.py"),
    "RL003": ("rl003_bad.py", "rl003_good.py", "rl003_suppressed.py"),
    "RL004": ("rl004_bad.py", "rl004_good.py", "rl004_suppressed.py"),
    "RL005": ("rl005_bad.py", "rl005_good.py", "rl005_suppressed.py"),
    "RL006": ("rl006_bad", "rl006_good", None),
    "RL007": ("rl007_bad.py", "rl007_good.py", "rl007_suppressed.py"),
    "RL008": ("rl008_bad.py", "rl008_good.py", "rl008_suppressed.py"),
    "RL009": ("rl009_bad", "rl009_good", None),
    "RL010": ("rl010_bad", "rl010_good", None),
    "RL011": ("rl011_bad.py", "rl011_good.py", "rl011_suppressed.py"),
}


def run_rule(rule_id: str, target: str) -> LintReport:
    return lint_paths([FIXTURES / target], select=[rule_id])


# ---------------------------------------------------------------------------
# fixture tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_bad_fixture_is_flagged(rule_id):
    bad, _, _ = FIXTURE_TARGETS[rule_id]
    report = run_rule(rule_id, bad)
    assert not report.ok
    assert report.violations, f"{rule_id} found nothing in {bad}"
    assert {v.rule_id for v in report.violations} == {rule_id}
    for violation in report.violations:
        assert violation.line >= 1
        assert violation.col >= 1
        assert violation.message


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    _, good, _ = FIXTURE_TARGETS[rule_id]
    report = run_rule(rule_id, good)
    assert report.ok, [v.format() for v in report.violations]
    assert not report.suppressed


@pytest.mark.parametrize(
    "rule_id",
    [rid for rid in ALL_RULE_IDS if FIXTURE_TARGETS[rid][2] is not None],
)
def test_suppressed_fixture_moves_findings_aside(rule_id):
    _, _, suppressed = FIXTURE_TARGETS[rule_id]
    report = run_rule(rule_id, suppressed)
    assert report.ok, [v.format() for v in report.violations]
    assert report.suppressed, f"{rule_id} suppression fixture flagged nothing"
    assert {v.rule_id for v in report.suppressed} == {rule_id}


def test_bad_fixture_violation_counts():
    """Pin the per-fixture finding counts so rules don't silently dull."""
    expected = {
        "RL001": 8,  # seed/randint/shuffle, 2x default_rng, 3x stdlib random
        "RL003": 5,  # counts assign, field bump, setattr, 2x metric mirror
        "RL004": 6,  # camelCase constant (def + use), no namespace, bad
        #              subsystem, missing _total, label drift
        "RL005": 3,  # bare except, silent Exception, silent BaseException tuple
        "RL006": 1,  # undocumented_thing missing from docs/api.md
        "RL007": 5,  # direct sleep, transitive sleep, with-lock, .acquire,
        #              BatchEngine construction — all inside async defs
        "RL008": 3,  # unlocked read, unlocked mutating call, unlocked write
        "RL009": 5,  # undispatched op, 2x missing client method,
        #              undocumented op, undeclared client op
        "RL010": 4,  # unregistered counter, dead counter, partial init
        #              site, undocumented metric
        "RL011": 3,  # dropped in function, dropped in method, literal seed
    }
    for rule_id, count in expected.items():
        bad, _, _ = FIXTURE_TARGETS[rule_id]
        report = run_rule(rule_id, bad)
        assert len(report.violations) == count, (
            rule_id,
            [v.format() for v in report.violations],
        )


def test_rl004_label_drift_points_at_minority_site():
    report = run_rule("RL004", "rl004_bad.py")
    drift = [v for v in report.violations if "label" in v.message.lower()]
    assert len(drift) == 1
    assert "kind" in drift[0].message


def test_rl003_good_fixture_bulk_merge_is_sanctioned():
    """Merging counts through ``emit_bulk`` keeps the sink; never flagged."""
    report = run_rule("RL003", "rl003_good.py")
    assert report.ok


def test_rules_only_fire_for_their_own_id():
    """Running every rule over one bad fixture flags only that rule."""
    for rule_id in ALL_RULE_IDS:
        bad, _, _ = FIXTURE_TARGETS[rule_id]
        report = lint_paths([FIXTURES / bad])
        assert {v.rule_id for v in report.violations} == {rule_id}, (
            rule_id,
            [v.format() for v in report.violations],
        )


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------


def test_registry_exposes_all_eleven_rules():
    assert tuple(rule_ids()) == ALL_RULE_IDS
    rules = all_rules()
    assert [rule.rule_id for rule in rules] == list(ALL_RULE_IDS)
    for rule in rules:
        assert rule.title
        assert rule.rationale


def test_select_and_ignore_filter_rules():
    bad = FIXTURES / "rl001_bad.py"
    assert lint_paths([bad], select=["RL005"]).ok
    assert lint_paths([bad], ignore=["RL001"]).ok
    assert not lint_paths([bad], select=["rl001"]).ok  # case-insensitive


def test_disable_all_suppresses_every_rule(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "x = np.random.randint(10)  # repro-lint: disable=all\n",
        encoding="utf-8",
    )
    report = lint_paths([src], select=["RL001"])
    assert report.ok
    assert len(report.suppressed) == 1


def test_suppression_comment_inside_string_is_inert(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        'TEXT = "# repro-lint: disable-file=RL001"\n'
        "import numpy as np\n"
        "x = np.random.randint(10)\n",
        encoding="utf-8",
    )
    report = lint_paths([src], select=["RL001"])
    assert not report.ok


def test_syntax_error_reports_parse_rule(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([src])
    assert not report.ok
    assert report.violations[0].rule_id == PARSE_RULE


def test_discover_files_skips_pycache(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text(
        "x = 1\n", encoding="utf-8"
    )
    found = discover_files([tmp_path])
    assert [p.name for p in found] == ["mod.py"]
    assert all("__pycache__" not in p.parts for p in found)


def test_violation_format_is_clickable():
    violation = Violation("RL001", "src/repro/x.py", 12, 5, "boom")
    assert violation.format() == "src/repro/x.py:12:5: RL001 boom"


# ---------------------------------------------------------------------------
# reporters and CLI
# ---------------------------------------------------------------------------


def test_text_report_summarises(tmp_path):
    report = lint_paths([FIXTURES / "rl005_bad.py"], select=["RL005"])
    text = text_report(report)
    assert "RL005" in text
    assert "rl005_bad.py" in text
    assert "checked 1 files: 3 violations (0 suppressed)" in text


def test_json_report_round_trips():
    report = lint_paths([FIXTURES / "rl001_bad.py"], select=["RL001"])
    payload = json.loads(json_report(report))
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["violations"]
    first = payload["violations"][0]
    assert first["rule_id"] == "RL001"
    assert set(first) >= {"rule_id", "path", "line", "col", "message"}


def test_cli_exit_codes_and_output(capsys):
    bad = str(FIXTURES / "rl001_bad.py")
    good = str(FIXTURES / "rl001_good.py")
    assert lint_main([good, "--select", "RL001"]) == 0
    capsys.readouterr()
    assert lint_main([bad, "--select", "RL001"]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "rl001_bad.py" in out


def test_cli_json_format(capsys):
    bad = str(FIXTURES / "rl004_bad.py")
    assert lint_main([bad, "--select", "RL004", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert all(v["rule_id"] == "RL004" for v in payload["violations"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_show_suppressed(capsys):
    target = str(FIXTURES / "rl003_suppressed.py")
    assert lint_main([target, "--select", "RL003", "--show-suppressed"]) == 0
    out = capsys.readouterr().out
    assert "RL003" in out
    assert "suppressed" in out


# ---------------------------------------------------------------------------
# graceful degradation (RL000)
# ---------------------------------------------------------------------------


def test_rl000_non_utf8_file_degrades_gracefully(tmp_path):
    """A non-UTF-8 file yields one RL000 finding; siblings still lint."""
    (tmp_path / "latin.py").write_bytes(b"# caf\xe9 au lait\nx = 1\n")
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    report = lint_paths([tmp_path])
    # the parsable sibling is still analysed and counted
    assert report.files_checked == 1
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule_id == PARSE_RULE
    assert violation.path.endswith("latin.py")
    assert "UTF-8" in violation.message


def test_rl000_null_byte_source_degrades_gracefully(tmp_path):
    """Null bytes decode fine but ast.parse rejects them: RL000, no crash."""
    (tmp_path / "nul.py").write_bytes(b"x = 1\x00\n")
    report = lint_paths([tmp_path])
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule_id == PARSE_RULE
    assert "null bytes" in violation.message


# ---------------------------------------------------------------------------
# analysis cache
# ---------------------------------------------------------------------------

_LOCKED_TRACKER = """\
import threading


class Tracker:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        with self._lock:
            self.hits += 1

    def peek(self):
        with self._lock:
            return self.hits
"""

#: same class, but ``peek`` drops the lock — an RL008 violation.
_RACY_TRACKER = _LOCKED_TRACKER.replace(
    "    def peek(self):\n        with self._lock:\n            return self.hits\n",
    "    def peek(self):\n        return self.hits\n",
)


def test_analysis_cache_reuse_and_invalidation(tmp_path):
    assert _RACY_TRACKER != _LOCKED_TRACKER  # the replace above matched
    src = tmp_path / "m.py"
    src.write_text(_LOCKED_TRACKER, encoding="utf-8")
    cache = AnalysisCache()
    assert lint_paths([src], select=["RL008"], cache=cache).ok
    assert (cache.misses, cache.hits) == (1, 0)
    assert lint_paths([src], select=["RL008"], cache=cache).ok
    assert (cache.misses, cache.hits) == (1, 1)
    # Same path, new content: the stale analysis must not be reused.
    src.write_text(_RACY_TRACKER, encoding="utf-8")
    report = lint_paths([src], select=["RL008"], cache=cache)
    assert not report.ok, "cache served a stale analysis for edited content"
    assert (cache.misses, cache.hits) == (2, 1)


# ---------------------------------------------------------------------------
# diff-aware mode
# ---------------------------------------------------------------------------


def test_parse_unified_diff_tracks_new_side_lines():
    diff = (
        "diff --git a/pkg/m.py b/pkg/m.py\n"
        "--- a/pkg/m.py\n"
        "+++ b/pkg/m.py\n"
        "@@ -10,2 +10,3 @@\n"
        "-old\n"
        "+new one\n"
        "+new two\n"
        " context\n"
        "@@ -40 +42 @@\n"
        "-x\n"
        "+y\n"
        "--- a/gone.py\n"
        "+++ /dev/null\n"
        "@@ -1,3 +0,0 @@\n"
        "-a\n"
        "-b\n"
        "-c\n"
    )
    assert parse_unified_diff(diff) == {"pkg/m.py": {10, 11, 42}}


def test_changed_lines_filter_excludes_untouched_findings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def f():\n"
        "    return np.random.default_rng()\n"  # line 5
        "\n"
        "\n"
        "def g():\n"
        "    return np.random.default_rng()\n",  # line 9
        encoding="utf-8",
    )
    full = lint_paths([src], select=["RL001"])
    assert sorted(v.line for v in full.violations) == [5, 9]
    filtered = lint_paths(
        [src],
        select=["RL001"],
        changed_lines={src.resolve().as_posix(): {9}},
    )
    assert [v.line for v in filtered.violations] == [9]


def test_cli_changed_only_bad_ref_fails_loudly(capsys):
    """A ref git cannot resolve must exit 2, not lint nothing and pass."""
    bad = str(FIXTURES / "rl001_bad.py")
    assert lint_main([bad, "--changed-only", "no-such-ref-xyz"]) == 2
    captured = capsys.readouterr()
    assert "no-such-ref-xyz" in captured.err


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_round_trips_and_filters(tmp_path):
    report = lint_paths([FIXTURES / "rl008_bad.py"], select=["RL008"])
    assert len(report.violations) == 3
    baseline = Baseline.from_violations(report.violations)
    path = tmp_path / "lint_baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert len(loaded.entries) == 3
    assert all(
        entry.justification.startswith("TODO") for entry in loaded.entries
    )
    filtered = lint_paths(
        [FIXTURES / "rl008_bad.py"], select=["RL008"], baseline=loaded
    )
    assert filtered.ok
    assert not filtered.violations
    assert len(filtered.baselined) == 3


def test_baseline_update_preserves_justifications():
    report = lint_paths([FIXTURES / "rl008_bad.py"], select=["RL008"])
    first = Baseline.from_violations(report.violations)
    reviewed = Baseline(
        entries=[
            type(entry)(
                rule_id=entry.rule_id,
                path=entry.path,
                message=entry.message,
                justification="reviewed: fixture, intentionally racy",
            )
            for entry in first.entries
        ]
    )
    regenerated = Baseline.from_violations(report.violations, keep=reviewed)
    assert all(
        entry.justification == "reviewed: fixture, intentionally racy"
        for entry in regenerated.entries
    )


def test_committed_baseline_entries_are_justified_and_live():
    """Every committed exemption still matches a finding and says why."""
    baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
    assert baseline.entries
    for entry in baseline.entries:
        assert entry.justification, entry.message
        assert not entry.justification.startswith("TODO"), entry.message


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


def test_sarif_report_structure():
    report = lint_paths([FIXTURES / "rl007_bad.py"], select=["RL007"])
    log = json.loads(sarif_report(report))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == {"RL007"}
    assert len(run["results"]) == 5
    result = run["results"][0]
    assert result["ruleId"] == "RL007"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1


def test_cli_sarif_format(capsys):
    bad = str(FIXTURES / "rl007_bad.py")
    assert (
        lint_main([bad, "--select", "RL007", "--format", "sarif"]) == 1
    )
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"]


# ---------------------------------------------------------------------------
# RL008 extras: await-under-lock, and the acceptance-criteria mutation
# ---------------------------------------------------------------------------


def test_rl008_flags_await_under_lock(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.jobs = []\n"
        "\n"
        "    def add(self, job):\n"
        "        with self._lock:\n"
        "            self.jobs.append(job)\n"
        "\n"
        "    async def flush(self, sink):\n"
        "        with self._lock:\n"
        "            await sink.send(self.jobs)\n",
        encoding="utf-8",
    )
    report = lint_paths([src], select=["RL008"])
    assert any(
        "awaits while holding" in v.message for v in report.violations
    ), [v.format() for v in report.violations]


def test_rl008_catches_seeded_store_mutation_in_diff_mode(tmp_path):
    """Acceptance check: moving one guarded write in ``serve/store.py``
    outside its lock is caught by RL008, in diff mode, on the moved
    lines — the exact drift the PR lint job exists to stop."""
    source = (
        REPO_ROOT / "src" / "repro" / "serve" / "store.py"
    ).read_text(encoding="utf-8")
    repo = tmp_path / "repo"
    (repo / "serve").mkdir(parents=True)
    target = repo / "serve" / "store.py"
    target.write_text(source, encoding="utf-8")

    def git(*args: str) -> None:
        subprocess.run(
            [
                "git",
                "-c",
                "user.email=lint@test",
                "-c",
                "user.name=lint",
                *args,
            ],
            cwd=repo,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")

    # Mutate: hoist the guarded ``entry.log.append(...)`` block in
    # ``record_like`` out of its ``with entry.lock:`` region (a
    # plausible "the append looks lock-free" refactor).
    lines = source.splitlines(keepends=True)
    start = next(
        i for i, line in enumerate(lines) if "def record_like" in line
    )
    appender = next(
        i for i in range(start, len(lines))
        if "entry.log.append(" in lines[i]
    )
    closer = next(
        i for i in range(appender, len(lines))
        if lines[i].rstrip() == " " * 12 + ")"
    )
    with_line = next(
        i for i in range(start, appender)
        if "with entry.lock:" in lines[i]
    )
    block = [line[4:] for line in lines[appender : closer + 1]]
    mutated = (
        lines[:with_line]
        + block
        + lines[with_line:appender]
        + lines[closer + 1 :]
    )
    target.write_text("".join(mutated), encoding="utf-8")

    changed = git_changed_lines("HEAD", cwd=repo)
    changed_for_file = changed[target.resolve().as_posix()]
    assert changed_for_file, "mutation produced no diff"

    report = lint_paths(
        [target], select=["RL008"], changed_lines=changed
    )
    assert not report.ok, "RL008 missed the unlocked guarded write"
    assert all(v.rule_id == "RL008" for v in report.violations)
    assert any(".log" in v.message or "log" in v.message for v in report.violations)
    assert all(v.line in changed_for_file for v in report.violations), (
        "diff mode must anchor findings on the moved lines",
        [v.format() for v in report.violations],
    )


# ---------------------------------------------------------------------------
# the tree polices itself
# ---------------------------------------------------------------------------


def test_live_tree_is_lint_clean_modulo_baseline():
    """Every rule over ``src/repro``: clean except the committed,
    justified baseline — which must itself still be live."""
    baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
    report = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
    assert report.ok, "\n".join(v.format() for v in report.violations)
    assert report.files_checked > 50
    assert report.rules_run == ALL_RULE_IDS
    assert report.baselined, "committed baseline matched nothing"
