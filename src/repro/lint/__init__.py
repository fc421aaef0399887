"""repro.lint — AST-based invariant checker for the repro codebase.

The reproduction's correctness rests on invariants that ordinary tests
only probe at runtime: seeded-RNG discipline (RL001), event emission
through the single sink so counters and metrics never drift (RL003),
metric naming and label-set
hygiene (RL004), no silently-swallowed errors (RL005), and parity
between the public ``__all__`` and ``docs/api.md`` (RL006).  This
package checks them statically — pure :mod:`ast`, no third-party
dependencies — so violations fail CI before review.

Usage::

    python -m repro.lint src/repro          # or: repro-lint / repro-csj lint
    python -m repro.lint --format json path/to/file.py
    python -m repro.lint --list-rules

Per-line suppression: ``# repro-lint: disable=RL005`` (trailing on the
flagged line); file-wide: ``# repro-lint: disable-file=RL004``.  See
``docs/lint.md`` for the rule catalogue.
"""

from __future__ import annotations

from .engine import (
    LintReport,
    ModuleContext,
    ProjectContext,
    discover_files,
    lint_paths,
)
from .report import json_report, text_report
from .rules import Rule, all_rules, get_rule, register, rule_ids
from .violations import Violation

__all__ = [
    "LintReport",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "discover_files",
    "get_rule",
    "json_report",
    "lint_paths",
    "register",
    "rule_ids",
    "text_report",
]
