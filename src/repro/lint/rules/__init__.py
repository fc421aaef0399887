"""Rule registry.

A rule is a class with a unique ``rule_id`` registered via
:func:`register`.  The engine instantiates a fresh object per run, calls
:meth:`Rule.check` once per parsed module, then :meth:`Rule.finalize`
once with the whole project — so rules may accumulate cross-file state
on ``self`` without leaking between runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import ModuleContext, ProjectContext
    from ..violations import Violation

__all__ = ["Rule", "all_rules", "get_rule", "register", "rule_ids"]


class Rule:
    """Base class: a rule id, one-line title, and two check passes."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, module: "ModuleContext") -> Iterator["Violation"]:
        """Per-module pass; yield findings anchored in ``module``."""
        return iter(())

    def finalize(self, project: "ProjectContext") -> Iterator["Violation"]:
        """Project-wide pass, after every module has been checked."""
        return iter(())


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """One fresh rule instance by id (raises ``KeyError`` if unknown)."""
    return _REGISTRY[rule_id.upper()]()


def rule_ids() -> Iterable[str]:
    return sorted(_REGISTRY)


# Importing the rule modules populates the registry as a side effect.
from . import (  # noqa: E402  (registry must exist before rule modules)
    rl001_unseeded_rng,
    rl003_event_sink,
    rl004_metric_naming,
    rl005_error_handling,
    rl006_api_docs,
    rl007_async_blocking,
    rl008_lock_discipline,
    rl009_serve_parity,
    rl010_metric_parity,
    rl011_seed_threading,
)

_ = (
    rl001_unseeded_rng,
    rl003_event_sink,
    rl004_metric_naming,
    rl005_error_handling,
    rl006_api_docs,
    rl007_async_blocking,
    rl008_lock_discipline,
    rl009_serve_parity,
    rl010_metric_parity,
    rl011_seed_threading,
)
