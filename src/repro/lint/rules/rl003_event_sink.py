"""RL003 — pairing-event emission bypassing the sink API.

Every pairing event must flow through ``EventTrace.emit`` /
``emit_bulk`` in ``core/events.py``: the sink keeps the
``EventCounts`` dataclass and the ``repro_core_events_total`` metric
family in lockstep.  Code that pokes ``trace.counts`` directly (or
increments the metric family itself) updates one side only — exactly
the serial/parallel event-parity drift the ApBaseline NO_MATCH fix in
PR 1 repaired after the fact.

Flagged outside ``core/events.py`` / ``core/types.py``:

* assignments to a ``.counts`` attribute (including merge-by-``+``);
* assignments or ``setattr`` on individual counter fields reached
  through ``.counts``;
* ``.inc(...)`` calls on the events metric family.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..violations import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import ModuleContext
from . import Rule, register

#: The five counter fields of ``EventCounts``.
EVENT_FIELDS = frozenset(
    {"min_prune", "max_prune", "no_overlap", "no_match", "match"}
)

#: Metric family the sink mirrors into; direct ``.inc`` is a bypass.
EVENTS_METRIC_NAME = "repro_core_events_total"

#: Files allowed to touch the counters directly: the sink itself and
#: the dataclass definition.
SINK_FILES = ("core/events.py", "core/types.py")


def _touches_counts(node: ast.expr) -> bool:
    return any(
        isinstance(child, ast.Attribute) and child.attr == "counts"
        for child in ast.walk(node)
    )


@register
class EventSinkBypassRule(Rule):
    rule_id = "RL003"
    title = "event-sink-bypass"
    rationale = (
        "pairing events must go through EventTrace.emit/emit_bulk "
        "so EventCounts and the metrics mirror never drift apart"
    )

    def check(self, module: "ModuleContext") -> Iterator[Violation]:
        if module.posix_path.endswith(SINK_FILES):
            return
        constants = module.string_constants()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr == "counts":
                        yield module.violation(
                            self.rule_id,
                            target,
                            "direct assignment to .counts bypasses the event "
                            "sink (the metrics mirror is skipped); use "
                            "EventTrace.emit_bulk()",
                        )
                    elif target.attr in EVENT_FIELDS and _touches_counts(
                        target.value
                    ):
                        yield module.violation(
                            self.rule_id,
                            target,
                            f"direct mutation of .counts.{target.attr} "
                            "bypasses the event sink; use EventTrace.emit()",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "setattr"
                    and node.args
                    and _touches_counts(node.args[0])
                ):
                    yield module.violation(
                        self.rule_id,
                        node,
                        "setattr on an EventCounts object bypasses the event "
                        "sink; use EventTrace.emit()",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "inc"
                    and node.args
                    and self._metric_name(node.args[0], constants)
                    == EVENTS_METRIC_NAME
                ):
                    yield module.violation(
                        self.rule_id,
                        node,
                        f"direct .inc({EVENTS_METRIC_NAME!r}) outside the "
                        "sink; emit the event through EventTrace instead",
                    )

    @staticmethod
    def _metric_name(
        node: ast.expr, constants: dict[str, str]
    ) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in constants:
                return constants[node.id]
            if node.id.endswith("EVENTS_METRIC"):
                return EVENTS_METRIC_NAME
        return None
