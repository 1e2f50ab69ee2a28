"""QLNT116 — reject/degrade path without a decision record.

The flight recorder (:mod:`repro.obs`) can only explain what the
control plane actually recorded.  Every broker/optimizer/scenario path
that rejects a request or degrades a session announces itself by
bumping a stats counter (``rejected_discovery``, ``squeezes``, ...) or
by constructing the solver's :class:`OptimizationResult`; if such a
function never calls the provenance funnel (``self._decide(...)``,
``probe.decide(...)``, or the solver's ``on_decision`` hook), that
verdict is silent — ``repro obs why`` would have a hole exactly where
an operator needs the explanation.

The rule is structural, not path-sensitive: a *function* containing a
reject/degrade marker must also contain an emit call.  That matches
the funnel discipline (one ``_decide`` next to each counter
bump) without needing data-flow analysis.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Set, Tuple

from ..core import ModuleContext, Rule, Severity, register

#: Stats-counter attribute names whose increment marks a reject or
#: degrade verdict (``stats.rejected_* += 1`` and the Scenario 1/3
#: adaptation counters).
_VERDICT_COUNTERS: "FrozenSet[str]" = frozenset({
    "squeezes",
    "terminations_for_compensation",
    "self_degradations",
    "terminal_degradations",
})

#: Call names that count as emitting a decision record.
_EMITTERS: "FrozenSet[str]" = frozenset({
    "_decide", "decide", "on_decision",
})


def _call_name(func: ast.AST) -> str:
    """The trailing identifier of a call target (``a.b.c()`` -> c)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register
class DecisionProvenanceRule(Rule):
    rule_id = "QLNT116"
    title = "reject/degrade path without a decision record"
    severity = Severity.ERROR
    node_types = (ast.AugAssign, ast.Call)

    def __init__(self) -> None:
        #: function-stack key -> (line, marker description)
        self._markers: "Dict[Tuple[str, ...], Tuple[int, str]]" = {}
        self._satisfied: "Set[Tuple[str, ...]]" = set()

    def applies_to(self, relpath: str) -> bool:
        normalized = relpath.replace("\\", "/")
        return normalized.endswith(("repro/core/broker.py",
                                    "repro/core/scenarios.py",
                                    "repro/core/optimizer.py"))

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        key = tuple(ctx.function_stack)
        if not key:
            return
        if isinstance(node, ast.AugAssign):
            target = node.target
            if not isinstance(target, ast.Attribute):
                return
            name = target.attr
            if (name.startswith("rejected_")
                    or name in _VERDICT_COUNTERS):
                self._markers.setdefault(
                    key, (node.lineno, f".{name} += ..."))
            return
        name = _call_name(node.func)
        if name in _EMITTERS:
            self._satisfied.add(key)
        elif (name == "OptimizationResult"
              and ctx.relpath.replace("\\", "/").endswith(
                  "repro/core/optimizer.py")):
            # Constructing a solver verdict is itself a decision; the
            # solver must offer the on_decision hook a chance to see
            # it before returning.
            self._markers.setdefault(
                key, (node.lineno, "OptimizationResult(...)"))

    def finish(self, ctx: ModuleContext) -> None:
        for key in sorted(self._markers):
            if any(key[:depth] in self._satisfied or key in self._satisfied
                   for depth in range(1, len(key) + 1)):
                continue
            line, marker = self._markers[key]
            ctx.report(self, line,
                       f"{'.'.join(key)}() marks a reject/degrade "
                       f"verdict ({marker}) but never emits a "
                       f"DecisionRecord — call self._decide(...) / "
                       f"probe.decide(...) (or invoke on_decision "
                       f"for solver results) so 'repro obs why' can "
                       f"explain this outcome")
        # One instance serves every module of a run: reset.
        self._markers.clear()
        self._satisfied.clear()
