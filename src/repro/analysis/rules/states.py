"""QLNT107 — the SLA/reservation state machines are closed.

The replayability of Algorithm 1 and the Section 5.6 worked example
rests on every lifecycle object moving only along its declared edges:
a reservation that jumps straight to ``BOUND``, or a negotiation
flipped to ``ACCEPTED`` from a helper nobody audits, silently corrupts
the trace.  This table *is* the machine-checkable transition
declaration: an assignment to a ``state``/``phase``/``status`` field
anywhere in the library must name a registered enum member from inside
one of its declared transition methods.  New lifecycle classes register
here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from ..core import ModuleContext, Rule, Severity, register


@dataclass(frozen=True)
class MachineSpec:
    """Declared transitions of one state enum.

    ``transitions`` maps a method name to the enum members that method
    may assign; ``"*"`` as a method name allows the members anywhere
    (used for none of the current machines, available for generated
    code).
    """

    field: str
    transitions: "Mapping[str, FrozenSet[str]]"

    def allows(self, method: "str | None", member: str) -> bool:
        allowed = self.transitions.get(method or "")
        if allowed is not None and member in allowed:
            return True
        wildcard = self.transitions.get("*")
        return wildcard is not None and member in wildcard


def _spec(field: str, **methods: "tuple"):
    return MachineSpec(field=field,
                       transitions={name: frozenset(members)
                                    for name, members in methods.items()})


#: The transition table, keyed by enum class name.  One entry per
#: lifecycle machine in the library; tests assert the table matches
#: the enums it names.
STATE_MACHINES: "Dict[str, MachineSpec]" = {
    # GARA reservation lifecycle (Section 3.1).
    "ReservationState": _spec(
        "state",
        commit=("COMMITTED",),
        bind=("BOUND",),
        unbind=("COMMITTED",),
        cancel=("CANCELLED",),
        expire=("EXPIRED",),
    ),
    # QoS session phases (Figure 3).
    "Phase": _spec(
        "phase",
        enter_active=("ACTIVE",),
        enter_clearing=("CLEARING",),
        close=("CLOSED",),
    ),
    # SLA negotiation protocol.
    "NegotiationState": _spec(
        "state",
        __init__=("REQUESTED",),
        propose=("FAILED", "OFFERED"),
        accept=("ACCEPTED",),
        reject=("REJECTED",),
        counter=("REQUESTED",),
    ),
    # Launched Grid-service processes.
    "JobState": _spec(
        "state",
        _complete=("COMPLETED",),
        kill=("KILLED",),
    ),
    # SLA document lifecycle (Section 3.1). COMPLETED, TERMINATED and
    # EXPIRED are absorbing: no method leaves them, which is what lets
    # the SLA repository drop a closed document from its open index.
    "SlaStatus": _spec(
        "status",
        establish=("ESTABLISHED",),
        activate=("ACTIVE",),
        complete=("COMPLETED",),
        terminate=("TERMINATED",),
        expire=("EXPIRED",),
    ),
}

#: Attribute names treated as state fields wherever they are assigned.
STATE_FIELD_NAMES = frozenset(
    spec.field for spec in STATE_MACHINES.values())


@register
class StateTransitionRule(Rule):
    rule_id = "QLNT107"
    title = "state-field assignment outside the transition table"
    severity = Severity.ERROR
    node_types = (ast.Assign, ast.AnnAssign, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            targets = [node.target]
            value = node.value
        if value is None:
            return
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    target.attr in STATE_FIELD_NAMES:
                self._check(node, target, value, ctx)

    def _check(self, node: ast.AST, target: ast.Attribute,
               value: ast.AST, ctx: ModuleContext) -> None:
        if not (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)):
            ctx.report(self, node,
                       f"state field .{target.attr} assigned a computed "
                       f"value; assign a declared enum member so the "
                       f"transition is auditable")
            return
        enum_name = value.value.id
        member = value.attr
        spec = STATE_MACHINES.get(enum_name)
        if spec is None:
            ctx.report(self, node,
                       f"state machine {enum_name!r} is not registered "
                       f"in repro.analysis.rules.states.STATE_MACHINES; "
                       f"declare its transitions")
            return
        if spec.field != target.attr:
            ctx.report(self, node,
                       f"{enum_name} members belong in field "
                       f".{spec.field}, not .{target.attr}")
            return
        method = ctx.current_function()
        if not spec.allows(method, member):
            ctx.report(self, node,
                       f"undeclared transition: {method or '<module>'}() "
                       f"assigns {enum_name}.{member}; declare it in the "
                       f"STATE_MACHINES table or route through a "
                       f"declared transition method")
