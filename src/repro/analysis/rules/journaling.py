"""QLNT114 — journaled state mutated outside the journal API.

Crash recovery trusts the journal for one fact about a reservation:
the legs an SLA was established with — its GARA handle and its NRM
flow ids, written once, in the SLA's establishment record, from the
composite ``ReservationSystem._reserve`` booked.  Everything else
(whether a leg is committed, cancelled or still held) recovery reads
from GARA and the NRM themselves.  A stray
``composite.compute_handle = ...`` in a helper rebinds a leg the
journal never hears of: the live system and the recovered one then
disagree about which booking an SLA owns, which is exactly the
corruption the journal exists to rule out.

This table names those fields and the methods allowed to assign them.
Recovery code itself (``repro/recovery/``) is exempt — rebuilding the
legs from the journal is its job — as are the simulation kernel and
the baseline policies, which never journal.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet

from ..core import ModuleContext, Rule, Severity, register

#: Journaled fields and the methods that may assign them.
#: ``__init__`` appears where construction legitimately sets the field.
JOURNALED_FIELDS: "Dict[str, FrozenSet[str]]" = {
    # CompositeReservation legs; journaled in the SLA's establishment
    # ``sla_saved`` record (``handle`` / ``flows``).
    "compute_handle": frozenset({"_reserve", "__init__"}),
    "network_booking": frozenset({"_reserve", "__init__"}),
}


@register
class JournaledStateRule(Rule):
    rule_id = "QLNT114"
    title = "journaled state mutated outside the journal API"
    severity = Severity.ERROR
    node_types = (ast.Assign, ast.AnnAssign, ast.AugAssign)

    def applies_to(self, relpath: str) -> bool:
        # Only the journaling control plane is constrained; recovery
        # replay (repro/recovery/) legitimately rebuilds these legs.
        normalized = relpath.replace("\\", "/")
        return ("repro/core/" in normalized
                or "repro/network/" in normalized
                or "repro/gara/" in normalized
                or "repro/sla/" in normalized)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        for target in targets:
            # Attribute targets only: a class-level ``compute_handle:
            # ... = None`` dataclass default is a Name, not a mutation.
            if not isinstance(target, ast.Attribute):
                continue
            allowed = JOURNALED_FIELDS.get(target.attr)
            if allowed is None:
                continue
            method = ctx.current_function()
            if method in allowed:
                continue
            ctx.report(self, node,
                       f"journaled field .{target.attr} assigned in "
                       f"{method or '<module>'}(); only "
                       f"{sorted(allowed)} may set it — replay takes "
                       f"this field from journal records, so an "
                       f"unjournaled assignment diverges on recovery")
