"""QLNT115 — allocation in the DES/slot-table/partition/wire/emit hot loops.

The array-backed cores exist because the event queue pops millions of
tuples per experiment and the slot table answers a capacity probe per
admission: both were rebuilt around flat parallel arrays precisely so
the inner loops touch no Python object allocation.  One stray
``lambda`` capture or per-event wrapper object in those loops silently
re-introduces the allocation cost the rewrite removed — and nothing
functional breaks, so only a benchmark (or this rule) would notice.
The capacity partition's per-admission path is held to the same rule:
every request runs one demand update and one water-fill pass, and
every read of a holding's sourcing runs the holding's read accessor
and, once per pass, the draw that places it on the pass's demand lines
on local floats (DESIGN §4) — a per-draw closure or a per-pool ledger
object there is paid by every admission, departure and holding read.
So are the machine's ``fail_nodes``/``repair_nodes``: node state is one
down-set, so a churn cycle builds no per-node object. So are the wire
writer and reader: every body of every bus request is written by
``Message.write``/``_write`` and read back by ``Message.read``/``_read``
(DESIGN §9), one call per element, and framed by ``Envelope.to_xml`` —
a closure or a per-field wrapper object there is paid per element of
every message. So are the
instruments' emit paths (DESIGN §10), run per gauge, span, row,
decision and SLO sample of an instrumented replay: each builds its
one row and nothing else. So is the RSL leg every compute booking
takes (DESIGN §12): the Reservation System writes the string clause by
clause, GARA lexes it with one compiled pattern, walks the lexemes and
reads the relations in one pass — a per-lexeme token object or a
per-call closure there is paid by every admission.

The table below names the hot functions.  Inside them three things
flag: ``lambda`` expressions (closure allocation per iteration),
nested ``def`` (same, plus a cell per captured variable), and
capitalized constructor calls.  Declared allowed idioms:

* ``ResourceVector`` — the slot-table probes *return* one aggregate
  vector per call; building the single result is the contract, it is
  the per-boundary/per-event objects that are banned;
* ``RebalanceReport`` / ``PoolUsage`` — likewise the one report, with
  its three pool rows, that every rebalance pass returns;
* ``Span`` / ``DecisionRecord`` / ``TelemetryEvent`` — the one span
  ``Tracer.start`` opens, the one record ``DecisionLog.decide``
  returns and the one row each emit appends;
* ``RSLRelation`` / ``RSLExpression`` — the one AST a parse returns;
* constructor calls inside ``raise`` — error paths are cold.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional

from ..core import ModuleContext, Rule, Severity, register

#: module suffix -> the functions forming its allocation-free hot path.
HOT_PATHS: "Dict[str, FrozenSet[str]]" = {
    # The event-queue inner loop: one heap-tuple pop per event.
    "repro/sim/events.py": frozenset({"pop", "peek_time"}),
    # The dispatch loop driving it.
    "repro/sim/engine.py": frozenset({"run", "step"}),
    # The admission-rate probe path over the parallel usage columns.
    "repro/gara/slot_table.py": frozenset({
        "usage_at", "available_at", "peak_usage", "available",
        "can_reserve", "utilization_at", "_apply_delta"}),
    # One admission's way through the partition: the demand update
    # and the water-fill pass it triggers; one departure's; and one
    # holding read: the accessor and the draw it runs.
    "repro/core/capacity.py": frozenset({
        "rebalance", "set_guaranteed_demand", "effective_sizes",
        "remove_guaranteed", "_draw", "_read"}),
    # One churn cycle's node bookkeeping, kept as set arithmetic.
    "repro/resources/machine.py": frozenset({"fail_nodes", "repair_nodes"}),
    # One message's way onto the wire and back: the table-driven
    # writer and reader every body goes through, and the envelope
    # frame written around it.
    "repro/xmlmsg/schema.py": frozenset({"write", "_write", "read",
                                         "_read"}),
    "repro/xmlmsg/envelope.py": frozenset({"to_xml"}),
    # The instruments' emit paths.
    "repro/telemetry/metrics.py": frozenset({"_get", "set", "set_at"}),
    "repro/telemetry/spans.py": frozenset({"start", "finish", "span"}),
    "repro/telemetry/events.py": frozenset({"emit", "append"}),
    "repro/telemetry/capacity.py": frozenset({"on_rebalance"}),
    "repro/obs/decisions.py": frozenset({"decide"}),
    "repro/obs/slo.py": frozenset({"snapshot", "fold", "window"}),
    # One reservation's RSL leg: rendered by the Reservation System,
    # lexed and parsed back by GARA, read into a demand vector.
    "repro/rsl/parser.py": frozenset({
        "parse_rsl", "_parse_expression", "_parse_relation",
        "_parse_values"}),
    "repro/rsl/builder.py": frozenset({"reservation_rsl", "vector_from_rsl"}),
    "repro/rsl/ast.py": frozenset({"_token_value", "_render_value"}),
}

#: Constructors a hot function may call (see module docstring).
ALLOWED_CONSTRUCTORS: "FrozenSet[str]" = frozenset({
    "ResourceVector", "RebalanceReport", "PoolUsage", "Span",
    "DecisionRecord", "TelemetryEvent", "RSLRelation", "RSLExpression"})


def _hot_functions(relpath: str) -> "Optional[FrozenSet[str]]":
    normalized = relpath.replace("\\", "/")
    for suffix, functions in HOT_PATHS.items():
        if normalized.endswith(suffix):
            return functions
    return None


@register
class HotPathAllocationRule(Rule):
    rule_id = "QLNT115"
    title = ("object allocation in the DES/slot-table/partition/wire/"
             "emit hot loop")
    severity = Severity.ERROR
    node_types = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef,
                  ast.Call)

    def applies_to(self, relpath: str) -> bool:
        return _hot_functions(relpath) is not None

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        hot = _hot_functions(ctx.relpath)
        # The engine dispatches the def/lambda node *before* pushing
        # its own name, so current_function() is the enclosing scope.
        function = ctx.current_function()
        if hot is None or function not in hot:
            return
        if isinstance(node, ast.Lambda):
            ctx.report(self, node,
                       f"lambda inside hot function {function}() "
                       f"allocates a closure per iteration; hoist the "
                       f"callable out of the loop")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.report(self, node,
                       f"nested function {node.name}() inside hot "
                       f"function {function}() allocates a closure "
                       f"per call; define it at module or class scope")
        else:
            name = node.func
            if not isinstance(name, ast.Name):
                return
            if not name.id[:1].isupper() or name.id in ALLOWED_CONSTRUCTORS:
                return
            if isinstance(ctx.parent(node), ast.Raise):
                return  # error paths are cold
            ctx.report(self, node,
                       f"{name.id}(...) constructed inside hot function "
                       f"{function}(); the flat-array core exists so "
                       f"this loop allocates no per-event objects — "
                       f"keep scalars/tuples or extend the declared "
                       f"allowed idioms")
