"""QLNT113, QLNT118 — instrumentation goes through the shared mechanisms.

**QLNT113 — private mutable counters for cross-cutting statistics.**

The telemetry hub owns one :class:`~repro.telemetry.MetricsRegistry`
per control plane; counters that describe cross-cutting behaviour
(cache hits, messages seen, totals) belong there, where they get
labels, exact time-weighting and a Prometheus rendering for free. A
bare ``self.stale_hits += 1`` on a component is a shadow counting
mechanism: it drifts from the registry, is invisible to the exporters,
and every new dashboard has to know about it separately. Components in
the instrumented layers must increment a registry counter (or expose a
read-only property over one) instead.

Local dataclass stat bundles (``self.stats.drops += 1``) stay legal —
the rule only fires on counter-named attributes directly on ``self``.

**QLNT118 — an instrumentation side-channel beside the probe.**
Tracing, journaling, decision provenance and SLO accounting reach a
component through the one :class:`repro.probe.Probe` it was built
with. A component that grows its own ``self.journal = ...`` attribute,
or branches on ``self.<...>.decisions is None``, re-opens what the
seam closed: a backend installed on one component but not another, and
a hand-written guard per emit site. The probe itself and the read side
(the flight recorder joins the backends) are exempt.
"""

from __future__ import annotations

import ast

from ..core import ModuleContext, Rule, Severity, register

#: Attribute-name suffixes that mark a cross-cutting counter.
_COUNTER_SUFFIXES = ("hits", "_total", "_seen")

#: Exact attribute names that are counters regardless of suffix.
_COUNTER_NAMES = ("tests_run",)


def _is_counter_name(attr: str) -> bool:
    name = attr.lstrip("_")
    return name in _COUNTER_NAMES or name.endswith(_COUNTER_SUFFIXES)


@register
class PrivateCounterRule(Rule):
    rule_id = "QLNT113"
    title = "private mutable counter shadows the metrics registry"
    severity = Severity.ERROR
    node_types = (ast.AugAssign,)

    def applies_to(self, relpath: str) -> bool:
        # The instrumented control-plane layers; experiments and the
        # telemetry package itself keep their local accumulators.
        normalized = relpath.replace("\\", "/")
        return any(part in normalized for part in (
            "repro/core/", "repro/monitoring/", "repro/network/",
            "repro/xmlmsg/", "repro/registry/"))

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.AugAssign)
        target = node.target
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        if _is_counter_name(target.attr):
            ctx.report(self, node,
                       f"'self.{target.attr} += ...' is a private "
                       f"counting mechanism; increment a MetricsRegistry "
                       f"counter (metrics.counter(...).inc()) and expose "
                       f"a read-only property over it instead")


#: The per-component attributes the probe replaced.
_CHANNELS = frozenset({"telemetry", "journal", "decisions", "slo",
                       "observer"})
_EXEMPT = ("repro/probe.py", "repro/obs/flight.py", "repro/cli.py")


def _through_self(node: ast.AST) -> bool:
    """Whether ``node`` is ``self.<...>.<channel>``."""
    if not (isinstance(node, ast.Attribute)
            and node.attr.lstrip("_") in _CHANNELS):
        return False
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


@register
class SideChannelRule(Rule):
    rule_id = "QLNT118"
    title = "instrumentation side-channel beside the probe"
    severity = Severity.ERROR
    node_types = (ast.Attribute,)

    def applies_to(self, relpath: str) -> bool:
        normalized = relpath.replace("\\", "/")
        return "repro/" in normalized and not normalized.endswith(_EXEMPT)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not _through_self(node):
            return
        parent = ctx.parent(node)
        if isinstance(node.ctx, ast.Store):
            # Directly on ``self`` only: ``testbed.probe.journal = j``
            # is an installer filling the seam, not a second channel.
            if isinstance(node.value, ast.Name):
                ctx.report(self, node,
                           f"'self.{node.attr} = ...' is a private "
                           f"instrumentation channel; take the testbed's "
                           f"probe at construction and report through it")
        elif (isinstance(parent, ast.Compare) and parent.left is node
              and isinstance(parent.ops[0], (ast.Is, ast.IsNot))
              and isinstance(parent.comparators[0], ast.Constant)
              and parent.comparators[0].value is None):
            ctx.report(self, node,
                       f"'.{node.attr} is [not] None' guard: call the "
                       f"probe verb (a no-op without its backend) or "
                       f"gate the payload on a probe predicate")
