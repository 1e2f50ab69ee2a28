"""Rule framework for the self-hosted static-analysis engine.

A :class:`Rule` declares which AST node types it wants to see
(``node_types``); the engine parses each module **once**, walks the
tree once, and dispatches every node to the rules registered for its
type.  Rules report through :meth:`ModuleContext.report`, which applies
inline suppressions before a finding is recorded.

Rule identifiers are stable (``QLNT101`` ...) so suppression comments
and baseline entries survive refactors of the rule implementations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple, Type

from ..errors import AnalysisError


class Severity(Enum):
    """How a finding is treated by the CLI exit code."""

    #: Advisory: fails the run only under ``--strict``.
    WARNING = "warning"
    #: Always fails the run (unless suppressed or baselined).
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    column: int
    message: str
    source: str = ""
    fingerprint: str = ""

    def as_dict(self) -> "Dict[str, object]":
        """The stable JSON form (schema checked by the reporter tests)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "source": self.source,
            "fingerprint": self.fingerprint,
        }

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule_id} [{self.severity}] {self.message}")


class Rule:
    """Base class for analysis rules.

    Subclasses set ``rule_id``/``title``/``severity``, list the AST
    node classes they inspect in ``node_types``, and implement
    :meth:`visit` (per matching node) and/or :meth:`finish` (once per
    module, after the walk).
    """

    rule_id: str = "QLNT000"
    title: str = ""
    severity: Severity = Severity.ERROR
    #: AST node classes dispatched to :meth:`visit`.
    node_types: "Tuple[type, ...]" = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the module at ``relpath``.

        Rules with structural exemptions (e.g. the determinism rule
        exempts ``sim/random.py``) override this.
        """
        return True

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> None:
        """Inspect one node of a type listed in ``node_types``."""

    def finish(self, ctx: "ModuleContext") -> None:
        """Run module-level checks after the single walk completes."""


class ModuleContext:
    """Everything the rules may consult about the module under analysis.

    Built once per module by the engine: one source read, one
    :func:`ast.parse`, one suppression scan.  The engine maintains
    ``class_stack``/``function_stack`` during the walk so rules can ask
    for their lexical position without re-walking.
    """

    def __init__(self, relpath: str, text: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.findings: "List[Finding]" = []
        #: Enclosing ``ClassDef`` names, outermost first.
        self.class_stack: "List[str]" = []
        #: Enclosing function names, outermost first.
        self.function_stack: "List[str]" = []
        self._parents: "Dict[int, ast.AST]" = {}
        from .suppressions import scan_suppressions
        self._suppressions = scan_suppressions(text)

    # -- lexical helpers -------------------------------------------------

    def parent(self, node: ast.AST) -> "ast.AST | None":
        """The AST parent of ``node`` (``None`` for the module root)."""
        return self._parents.get(id(node))

    def set_parent(self, node: ast.AST, parent: ast.AST) -> None:
        self._parents[id(node)] = parent

    def current_function(self) -> "str | None":
        return self.function_stack[-1] if self.function_stack else None

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- reporting -------------------------------------------------------

    def suppressed(self, rule_id: str, line: int) -> bool:
        return self._suppressions.suppressed(rule_id, line)

    def report(self, rule: Rule, node: "ast.AST | int",
               message: str) -> None:
        """Record a finding at ``node`` unless suppressed inline."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        column = 0 if isinstance(node, int) else getattr(node, "col_offset", 0)
        if self.suppressed(rule.rule_id, line):
            return
        self.findings.append(Finding(
            rule_id=rule.rule_id,
            severity=rule.severity.value,
            path=self.relpath,
            line=line,
            column=column,
            message=message,
            source=self.source_line(line),
        ))


# -- registry ------------------------------------------------------------

_REGISTRY: "Dict[str, Type[Rule]]" = {}


def register(cls: "Type[Rule]") -> "Type[Rule]":
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or cls.rule_id == Rule.rule_id:
        raise AnalysisError(f"rule {cls.__name__} has no stable rule_id")
    if cls.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> "List[Rule]":
    """Fresh instances of every registered rule, ordered by id."""
    # Importing the rules registers them.
    from . import rules as _rules  # qlint: disable=QLNT110
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
