"""Deterministic spans with parent/child causality.

A :class:`Span` covers one operation on the simulation clock; spans
nest through an explicit context stack kept by the :class:`Tracer`,
and cross *process-boundary* legs (bus envelopes) by carrying the
``trace_id``/``span_id`` pair in the envelope headers — the receiving
side opens its handler span with the sender's span as an explicit
remote parent. One admission or adaptation episode is therefore a
single connected tree even when the transport drops, duplicates or
retries legs: every retry is a fresh child span under the caller's
``call:`` span, and every delivery (including a duplicate) is a
``handle:`` span under the request leg that carried it.

Identifiers are per-tracer counters (``trace-1``, ``span-1``, …), so
a fixed seed yields byte-identical span trees; no wall clock, no
process-global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .events import EventStream, TelemetryEvent


@dataclass(eq=False)  # an entity: equal only to itself
class Span:
    """One timed operation in a trace (opened by :meth:`Tracer.start`).

    Attributes:
        trace_id: The episode this span belongs to.
        span_id: Unique id within the tracer.
        parent_id: The causally-enclosing span (``None`` for roots).
        name: Operation name, e.g. ``"request:service_request"``.
        component: The acting component, e.g. ``"aqos-broker"``.
        start: Sim time the operation began.
        end: Sim time it finished (``None`` while open).
        status: ``"ok"``, or ``"error:<ExceptionName>"``.
        attributes: Structured payload (message ids, attempt counts…).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "component",
                 "start", "end", "status", "attributes")
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    component: str
    start: float
    end: Optional[float]
    status: str
    attributes: Dict[str, Any]

    @property
    def duration(self) -> float:
        """Elapsed sim time (0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start


class _OpenSpan:
    """What :meth:`Tracer.span` returns: a context that pushes the span
    and, on exit, pops and finishes it (see :meth:`Tracer.span`)."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span)
        return self.span

    def __exit__(self, kind: Any, error: Any, traceback: Any) -> None:
        tracer, span = self.tracer, self.span
        if kind is not None:
            tracer.finish(span, status=f"error:{kind.__name__}")
        tracer._stack.remove(span)
        tracer.finish(span)


class Tracer:
    """Creates, nests and finishes spans on the simulation clock.

    Args:
        now: Clock callable (``lambda: sim.now``).
        stream: Optional shared event stream; every finished span is
            emitted there under the ``"span"`` category, so the JSONL
            export carries the full causality record.
    """

    def __init__(self, now: Callable[[], float],
                 stream: Optional[EventStream] = None) -> None:
        self._now = now
        self._stream = stream
        self._trace_counter = 0
        self._span_counter = 0
        self._stack: List[Span] = []
        self._spans: List[Span] = []

    # ------------------------------------------------------------------
    # Creation / completion
    # ------------------------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span on the context stack."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, *, component: str = "",
              trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              **attributes: Any) -> Span:
        """Open a span.

        Without an explicit ``trace_id``/``parent_id`` the span parents
        to the current context span (same trace); with neither context
        nor explicit ids it roots a fresh trace. Explicit ids are how
        a bus delivery resumes the *sender's* trace (remote parent).
        """
        stack = self._stack
        if parent_id is None and trace_id is None and stack:
            trace_id = stack[-1].trace_id
            parent_id = stack[-1].span_id
        if trace_id is None:
            self._trace_counter += 1
            trace_id = f"trace-{self._trace_counter}"
        self._span_counter += 1
        span = Span(trace_id, f"span-{self._span_counter}", parent_id, name,
                    component, self._now(), None, "ok", attributes)
        self._spans.append(span)
        return span

    def finish(self, span: Span, *, status: Optional[str] = None) -> None:
        """Close a span (idempotent) and emit it to the event stream."""
        if span.end is not None:
            return
        if status is not None:
            # A span's status is an ``ok``/``error:<Type>`` string,
            # not a lifecycle enum.
            span.status = status  # qlint: disable=QLNT107 -- not a machine
        end = span.end = self._now()
        if self._stream is not None:
            self._stream.append(TelemetryEvent(
                end, "span",
                f"{span.component or '?'}: {span.name} ({span.status})",
                {"trace_id": span.trace_id, "span_id": span.span_id,
                 "parent_id": span.parent_id or "", "start": span.start,
                 "duration": end - span.start, **span.attributes}))

    def span(self, name: str, *, component: str = "",
             trace_id: Optional[str] = None,
             parent_id: Optional[str] = None,
             **attributes: Any) -> _OpenSpan:
        """Open a span, push it as the context, close it on exit.

        An exception escaping the block marks the span
        ``error:<ExceptionName>`` and re-raises — failed legs stay in
        the tree with their failure mode visible.
        """
        return _OpenSpan(self, self.start(
            name, component=component, trace_id=trace_id,
            parent_id=parent_id, **attributes))

    # ------------------------------------------------------------------
    # Introspection / rendering
    # ------------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All spans, in creation order (a copy)."""
        return list(self._spans)

    def trace(self, trace_id: str) -> List[Span]:
        """Spans of one trace, in creation order."""
        return [span for span in self._spans if span.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids, in first-seen order."""
        seen: "Dict[str, None]" = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def render_tree(self, trace_id: Optional[str] = None) -> str:
        """Render span trees as indented text (one block per trace)."""
        trace_ids = ([trace_id] if trace_id is not None
                     else self.trace_ids())
        lines: List[str] = []
        for tid in trace_ids:
            spans = self.trace(tid)
            by_parent: Dict[Optional[str], List[Span]] = {}
            ids = {span.span_id for span in spans}
            for span in spans:
                parent = (span.parent_id
                          if span.parent_id in ids else None)
                by_parent.setdefault(parent, []).append(span)
            lines.append(f"trace {tid}")

            def walk(parent: Optional[str], depth: int) -> None:
                for span in by_parent.get(parent, []):
                    end = ("..." if span.end is None
                           else f"{span.end:g}")
                    attrs = "".join(
                        f" {key}={span.attributes[key]}"
                        for key in sorted(span.attributes))
                    lines.append(
                        f"{'  ' * (depth + 1)}[{span.start:g} .. {end}] "
                        f"{span.component or '?'}: {span.name} "
                        f"({span.status}){attrs}")
                    walk(span.span_id, depth + 1)

            walk(None, 0)
        return "\n".join(lines)
