"""Render a trace as an ASCII sequence diagram (the Figure 2 view).

The broker's trace rows are mapped onto actor-to-actor interactions
(Client, AQoS, RM, NRM, Service) and drawn as a lifeline diagram, so
``bench_fig2_sequence.py`` regenerates the paper's sequence figure
rather than a flat log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sim.trace import TraceRecorder

#: The paper's actors, in Figure 2's left-to-right order.
ACTORS: "Tuple[str, ...]" = ("Client", "AQoS", "RM", "NRM", "Service")


@dataclass(frozen=True)
class Interaction:
    """One arrow of the sequence diagram."""

    time: float
    source: str
    target: str
    label: str


#: (category, message-substring) -> (source, target, arrow label).
_RULES: "Tuple[Tuple[str, str, str, str, str], ...]" = (
    ("broker", "discovery for", "Client", "AQoS", "QueryServices()"),
    ("broker", "insufficient resources", "AQoS", "AQoS", "Adapt()"),
    ("broker", "proposed", "AQoS", "Client", "SLAnegotiation()"),
    ("reservation", "temporarily reserved compute", "AQoS", "RM",
     "ResourceAllocation()"),
    ("reservation", "reserved network", "AQoS", "NRM",
     "ResourceAllocation()"),
    ("compute", "launched", "RM", "Service", "ServiceInvocation()"),
    ("broker", "established", "AQoS", "Client", "SLA established"),
    ("sla-verif", "conformance test", "AQoS", "RM", "QoSmanagement()"),
    ("sla-verif", "NRM degradation", "NRM", "AQoS",
     "DegradationNotice()"),
    ("broker", "Scenario 3", "AQoS", "Service", "QoSadaptation()"),
    ("broker", "delivered point moved", "AQoS", "RM",
     "ModifyReservation()"),
    ("broker", "re-negotiated", "AQoS", "Client", "Renegotiation()"),
    ("compute", "completed", "Service", "RM", "completion"),
    ("broker", "closed", "AQoS", "Client", "QoStermination()"),
)


def extract_interactions(trace: TraceRecorder, *,
                         limit: Optional[int] = None
                         ) -> List[Interaction]:
    """Map trace rows onto Figure 2 interactions (unmatched rows are
    skipped)."""
    interactions: List[Interaction] = []
    for entry in trace:
        for category, needle, source, target, label in _RULES:
            if entry.category == category and needle in entry.message:
                interactions.append(Interaction(
                    time=entry.time, source=source, target=target,
                    label=label))
                break
        if limit is not None and len(interactions) >= limit:
            break
    return interactions


def render_sequence_diagram(interactions: Sequence[Interaction]) -> str:
    """Draw the interactions as an ASCII lifeline diagram, one
    16-column lane per actor."""
    column_width = 16
    positions = {actor: index * column_width + column_width // 2
                 for index, actor in enumerate(ACTORS)}
    total_width = column_width * len(ACTORS)

    def lifeline_row() -> List[str]:
        row = [" "] * total_width
        for actor in ACTORS:
            row[positions[actor]] = "|"
        return row

    prefix_width = 9  # matches the f"{time:8.2f} " arrow prefix
    blank_prefix = " " * prefix_width
    lines: List[str] = []
    header = [" "] * total_width
    for actor in ACTORS:
        start = positions[actor] - len(actor) // 2
        header[start:start + len(actor)] = actor
    lines.append((blank_prefix + "".join(header)).rstrip())
    lines.append((blank_prefix + "".join(lifeline_row())).rstrip())

    for interaction in interactions:
        source = positions[interaction.source]
        target = positions[interaction.target]
        row = lifeline_row()
        if source == target:
            # Self-call: a small loop marker.
            row[source] = "*"
            text = f" {interaction.label}"
            for offset, char in enumerate(text):
                slot = source + 1 + offset
                if slot < total_width:
                    row[slot] = char
        else:
            low, high = sorted((source, target))
            for slot in range(low + 1, high):
                row[slot] = "-"
            row[target] = ">" if target > source else "<"
            label = interaction.label[:high - low - 3]
            start = (low + high) // 2 - len(label) // 2
            for offset, char in enumerate(label):
                slot = start + offset
                if low < slot < high:
                    row[slot] = char
        time_prefix = f"{interaction.time:8.2f} "
        lines.append((time_prefix + "".join(row)).rstrip())
        lines.append((blank_prefix + "".join(lifeline_row())).rstrip())
    return "\n".join(lines)


def figure2_diagram(trace: TraceRecorder, *,
                    limit: Optional[int] = 24) -> str:
    """One-call helper: extract and render."""
    return render_sequence_diagram(extract_interactions(trace,
                                                        limit=limit))
