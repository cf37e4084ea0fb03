"""Rendering candidate executions as Graphviz DOT.

herd can display candidate executions as graphs (the paper's Figures 2,
4-7, 9-11, 13, 14, 16 are such renderings); this module produces the
same kind of picture as DOT text: one cluster per thread, program order
top-to-bottom, and the communication / derived relations as coloured
labelled edges.

No graphviz dependency is required to *produce* the text; render it with
``dot -Tpdf`` wherever graphviz is available.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.events import Event
from repro.executions.candidate import CandidateExecution
from repro.relations import Relation

#: Default relations to draw and their colours (herd's conventions).
DEFAULT_EDGES: Dict[str, str] = {
    "rf": "red",
    "co": "blue",
    "fr": "brown",
    "addr": "darkgreen",
    "data": "darkgreen",
    "ctrl": "darkgreen",
    "rmw": "purple",
}


def _node_id(event: Event) -> str:
    return f"e{event.eid}"


def _node_label(event: Event) -> str:
    name = event.label or f"e{event.eid}"
    if event.is_fence:
        return f"{name}: F[{event.tag}]"
    return f"{name}: {event.kind}[{event.tag}] {event.loc}={event.value!r}"


def to_dot(
    execution: CandidateExecution,
    extra_relations: Optional[Dict[str, Relation]] = None,
    include_init: bool = False,
    title: Optional[str] = None,
) -> str:
    """Render ``execution`` as DOT text.

    ``extra_relations`` adds named derived relations (e.g. the hb of a
    forbidding cycle) as dashed orange edges.
    """
    lines: List[str] = ["digraph execution {"]
    lines.append(f'  label="{title or execution.name}";')
    lines.append("  labelloc=t;")
    lines.append('  node [shape=box, fontname="monospace", fontsize=10];')

    by_tid: Dict[int, List[Event]] = {}
    for event in execution.sorted_events():
        if event.is_init and not include_init:
            continue
        by_tid.setdefault(event.tid, []).append(event)

    for tid in sorted(by_tid):
        events = by_tid[tid]
        name = "init" if tid < 0 else f"T{tid}"
        lines.append(f"  subgraph cluster_{tid if tid >= 0 else 'init'} {{")
        lines.append(f'    label="{name}";')
        for event in events:
            lines.append(
                f'    {_node_id(event)} [label="{_node_label(event)}"];'
            )
        # Program order as invisible-ish structural edges.
        for a, b in zip(events, events[1:]):
            lines.append(
                f"    {_node_id(a)} -> {_node_id(b)} "
                '[color=gray, label="po", fontcolor=gray];'
            )
        lines.append("  }")

    drawn = set()
    for name, colour in DEFAULT_EDGES.items():
        relation: Relation = getattr(execution, name if name != "fr" else "fr")
        for a, b in relation.pairs:
            if (a.is_init or b.is_init) and not include_init:
                continue
            key = (name, a.eid, b.eid)
            if key in drawn:
                continue
            drawn.add(key)
            lines.append(
                f"  {_node_id(a)} -> {_node_id(b)} "
                f'[color={colour}, label="{name}", fontcolor={colour}, '
                "constraint=false];"
            )

    for name, relation in (extra_relations or {}).items():
        for a, b in relation.pairs:
            if (a.is_init or b.is_init) and not include_init:
                continue
            lines.append(
                f"  {_node_id(a)} -> {_node_id(b)} "
                f'[color=orange, style=dashed, label="{name}", '
                "fontcolor=orange, constraint=false];"
            )

    lines.append("}")
    return "\n".join(lines) + "\n"


def cycle_to_dot(
    execution: CandidateExecution,
    cycle: Iterable[Event],
    title: Optional[str] = None,
) -> str:
    """Render an execution with a forbidding cycle highlighted."""
    cycle = list(cycle)
    pairs = list(zip(cycle, cycle[1:]))
    highlight = Relation(pairs, execution.universe)
    return to_dot(
        execution,
        extra_relations={"cycle": highlight},
        title=title or f"{execution.name} (forbidden)",
    )
