#!/usr/bin/env python3
"""Walk through the one-dimensional convex network demo.

Builds the bundled 8-source / 14-destination convex topology, colors its
message conflict graph, then replays an adversarial interference-link
insertion (S1 -> D5) through the dynamic update path. The punchline: the
perturbation decomposes into two conflict-edge insertions, both of which
are Case I-1 — the schedule survives without recoloring a single message.
"""

from __future__ import annotations

import json
from importlib import resources

from timcolor import (
    all_unicast_messages,
    build_conflict_graph,
    dof_report,
    emit_schedule,
    insert_update,
    is_weakly_chordal,
    load_topology,
    static_color,
    topology_event_to_conflict_deltas,
    verify_state,
)


def main() -> None:
    text = (
        resources.files("timcolor.fixtures")
        .joinpath("fig1_topology.json")
        .read_text("utf-8")
    )
    topo = load_topology(json.loads(text))
    msgs = all_unicast_messages(topo)
    cg = build_conflict_graph(topo, msgs)
    print(f"convex network: {topo.M} sources, {topo.N} destinations, "
          f"{len(topo.links)} links, {len(msgs)} messages")

    assert is_weakly_chordal(cg.graph)
    state = static_color(cg.graph)
    assert verify_state(state)
    print(f"optimal TDMA schedule uses {state.color_count} slots "
          f"(sum DoF {dof_report(state, msgs).sum_dof})")
    for k, slot in enumerate(emit_schedule(state, msgs), start=1):
        print(f"  slot {k}: " + ", ".join(m.label() for m in slot))

    # Adversarial perturbation: interference link from S1 to D5.
    print("\nadversary inserts interference link S1 -> D5")
    deltas = topology_event_to_conflict_deltas(topo, msgs, "insert", 4, 0)
    for d in deltas:
        state, report = insert_update(state, d.u, d.v)
        print(f"  conflict edge {msgs[d.u].label()} ~ {msgs[d.v].label()}: "
              f"case {report.case_label}, recolored {sorted(report.recolored)}, "
              f"slots {report.colors_before} -> {report.colors_after}")
    assert verify_state(state)
    assert is_weakly_chordal(state.graph)
    print(f"\nschedule after perturbation still uses {state.color_count} slots; "
          "no message changed its slot")


if __name__ == "__main__":
    main()
