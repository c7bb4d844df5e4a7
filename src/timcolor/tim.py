"""The wireless layer: topologies, messages, conflict graphs, schedules.

A topology is a bipartite source/destination connectivity matrix. Messages
travel connected links; two messages conflict when they share a source,
share a destination, or one message's source is connected to the other's
destination. Coloring the conflict graph yields a TDMA schedule, and the
degrees-of-freedom report follows the time-sharing convention (each color
class is one slot, so each message is active 1/colors of the time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .graph import Graph, make_graph, require_int
from .static_coloring import ColoringState, verify_state


class TopologyError(ValueError):
    """Malformed topology or message input."""


class Message(NamedTuple):
    source: int
    destination: int

    def label(self) -> str:
        return f"S{self.source + 1}->D{self.destination + 1}"


@dataclass(frozen=True)
class TopologyGraph:
    """Binary N x M connectivity: link (j,i) means destination j hears source i."""

    M: int
    N: int
    links: frozenset[tuple[int, int]]  # (j, i) pairs

    def __post_init__(self):
        if self.M < 0 or self.N < 0:
            raise TopologyError(f"negative size M={self.M}, N={self.N}")
        for j, i in self.links:
            self._check_link(j, i)

    def _check_link(self, j: int, i: int) -> None:
        """Raise ``TopologyError`` unless link (j,i) fits this N x M matrix."""
        if not (0 <= j < self.N and 0 <= i < self.M):
            raise TopologyError(f"link ({j},{i}) out of range for N={self.N}, M={self.M}")

    def _check_event(self, kind: str, j: int, i: int) -> None:
        """Raise ``TopologyError`` unless link (j,i) can be inserted (it is
        absent and in range) or deleted (it is present), as `kind` says."""
        if kind == "insert":
            if (j, i) in self.links:
                raise TopologyError(f"link ({j},{i}) already present")
            self._check_link(j, i)
        elif (j, i) not in self.links:
            raise TopologyError(f"link ({j},{i}) absent")

    def connected(self, j: int, i: int) -> bool:
        return (j, i) in self.links

    def insert_link(self, j: int, i: int) -> "TopologyGraph":
        self._check_event("insert", j, i)
        return TopologyGraph(self.M, self.N, self.links | {(j, i)})

    def delete_link(self, j: int, i: int) -> "TopologyGraph":
        self._check_event("delete", j, i)
        return TopologyGraph(self.M, self.N, self.links - {(j, i)})

    def bipartite_graph(self) -> Graph:
        """Sources at ids 0..M-1, destinations at ids M..M+N-1."""
        return make_graph(self.M + self.N, [(i, self.M + j) for j, i in sorted(self.links)])

    def parts(self) -> tuple[set[int], set[int]]:
        return set(range(self.M)), set(range(self.M, self.M + self.N))

    def to_dict(self) -> dict:
        return {"M": self.M, "N": self.N, "links": [list(l) for l in sorted(self.links)]}


def load_topology(source: str | dict) -> TopologyGraph:
    """Parse {"M": int, "N": int, "links": [[j,i],...]} (text or dict); a
    missing key or a value that is not a JSON integer raises ``TopologyError``."""
    d = json.loads(source) if isinstance(source, str) else source
    try:
        m, n = require_int(d["M"], "M"), require_int(d["N"], "N")
        raw = [(require_int(j, "link index"), require_int(i, "link index")) for j, i in d["links"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology: {exc}") from exc
    if len(set(raw)) != len(raw):
        raise TopologyError("duplicate links")
    return TopologyGraph(m, n, frozenset(raw))


def all_unicast_messages(t: TopologyGraph) -> list[Message]:
    """One message per connected link, in row-major (destination, source) order."""
    return [Message(i, j) for j, i in sorted(t.links)]


def messages_conflict(t: TopologyGraph, a: Message, b: Message) -> bool:
    return (
        a.source == b.source
        or a.destination == b.destination
        or t.connected(b.destination, a.source)
        or t.connected(a.destination, b.source)
    )


@dataclass(frozen=True)
class ConflictGraph:
    graph: Graph
    labels: dict[int, Message]


def build_conflict_graph(t: TopologyGraph, msgs: Sequence[Message]) -> ConflictGraph:
    """Vertices are messages; edges follow the three conflict rules."""
    seen = set()
    for m in msgs:
        if not t.connected(m.destination, m.source):
            raise TopologyError(f"message {m.label()} travels a disconnected link")
        if m in seen:
            raise TopologyError(f"duplicate message {m.label()}")
        seen.add(m)
    edges = [
        (a, b)
        for a in range(len(msgs))
        for b in range(a + 1, len(msgs))
        if messages_conflict(t, msgs[a], msgs[b])
    ]
    return ConflictGraph(make_graph(len(msgs), edges), dict(enumerate(msgs)))


@dataclass(frozen=True)
class ConflictDelta:
    kind: str  # "insert" | "delete"
    u: int
    v: int


def topology_event_to_conflict_deltas(
    t: TopologyGraph, msgs: Sequence[Message], kind: str, j: int, i: int
) -> list[ConflictDelta]:
    """Conflict-graph edge events implied by a topology link event.

    Only interference-side perturbations are supported: if the link carries
    one of the given messages, the message set itself would change, which
    the edge-update algorithms do not model.

    Link (j,i) enters the conflict rules only as "a message x from source i
    and a message y to destination j", so only those pairs can change. No
    message rides the link, so x leaves i for another destination and y
    reaches j from another source: x and y share neither end, and the one
    rule left besides link (j,i) is link (x.destination, y.source), which
    is not (j,i). So the pair's conflict flips, in the event's direction,
    exactly when that link is absent. The pairs come back in ascending
    (a, b) order, the order updates are applied in. The link checks are
    the ones ``TopologyGraph.insert_link`` and ``delete_link`` make, and
    no topology is built.
    """
    if kind not in ("insert", "delete"):
        raise TopologyError(f"unknown event kind {kind!r}")
    sources, destinations = [], []
    for a, m in enumerate(msgs):
        if m.source == i:
            if m.destination == j:
                raise TopologyError(
                    f"link ({j},{i}) carries message S{i + 1}->D{j + 1}; "
                    "vertex-changing events are unsupported for dynamic replay"
                )
            sources.append(a)
        elif m.destination == j:
            destinations.append(a)
    t._check_event(kind, j, i)
    pairs = sorted(
        (min(x, y), max(x, y))
        for x in sources
        for y in destinations
        if (msgs[x].destination, msgs[y].source) not in t.links
    )
    return [ConflictDelta(kind, a, b) for a, b in pairs]


@dataclass(frozen=True)
class DofReport:
    symmetric_dof: Optional[Fraction]
    sum_dof: Optional[Fraction]
    color_count: int
    message_count: int

    def to_dict(self) -> dict:
        return {
            "symmetric_dof": str(self.symmetric_dof) if self.symmetric_dof is not None else None,
            "sum_dof": str(self.sum_dof) if self.sum_dof is not None else None,
            "color_count": self.color_count,
            "message_count": self.message_count,
        }


def dof_report(state: ColoringState, msgs: Sequence[Message]) -> DofReport:
    """TDMA time-sharing accounting from a verified coloring."""
    if state.color_count == 0:
        return DofReport(None, None, 0, len(msgs))
    sym = Fraction(1, state.color_count)
    return DofReport(sym, sym * len(msgs), state.color_count, len(msgs))


def emit_schedule(state: ColoringState, msgs: Sequence[Message]) -> list[list[Message]]:
    """Slot k holds exactly the messages colored k; slots partition msgs."""
    if not verify_state(state):
        raise ValueError("refusing to schedule from an invalid coloring state")
    slots: list[list[Message]] = [[] for _ in range(state.color_count)]
    for v in state.graph.vertices:
        slots[state.coloring[v] - 1].append(msgs[v])
    return [sorted(s) for s in slots]


def schedule_to_dict(slots: Sequence[Sequence[Message]]) -> dict:
    return {"slots": [[m.label() for m in slot] for slot in slots]}
