"""Topology layer: conflict rules, the line-graph-square identity, schedules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timcolor.generators import random_chordal_bipartite, random_convex
from timcolor.static_coloring import ColoringState, static_color
from timcolor.tim import (
    ConflictDelta,
    Message,
    TopologyError,
    TopologyGraph,
    all_unicast_messages,
    build_conflict_graph,
    dof_report,
    emit_schedule,
    load_topology,
    messages_conflict,
    schedule_to_dict,
    topology_event_to_conflict_deltas,
)

from conftest import load_fixture


def full_topology(m, n):
    return TopologyGraph(m, n, frozenset((j, i) for j in range(n) for i in range(m)))


def two_topology_conflict_deltas(t, msgs, kind, j, i):
    """The deltas as computed before: the second topology from
    ``insert_link``/``delete_link``, and ``messages_conflict`` on both. The
    reference for the deltas and for the errors and their precedence."""
    if kind not in ("insert", "delete"):
        raise TopologyError(f"unknown event kind {kind!r}")
    if any(m.source == i and m.destination == j for m in msgs):
        raise TopologyError(
            f"link ({j},{i}) carries message S{i + 1}->D{j + 1}; "
            "vertex-changing events are unsupported for dynamic replay"
        )
    t2 = t.insert_link(j, i) if kind == "insert" else t.delete_link(j, i)
    sources = [a for a, m in enumerate(msgs) if m.source == i]
    destinations = [b for b, m in enumerate(msgs) if m.destination == j]
    deltas = []
    for a, b in sorted({(min(x, y), max(x, y)) for x in sources for y in destinations}):
        before = messages_conflict(t, msgs[a], msgs[b])
        after = messages_conflict(t2, msgs[a], msgs[b])
        if before != after:
            deltas.append(ConflictDelta("insert" if after else "delete", a, b))
    return deltas


def delta_outcome(deltas, *args):
    """The (kind, u, v) triples a delta function returns, or its error text."""
    try:
        return [(d.kind, d.u, d.v) for d in deltas(*args)]
    except TopologyError as exc:
        return str(exc)


class TestTopology:
    def test_load_roundtrip(self):
        t = load_topology('{"M": 2, "N": 2, "links": [[0, 0], [1, 1]]}')
        assert (t.M, t.N) == (2, 2)
        assert t.connected(0, 0) and not t.connected(0, 1)
        assert load_topology(t.to_dict()) == t

    def test_load_rejects_malformed(self):
        with pytest.raises(TopologyError):
            load_topology('{"M": 2, "links": []}')
        with pytest.raises(TopologyError):
            load_topology('{"M": 1, "N": 1, "links": [[0, 0], [0, 0]]}')
        with pytest.raises(TopologyError):
            load_topology('{"M": 1, "N": 1, "links": [[3, 0]]}')

    @pytest.mark.parametrize("topology, bad", [
        ({"M": 1.9, "N": 1, "links": [[0, 0]]}, "M must be an integer, not 1.9"),
        ({"M": 1, "N": True, "links": [[0, 0]]}, "N must be an integer, not true"),
        ({"M": 2, "N": 2, "links": [[1.7, 1]]}, "link index must be an integer, not 1.7"),
        ({"M": 2, "N": 2, "links": [[1, "0"]]}, 'link index must be an integer, not "0"'),
    ])
    def test_load_rejects_non_integers(self, topology, bad):
        with pytest.raises(TopologyError) as exc:
            load_topology(topology)
        assert str(exc.value) == f"malformed topology: {bad}"

    @pytest.mark.parametrize("m, n", [(-2, 3), (3, -1), (-1, -1)])
    def test_rejects_negative_size(self, m, n):
        with pytest.raises(TopologyError, match=f"negative size M={m}, N={n}"):
            TopologyGraph(m, n, frozenset())
        with pytest.raises(TopologyError, match=f"negative size M={m}, N={n}"):
            load_topology({"M": m, "N": n, "links": []})
        assert TopologyGraph(0, 0, frozenset()).bipartite_graph().n == 0

    def test_insert_delete_links(self):
        t = load_topology('{"M": 2, "N": 2, "links": [[0, 0]]}')
        t2 = t.insert_link(1, 1)
        assert t2.connected(1, 1)
        assert t2.delete_link(1, 1) == t
        with pytest.raises(TopologyError):
            t.insert_link(0, 0)
        with pytest.raises(TopologyError):
            t.delete_link(1, 0)

    def test_all_unicast_row_major(self):
        t = full_topology(2, 2)
        assert all_unicast_messages(t) == [
            Message(0, 0), Message(1, 0), Message(0, 1), Message(1, 1)
        ]

    def test_message_labels(self):
        assert Message(0, 4).label() == "S1->D5"


class TestConflictRules:
    def test_same_source_and_destination(self):
        t = full_topology(2, 2)
        assert messages_conflict(t, Message(0, 0), Message(0, 1))  # shared source
        assert messages_conflict(t, Message(0, 0), Message(1, 0))  # shared dest

    def test_cross_interference(self):
        # two disjoint links plus one interference link S1->D2
        t = TopologyGraph(2, 2, frozenset({(0, 0), (1, 1), (1, 0)}))
        a, b = Message(0, 0), Message(1, 1)
        assert messages_conflict(t, a, b)
        # remove the interference link: disjoint links no longer conflict
        t2 = t.delete_link(1, 0)
        assert not messages_conflict(t2, a, b)
        assert not messages_conflict(t2, b, a)  # symmetric

    def test_single_link_network(self):
        t = TopologyGraph(1, 1, frozenset({(0, 0)}))
        cg = build_conflict_graph(t, all_unicast_messages(t))
        assert cg.graph.n == 1 and not list(cg.graph.edges())

    def test_2x2_full_square_is_k4(self):
        t = full_topology(2, 2)
        cg = build_conflict_graph(t, all_unicast_messages(t))
        assert cg.graph.n == 4 and len(list(cg.graph.edges())) == 6

    def test_rejects_phantom_and_duplicate_messages(self):
        t = TopologyGraph(2, 2, frozenset({(0, 0)}))
        with pytest.raises(TopologyError):
            build_conflict_graph(t, [Message(1, 1)])
        with pytest.raises(TopologyError):
            build_conflict_graph(t, [Message(0, 0), Message(0, 0)])

    def test_square_of_line_graph_identity(self):
        rng = random.Random(5)
        for _ in range(40):
            t = random_chordal_bipartite(
                rng.randint(2, 5), rng.randint(2, 6), 0.5, rng
            )
            msgs = all_unicast_messages(t)
            cg = build_conflict_graph(t, msgs)
            sq = t.bipartite_graph().line_graph().square()
            # line-graph vertices follow sorted bipartite edges (i, M+j);
            # messages are (j,i) row-major — map through the shared labels
            order = sorted(range(len(msgs)), key=lambda k: (msgs[k].source, msgs[k].destination))
            pos = {k: r for r, k in enumerate(order)}
            expect = {frozenset((pos[a], pos[b])) for a, b in cg.graph.edges()}
            got = {frozenset(e) for e in sq.edges()}
            assert expect == got


class TestDeltas:
    def test_fig1_single_delta(self):
        t = load_topology(load_fixture("fig1_topology.json"))
        demo = [Message(0, 0), Message(2, 4), Message(4, 6), Message(5, 9), Message(7, 13)]
        deltas = topology_event_to_conflict_deltas(t, demo, "insert", 4, 0)
        assert [(d.kind, d.u, d.v) for d in deltas] == [("insert", 0, 1)]
        assert demo[0].label() == "S1->D1" and demo[1].label() == "S3->D5"

    def test_delete_reverses_insert(self):
        t = load_topology(load_fixture("fig1_topology.json"))
        demo = [Message(0, 0), Message(2, 4)]
        t2 = t.insert_link(4, 0)
        back = topology_event_to_conflict_deltas(t2, demo, "delete", 4, 0)
        assert [(d.kind, d.u, d.v) for d in back] == [("delete", 0, 1)]

    def test_message_carrying_link_rejected(self):
        t = full_topology(2, 2)
        with pytest.raises(TopologyError):
            topology_event_to_conflict_deltas(t, all_unicast_messages(t), "delete", 0, 0)

    def test_unknown_kind_rejected(self):
        t = full_topology(2, 2)
        with pytest.raises(TopologyError):
            topology_event_to_conflict_deltas(t, [], "toggle", 0, 0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_scan(self, data):
        """Same deltas, in the same order, as testing every message pair, and
        the same deltas or error as the code that built the second topology.

        Messages ride a random subset of the links, in a random order, so
        the flipped link may be absent (insert) or present without a
        message (delete). Another event, drawn first, takes any kind and any
        cell or one just outside the matrix, so it may be refused: for an
        unknown kind, a link that carries a message, an insert of a present
        link, a delete of an absent one, or an insert out of range.
        """
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        cells = [(j, i) for j in range(n) for i in range(m)]
        links = data.draw(st.sets(st.sampled_from(cells)))
        t = TopologyGraph(m, n, frozenset(links))
        carried = data.draw(st.sets(st.sampled_from(sorted(links)))) if links else set()
        msgs = data.draw(st.permutations([Message(i, j) for j, i in sorted(carried)]))
        kind = data.draw(st.sampled_from(["insert", "delete", "toggle"]))
        j, i = data.draw(st.integers(-1, n)), data.draw(st.integers(-1, m))
        assert delta_outcome(topology_event_to_conflict_deltas, t, msgs, kind, j, i) == (
            delta_outcome(two_topology_conflict_deltas, t, msgs, kind, j, i)
        )
        free = [c for c in cells if c not in carried]
        if not free:
            return
        j, i = data.draw(st.sampled_from(free))
        kind = "delete" if (j, i) in links else "insert"
        t2 = t.insert_link(j, i) if kind == "insert" else t.delete_link(j, i)
        expect = []
        for a in range(len(msgs)):
            for b in range(a + 1, len(msgs)):
                before = messages_conflict(t, msgs[a], msgs[b])
                after = messages_conflict(t2, msgs[a], msgs[b])
                if before != after:
                    expect.append(("insert" if after else "delete", a, b))
        got = topology_event_to_conflict_deltas(t, msgs, kind, j, i)
        assert [(d.kind, d.u, d.v) for d in got] == expect
        assert delta_outcome(two_topology_conflict_deltas, t, msgs, kind, j, i) == expect

    @pytest.mark.parametrize(
        "kind, j, i, message",
        [
            ("toggle", 0, 0, "unknown event kind 'toggle'"),  # before the carried link
            ("insert", 0, 0, "link (0,0) carries message S1->D1; "),  # before "already present"
            ("delete", 0, 0, "link (0,0) carries message S1->D1; "),
            ("insert", 1, 0, "link (1,0) already present"),
            ("delete", 0, 1, "link (0,1) absent"),
            ("insert", 2, 0, "link (2,0) out of range for N=2, M=2"),
            ("delete", 2, 0, "link (2,0) absent"),
        ],
    )
    def test_refusals_match_two_topology_code(self, kind, j, i, message):
        t = TopologyGraph(2, 2, frozenset({(0, 0), (1, 0), (1, 1)}))
        msgs = [Message(0, 0), Message(1, 1)]
        got = delta_outcome(topology_event_to_conflict_deltas, t, msgs, kind, j, i)
        assert got == delta_outcome(two_topology_conflict_deltas, t, msgs, kind, j, i)
        assert got.startswith(message)

    def test_builds_no_topology(self, monkeypatch):
        """Valid inserts and deletes on fig1, every other link carrying a message."""
        t = load_topology(load_fixture("fig1_topology.json"))
        msgs = all_unicast_messages(t)[::2]
        carried = {(m.destination, m.source) for m in msgs}
        cells = [(j, i) for j in range(t.N) for i in range(t.M) if (j, i) not in carried]
        events = [("delete" if c in t.links else "insert", *c) for c in cells]
        expected = [two_topology_conflict_deltas(t, msgs, *ev) for ev in events]

        def refuse(self):
            raise AssertionError("a TopologyGraph was built")

        monkeypatch.setattr(TopologyGraph, "__post_init__", refuse)
        got = [topology_event_to_conflict_deltas(t, msgs, *ev) for ev in events]
        assert got == expected
        assert {d.kind for ds in got for d in ds} == {"insert", "delete"}


class TestDofAndSchedule:
    def test_single_message(self):
        t = TopologyGraph(1, 1, frozenset({(0, 0)}))
        msgs = all_unicast_messages(t)
        state = static_color(build_conflict_graph(t, msgs).graph)
        rep = dof_report(state, msgs)
        assert rep.symmetric_dof == Fraction(1) and rep.sum_dof == Fraction(1)

    def test_k4_conflicts(self):
        t = full_topology(2, 2)
        msgs = all_unicast_messages(t)
        state = static_color(build_conflict_graph(t, msgs).graph)
        rep = dof_report(state, msgs)
        assert rep.symmetric_dof == Fraction(1, 4)
        assert rep.sum_dof == Fraction(1)
        slots = emit_schedule(state, msgs)
        assert len(slots) == 4 and all(len(s) == 1 for s in slots)

    def test_empty_message_set(self):
        state = static_color(build_conflict_graph(full_topology(1, 1), []).graph)
        rep = dof_report(state, [])
        assert rep.symmetric_dof is None and rep.color_count == 0
        assert emit_schedule(state, []) == []

    def test_schedule_partitions_without_conflicts(self):
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            t = random_convex(rng.randint(3, 6), rng.randint(3, 9), rng)
            msgs = all_unicast_messages(t)
            if not msgs:
                continue
            state = static_color(build_conflict_graph(t, msgs).graph)
            slots = emit_schedule(state, msgs)
            flat = [m for s in slots for m in s]
            assert sorted(flat) == sorted(msgs) and len(flat) == len(set(flat))
            for slot in slots:
                for x in range(len(slot)):
                    for y in range(x + 1, len(slot)):
                        assert not messages_conflict(t, slot[x], slot[y])
            checked += 1

    def test_schedule_refuses_colors_off_the_palette(self):
        """Colors 1..k-1 and k+2 for color_count k count k distinct colors,
        yet slot k+2 does not exist: the schedule is refused, not an IndexError."""
        t = load_topology(load_fixture("fig1_topology.json"))
        msgs = all_unicast_messages(t)
        state = static_color(build_conflict_graph(t, msgs).graph)
        k = state.color_count
        coloring = {v: k + 2 if c == k else c for v, c in state.coloring.items()}
        bad = ColoringState(state.graph, coloring, k, state.clique, state.order)
        with pytest.raises(ValueError, match="refusing to schedule"):
            emit_schedule(bad, msgs)

    def test_schedule_to_dict(self):
        t = TopologyGraph(1, 2, frozenset({(0, 0), (1, 0)}))
        msgs = all_unicast_messages(t)
        state = static_color(build_conflict_graph(t, msgs).graph)
        d = schedule_to_dict(emit_schedule(state, msgs))
        assert sorted(x for s in d["slots"] for x in s) == ["S1->D1", "S1->D2"]
        assert all(len(s) == 1 for s in d["slots"])

    def test_fig1_schedule(self):
        t = load_topology(load_fixture("fig1_topology.json"))
        msgs = all_unicast_messages(t)
        state = static_color(build_conflict_graph(t, msgs).graph)
        assert state.color_count == 4
        rep = dof_report(state, msgs)
        assert rep.symmetric_dof == Fraction(1, 4)
        assert rep.sum_dof == Fraction(len(msgs), 4)
