"""Single-perturbation updates: case routing, pair deltas, optimality."""

import itertools
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timcolor import dynamic_coloring, harness, static_coloring
from timcolor.dynamic_coloring import (
    UpdateReport,
    _growth_witness,
    _match_palette,
    delete_update,
    insert_update,
    replay_repair,
)
from timcolor.generators import random_convex, random_weakly_chordal
from timcolor.graph import Graph, GraphError, make_graph
from timcolor.harness import TrialConfig, gen_event, run_simulation
from timcolor.oracles import oracle_chromatic
from timcolor.recognition import (
    PairRanking,
    is_two_pair,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from timcolor.static_coloring import (
    ColoringState,
    ContractionRecord,
    InvalidContractionError,
    NotWeaklyChordalError,
    OrderStructure,
    fresh_id,
    lift,
    lift_coloring,
    order_structure,
    static_color,
    verify_state,
)
from timcolor.tim import all_unicast_messages, build_conflict_graph

from conftest import (
    fixture_graph,
    order_of,
    perturbed,
    random_order_state,
    reference_candidate_pairs,
    reference_matching_records,
    replay_chain,
    weakly_chordal_graphs,
)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def pair_sets(records):
    return {frozenset((r.x, r.y)) for r in records}


def color_changes(old, new):
    """The vertices whose color differs from one coloring to the other."""
    return frozenset(v for v, c in new.items() if old.get(v) != c)


def reference_replay_repair(graph, order, strict=True, exclude=(), target=None):
    """replay_repair on ``Graph`` copies: one contracted graph per fired
    record, and every pair listed and sorted before each fresh contraction.
    The reference for the ranking-driven replay."""
    cur, kept, added = graph, [], []
    pending = [rec for rec in order if rec not in exclude]
    dropped = [rec for rec in order if rec in exclude]
    next_z = 1 + max([max(graph.vertices, default=-1)] + [rec.z for rec in order])

    def sweep(cur, pending):
        progress = True
        while progress:
            progress, deferred = False, []
            for rec in pending:
                live = rec.x in cur and rec.y in cur and not cur.has_edge(rec.x, rec.y)
                if live and (not strict or is_two_pair(cur, rec.x, rec.y)):
                    cur = cur.contract_pair(rec.x, rec.y, rec.z)
                    kept.append(rec)
                    progress = True
                else:
                    deferred.append(rec)
            pending = deferred
        return cur, pending

    cur, pending = sweep(cur, pending)
    while cur.n != target:
        ranked = reference_candidate_pairs(cur)
        pair = next(((x, y) for x, y, two in ranked if two or not strict), None)
        if pair is None:
            break
        cur = cur.contract_pair(*pair, next_z)
        rec = ContractionRecord(*pair, next_z)
        next_z += 1
        kept.append(rec)
        added.append(rec)
        cur, pending = sweep(cur, pending)
    if 2 * cur.edge_count() != cur.n * (cur.n - 1) or (target is not None and cur.n != target):
        raise NotWeaklyChordalError(
            "no two-pair on a non-complete graph; input is not weakly chordal"
        )
    return tuple(kept), dropped + pending, added


def reference_insert_update(state, u, v):
    """insert_update with the target-driven lenient ladder: each rung replays
    to the known color count, an incomplete or overshooting replay raises
    and is skipped, every candidate is lifted, and the strict replay follows
    an exhausted ladder. The reference for the rungs that ``insert_update``
    decides on the order's class masks."""
    if not reference_matching_records(state.order, u, v):
        return insert_update(state, u, v)  # I-1 and I-2-1 replay nothing
    h = state.graph.insert_edge(u, v)
    omega_b = state.color_count
    witness = _growth_witness(state, u, v)
    grows = witness is not None
    expected = omega_b + grows

    def attempt(strict):
        if strict:
            res = reference_replay_repair(h, state.order, True)
            coloring, clique, k = lift(h, res[0])
            if k != expected:
                raise NotWeaklyChordalError(f"repair clique size {k}, expected {expected}")
            return res, coloring, clique, k
        for level in ([()], [(rec,) for rec in state.order]):
            best = None
            for drops in level:
                try:
                    res = reference_replay_repair(h, state.order, False, drops, expected)
                except NotWeaklyChordalError:
                    continue
                coloring, k = lift_coloring(h, res[0])
                if k != expected:
                    continue
                pc = len(res[1]) + len(res[2])
                if best is None or pc < best[0]:
                    best = (pc, res, coloring, k)
            if best is not None:
                _, res, coloring, k = best
                return res, coloring, witness if grows else state.clique, k
        raise NotWeaklyChordalError("lenient repair exhausted")

    fallback = False
    try:
        try:
            (order, removed, added), coloring, clique, k = attempt(strict=False)
        except NotWeaklyChordalError:
            (order, removed, added), coloring, clique, k = attempt(strict=True)
        if grows:
            w = min(u, v)
            coloring, recolored = {**state.coloring, w: omega_b + 1}, frozenset((w,))
        else:
            coloring = _match_palette(coloring, state.coloring, k)
            recolored = color_changes(state.coloring, coloring)
            clique = state.clique
    except NotWeaklyChordalError:
        fallback = True
        new = dynamic_coloring._fallback(h, state)
        order, coloring, clique, k = new.order, new.coloring, new.clique, new.color_count
        recolored = color_changes(state.coloring, coloring)
        removed, added = list(state.order), list(order)
    case = "I-3-2" if grows else "I-3-1"
    report = UpdateReport("insert", u, v, case, recolored, removed, added, omega_b, k, fallback)
    return ColoringState(h, coloring, k, clique, order), report


def reference_delete_update(state, u, v):
    """delete_update with the strict replay first: it decides the color count
    k, a lenient replay to target k replaces it when it reaches k, and a
    lenient D-2 keeps the held clique minus u. The reference for the
    lenient-first deletion."""
    if u not in state.clique or v not in state.clique:
        return delete_update(state, u, v)  # the D-1 shortcut replays nothing
    g2 = state.graph.delete_edge(u, v)
    omega_b = state.color_count
    fallback = False
    try:
        strict = reference_replay_repair(g2, state.order, True)
        coloring, clique, k = lift(g2, strict[0])
        if k not in (omega_b, omega_b - 1):
            raise NotWeaklyChordalError(f"deletion changed clique size {omega_b} -> {k}")
        try:
            res = reference_replay_repair(g2, state.order, False, (), k)
        except NotWeaklyChordalError:
            res = strict
        else:
            coloring, _ = lift_coloring(g2, res[0])
            if k < omega_b:
                clique = state.clique - {u}
        order, removed, added = res
        if k == omega_b:
            coloring, recolored = dict(state.coloring), frozenset()
        else:
            coloring = _match_palette(coloring, state.coloring, k)
            recolored = color_changes(state.coloring, coloring)
    except NotWeaklyChordalError:
        fallback = True
        new = dynamic_coloring._fallback(g2, state)
        order, coloring, clique, k = new.order, new.coloring, new.clique, new.color_count
        recolored = color_changes(state.coloring, coloring)
        removed, added = list(state.order), list(order)
    case = "D-1" if k == omega_b else "D-2"
    report = UpdateReport("delete", u, v, case, recolored, removed, added, omega_b, k, fallback)
    return ColoringState(g2, coloring, k, clique, order), report


def reference_find_clique(adj, cand, size):
    """A clique of `size` inside the candidate position set, as a bitmask, by
    plain branching: the reference clique search."""
    if size <= 0:
        return 0
    while cand.bit_count() >= size:
        low = cand & -cand
        p = low.bit_length() - 1
        rest = reference_find_clique(adj, cand & adj[p], size - 1)
        if rest is not None:
            return rest | low
        cand ^= low
    return None


def reference_growth_witness(state, u, v):
    """The growth test as a plain search of N(u) & N(v) for an
    (omega-1)-clique: the reference for `_growth_witness`."""
    g = state.graph
    mask = reference_find_clique(g.adj_masks(), g.adj_mask(u) & g.adj_mask(v), state.color_count - 1)
    if mask is None:
        return None
    return frozenset({u, v} | {w for w in g.vertices if mask >> g.pos(w) & 1})


def replay_outcome(replay, *args, **kwargs):
    """(records, removed, added) of a replay, or the type and text of its error."""
    try:
        return replay(*args, **kwargs)
    except (NotWeaklyChordalError, GraphError) as exc:
        return type(exc), str(exc)


def diffed_replay_repair(graph, order):
    """replay_repair's records, with the records of the replayed order it
    lacks and those it adds, as the reference lists them."""
    records = replay_repair(graph, order).order
    return records, [r for r in order if r not in records], [r for r in records if r not in order]


class TestReplayRepair:
    @given(weakly_chordal_graphs(), st.integers(0, 10_000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g, seed, data):
        """The strict replay of a static order on a perturbed graph gives the
        reference's records or error."""
        rng = random.Random(seed)
        state = random_order_state(g, rng) if data.draw(st.booleans()) else static_color(g)
        event = perturbed(g, rng)
        if event is None:
            return
        h, u, v = event
        expected = replay_outcome(reference_replay_repair, h, state.order)
        assert replay_outcome(diffed_replay_repair, h, state.order) == expected

    @given(weakly_chordal_graphs(), st.integers(0, 10_000), st.data())
    @settings(max_examples=100, deadline=None)
    def test_state_file_ids_match_reference(self, g, seed, data):
        """An order whose z ids are negative or 2**32 and more, in no
        particular order, as a state file may carry them: the strict replay
        gives the reference's records or error."""
        rng = random.Random(seed)
        state = random_order_state(g, rng) if data.draw(st.booleans()) else static_color(g)
        event = perturbed(g, rng)
        if event is None:
            return
        h, _, _ = event
        fresh = [-1 - i if i % 2 else 2**32 + 3 * i for i in range(len(state.order))]
        rng.shuffle(fresh)
        rename = {rec.z: z for rec, z in zip(state.order, fresh)}
        order = tuple(
            ContractionRecord(rename.get(rec.x, rec.x), rename.get(rec.y, rec.y), rename[rec.z])
            for rec in state.order
        )
        expected = replay_outcome(reference_replay_repair, h, order)
        assert replay_outcome(diffed_replay_repair, h, order) == expected

    @given(weakly_chordal_graphs())
    @settings(max_examples=100, deadline=None)
    def test_empty_order_replays_as_static(self, g):
        """With no order to replay, the strict replay adds static_color's
        records: both run one loop, with fresh ids from one above the
        largest id."""
        assert replay_repair(g, ()).order == static_color(g).order

    @pytest.mark.parametrize(
        "order, message",
        [([(0, 2, 0)], "contracted id 0 already live"), ([(0, 2, 3)], "contracted id 3 already live")],
    )
    def test_malformed_records_raise_as_reference(self, order, message):
        """A two-pair record whose z is live, a parent's id or another's."""
        order = order_of(order)
        expected = replay_outcome(reference_replay_repair, path(4), order)
        assert expected == (GraphError, message)
        assert replay_outcome(diffed_replay_repair, path(4), order) == expected


def assert_agrees(old, new, report, expected, expected_report):
    """The update's report and state against the reference's.

    The update lists removed records in the old order's sequence, and the
    reference's rung 1 lists the record it drops first, so the reference's
    are put in the old order's sequence. Then they are equal, except where
    an I-3 insert placed its pieces and the reference's lenient ladder
    completed greedily: both break the same records, but may merge the
    pieces into other pairs. There the case, colour counts, clique, removed
    records, kept records and pair count agree, and the state verifies.
    """
    got, want = report.to_dict(), expected_report.to_dict()
    want["pairs_removed"].sort(key=[r.as_list() for r in old.order].index)
    if got != want and report.case_label in ("I-3-1", "I-3-2"):
        for d in (got, want):
            d["added"] = len(d.pop("pairs_added"))
            del d["recolored"]
        kept = len(new.order) - len(report.pairs_added)
        assert new.order[:kept] == expected.order[:kept]
        assert (new.clique, new.color_count) == (expected.clique, expected.color_count)
        assert verify_state(new)
    else:
        assert new.to_dict() == expected.to_dict()
    assert got == want
    assert list(new.graph.edges()) == list(expected.graph.edges())


def walk_against_reference(state, rng, steps):
    """Run an event walk through the updates and the target-driven
    references; reports and post-event states must agree. Returns each
    event's (case, whether a replay ran)."""
    paths = []
    replay = dynamic_coloring.replay_repair
    calls = []

    def counted(*args):
        calls.append(args)
        return replay(*args)

    for seq in range(steps):
        ev = gen_event(state.graph, rng, 0.5, seq, 200)
        if ev is None:
            break
        update, reference = (
            (insert_update, reference_insert_update) if ev.kind == "insert"
            else (delete_update, reference_delete_update)
        )
        expected, expected_report = reference(state, ev.u, ev.v)
        calls.clear()
        dynamic_coloring.replay_repair = counted
        try:
            new, report = update(state, ev.u, ev.v)
        finally:
            dynamic_coloring.replay_repair = replay
        assert_agrees(state, new, report, expected, expected_report)
        state = new
        paths.append((report.case_label, bool(calls)))
    return paths


class TestStoppingRule:
    """The updates against the target-driven references."""

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_target_driven_reference(self, g, seed):
        rng = random.Random(seed)
        walk_against_reference(static_color(g), rng, 10)

    def test_walks_reach_every_repair_path(self):
        """The walks reach I-3-1 with and without the strict replay, I-3-2
        without it, the split D-2 and both deletion outcomes of the strict
        replay."""
        paths = set()
        for seed in range(60):
            state, rng = random_static_state(seed)
            paths.update(walk_against_reference(state, rng, 10))
        assert {
            ("I-3-1", False), ("I-3-1", True), ("I-3-2", False),
            ("D-1", True), ("D-2", False), ("D-2", True),
        } <= paths

    def test_i32_lifts_no_coloring(self, monkeypatch):
        """An I-3-2 insert keeps the old coloring, so it reads none off an
        order's classes of the graph (the growth test's lift colors an
        induced subgraph): its reports and states still agree with the
        reference, which lifts every ladder candidate."""
        lifts = []
        watched = [None]  # the vertex tuple of the graph being updated
        coloring = OrderStructure.coloring

        def counted(s):
            if s.vertices is watched[0]:
                lifts.append(None)
            return coloring(s)

        monkeypatch.setattr(OrderStructure, "coloring", counted)
        i32 = 0
        for seed in range(60):
            state, rng = random_static_state(seed)
            for seq in range(10):
                ev = gen_event(state.graph, rng, 0.5, seq, 200)
                if ev is None:
                    break
                update, reference = (
                    (insert_update, reference_insert_update) if ev.kind == "insert"
                    else (delete_update, reference_delete_update)
                )
                expected, expected_report = reference(state, ev.u, ev.v)
                lifts.clear()
                watched[0] = state.graph.vertices
                new, report = update(state, ev.u, ev.v)
                watched[0] = None
                assert_agrees(state, new, report, expected, expected_report)
                state = new
                if report.case_label == "I-3-2":
                    i32 += 1
                    assert not lifts, (seed, seq)
        assert i32 >= 5


class TestCliqueGrows:
    def test_p3_closing_triangle(self):
        assert _growth_witness(static_color(path(3)), 0, 2) is not None

    def test_c4_chord(self):
        assert _growth_witness(static_color(cycle(4)), 0, 2) is not None

    def test_fig6_diagonal_does_not_grow(self, fig6):
        assert _growth_witness(static_color(fig6), 1, 4) is None

    def test_growth_matches_reference_search(self):
        """The growth test against a plain clique search of N(u) & N(v), on
        non-edges whose endpoints a record merged (the I-3 inserts).

        The verdicts agree, every witness is an (omega+1)-clique of G+uv
        through u and v, and each of the three steps decides some draw: the
        held clique, the color-class count and the contraction of G[C].
        """
        decided = [0, 0, 0]
        for seed in range(80):
            rng = random.Random(seed)
            if seed % 2:
                topo = random_convex(rng.randint(3, 8), rng.randint(3, 8), rng)
                g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
            else:
                g = random_weakly_chordal(rng.randint(3, 30), rng.randint(0, 90), rng)
            state = static_color(g)
            k = state.color_count
            merged = [
                (u, v)
                for u, v in itertools.combinations(g.vertices, 2)
                if not g.has_edge(u, v) and reference_matching_records(state.order, u, v)
            ]
            for u, v in rng.sample(merged, min(8, len(merged))):
                common = g.adj_mask(u) & g.adj_mask(v)
                members = {w for w in g.vertices if common >> g.pos(w) & 1}
                if len(state.clique & members) == k - 1:
                    decided[0] += 1
                elif len({state.coloring[w] for w in members}) < k - 1:
                    decided[1] += 1
                else:
                    decided[2] += 1
                witness = _growth_witness(state, u, v)
                grows = reference_find_clique(g.adj_masks(), common, k - 1) is not None
                assert (witness is not None) == grows, (seed, u, v)
                if witness is not None:
                    h = g.insert_edge(u, v)
                    assert len(witness) == k + 1 and {u, v} <= witness
                    assert all(h.has_edge(a, b) for a, b in itertools.combinations(witness, 2))
        assert all(decided), decided

    def test_trial_same_as_reference_search(self, monkeypatch):
        """One seeded 10x10 trial, run with the growth test and with the plain
        clique search in its place: every report, coloring and order is the
        same and every state verifies; only the held clique may differ."""

        def run(witness):
            steps = []

            def recorded(update):
                def run_update(state, u, v):
                    new, report = update(state, u, v)
                    assert verify_state(new)
                    steps.append((report.to_dict(), new.coloring, new.order))
                    return new, report

                return run_update

            monkeypatch.setattr(dynamic_coloring, "_growth_witness", witness)
            monkeypatch.setattr(harness, "insert_update", recorded(insert_update))
            monkeypatch.setattr(harness, "delete_update", recorded(delete_update))
            run_simulation(TrialConfig(seed=1, M=10, N=10, event_count=100, assert_bound=False))
            return steps

        library = run(_growth_witness)
        reference = run(reference_growth_witness)
        assert library == reference
        cases = [report["case"] for report, _, _ in library]
        assert {"I-3-1", "I-3-2"} <= set(cases)


class TestInsert:
    def test_fig6_i31_exact_pairs(self, fig6):
        state, rep = insert_update(static_color(fig6), 1, 4)
        assert rep.case_label == "I-3-1"
        assert pair_sets(rep.pairs_removed) == {frozenset((1, 4)), frozenset((0, 3))}
        assert pair_sets(rep.pairs_added) == {frozenset((1, 3)), frozenset((0, 4))}
        assert rep.colors_before == rep.colors_after == 3
        assert not rep.fallback_used
        assert verify_state(state)

    def test_fig8_i32_new_color(self, fig8):
        state, rep = insert_update(static_color(fig8), 0, 3)
        assert rep.case_label == "I-3-2"
        assert (rep.colors_before, rep.colors_after) == (2, 3)
        assert len(rep.recolored) == 1
        assert verify_state(state)

    def test_p4_chord_is_i1(self):
        g = fixture_graph("fig2_case1.json")  # P4 on 0-1-2-3
        base = static_color(g)
        state, rep = insert_update(base, 0, 3)
        assert rep.case_label == "I-1"
        assert rep.recolored == frozenset()
        assert state.coloring == base.coloring
        assert rep.colors_after == 2

    def test_two_disjoint_edges_i21(self):
        # Any lifted coloring of 2K2 makes its same-colored non-edges order
        # pairs, so the I-2-1 route needs a coloring set by hand: order pairs
        # {0,3},{1,2} with colors 1,2,1,2 leave (0,2) same-colored and off the
        # order.
        g = make_graph(4, [(0, 1), (2, 3)])
        base = ColoringState(
            g, {0: 1, 1: 2, 2: 1, 3: 2}, 2, frozenset({0, 1}),
            order_of([[0, 3, 4], [1, 2, 5]]),
        )
        assert verify_state(base)
        state, rep = insert_update(base, 0, 2)
        assert rep.case_label == "I-2-1"
        assert rep.colors_after == 2
        # the unique optimal recolorings of the resulting P4 flip one edge
        assert rep.recolored in (frozenset({0, 1}), frozenset({2, 3}))
        assert verify_state(state)
        # neither endpoint has a free color, so the order's lift, matched
        # onto the old palette, replaces the hand-set coloring; the order stays
        assert state.coloring == {0: 1, 1: 2, 2: 2, 3: 1} != base.coloring
        assert state.order == base.order and rep.pairs_changed == 0

    def test_i21_single_endpoint_recolor(self):
        # P3 plus an isolated vertex; recoloring the isolated endpoint inside
        # the palette suffices
        g = make_graph(4, [(0, 1), (1, 2)])
        base = ColoringState(
            g, {0: 1, 1: 2, 2: 1, 3: 1}, 2, frozenset({0, 1}),
            order_of([[0, 2, 4], [1, 3, 5]]),
        )
        assert verify_state(base)
        state, rep = insert_update(base, 2, 3)
        assert rep.case_label == "I-2-1"
        assert rep.recolored == frozenset({3})
        assert rep.colors_after == 2
        assert verify_state(state)

    def test_existing_edge_rejected(self, fig6):
        with pytest.raises(GraphError):
            insert_update(static_color(fig6), 0, 1)

    def test_order_without_structure_raises(self, fig6):
        """An order whose record references a dead vertex has no structure:
        the insertion raises, naming that record, on an I-1 event too."""
        state = static_color(fig6)
        first = state.order[0]
        bad = ColoringState(
            fig6, state.coloring, state.color_count, state.clique, (first,) + state.order
        )
        assert order_structure(bad) is None
        u, v = next(
            (u, v) for u, v in itertools.combinations(fig6.vertices, 2) if not fig6.has_edge(u, v)
        )
        with pytest.raises(InvalidContractionError) as exc:
            insert_update(bad, u, v)
        assert str(exc.value) == f"order record ({first.x},{first.y},{first.z}) references dead vertex"


class TestDelete:
    def test_fig7_minus_diagonal_d1(self, fig6):
        fig7 = fig6.insert_edge(1, 4)
        state, rep = delete_update(static_color(fig7), 1, 4)
        assert rep.case_label == "D-1"
        assert rep.recolored == frozenset()
        assert rep.colors_before == rep.colors_after == 3
        assert verify_state(state)

    def test_fig9_d2_extra_pair(self, fig9):
        state, rep = delete_update(static_color(fig9), 0, 3)
        assert rep.case_label == "D-2"
        assert (rep.colors_before, rep.colors_after) == (3, 2)
        assert not rep.fallback_used
        # the one extra contraction merges v1 with the {v4,v7} class
        _, members = replay_chain(state.graph, state.order)
        assert frozenset({0, 3, 6}) in {members[r.z] for r in state.order}
        assert verify_state(state)

    def test_k3_edge_d2(self):
        state, rep = delete_update(static_color(clique(3)), 0, 1)
        assert rep.case_label == "D-2"
        assert (rep.colors_before, rep.colors_after) == (3, 2)
        assert verify_state(state)

    def test_missing_edge_rejected(self, fig6):
        with pytest.raises(GraphError):
            delete_update(static_color(fig6), 0, 3)

    def test_replay_decides_omega_without_clique_search(self, monkeypatch):
        """Deletions inside the held clique are decided by the replays.

        They never run the insertion's growth test, and the decided color
        count is chi.
        """
        topo = random_convex(30, 30, random.Random(1))
        state = static_color(build_conflict_graph(topo, all_unicast_messages(topo)).graph)
        searches = []
        growth_witness = dynamic_coloring._growth_witness

        def counted(*args):
            searches.append(args)
            return growth_witness(*args)

        monkeypatch.setattr(dynamic_coloring, "_growth_witness", counted)
        rng = random.Random(2)
        cases = []
        for _ in range(12):
            inside = [
                (u, v)
                for u, v in itertools.combinations(sorted(state.clique), 2)
                if stays_weakly_chordal_after_delete(state.graph, u, v)
            ]
            state, rep = delete_update(state, *rng.choice(inside))
            assert verify_state(state) and not rep.fallback_used
            assert state.color_count == static_color(state.graph).color_count
            cases.append(rep.case_label)
        assert searches == []
        assert {"D-1", "D-2"} <= set(cases)


def splits(state, u, v):
    """Whether deleting (u,v) leaves the final classes of u and v of the
    order non-adjacent, read off a ``Graph`` replay."""
    chain, members = replay_chain(state.graph.delete_edge(u, v), state.order)
    final = chain[-1]
    cu, cv = (next(f for f in final.vertices if w in members[f]) for w in (u, v))
    return not final.has_edge(cu, cv)


def walk_events(seeds=range(60), steps=10):
    """(state, event, update, reference) along seeded walks of small graphs;
    each walk continues from the update's result."""
    for seed in seeds:
        state, rng = random_static_state(seed)
        for seq in range(steps):
            ev = gen_event(state.graph, rng, 0.5, seq, 200)
            if ev is None:
                break
            update, reference = (
                (insert_update, reference_insert_update) if ev.kind == "insert"
                else (delete_update, reference_delete_update)
            )
            yield state, ev, update, reference
            state, _ = update(state, ev.u, ev.v)


class TestDeletionReplays:
    def test_at_most_one_strict_replay(self, monkeypatch):
        """A split D-2 runs no replay; every other deletion inside the held
        clique runs exactly one, strict. All three outcomes are reached."""
        calls = []
        replay = dynamic_coloring.replay_repair

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(dynamic_coloring, "replay_repair", counted)
        outcomes = set()
        for state, ev, update, _ in walk_events():
            if ev.kind != "delete" or not {ev.u, ev.v} <= state.clique:
                continue
            split = splits(state, ev.u, ev.v)
            calls.clear()
            new, rep = update(state, ev.u, ev.v)
            assert len(calls) == (not split)
            if split:
                assert rep.case_label == "D-2" and new.clique == state.clique - {ev.u}
                assert rep.pairs_removed == [] and new.order == state.order + tuple(rep.pairs_added)
                assert len(rep.pairs_added) == 1
            assert verify_state(new) and not rep.fallback_used
            outcomes.add(("split" if split else "strict", rep.case_label))
        assert outcomes == {("split", "D-2"), ("strict", "D-1"), ("strict", "D-2")}


def ladder_path(state, u, v):
    """The reference ladder's outcome for an I-3 insert: ``(rung, report)``
    for the first rung that reaches the colour count, else ``("strict",
    report)``. Rung 0 drops nothing, rung 1 one record."""
    modes = []
    reference = reference_replay_repair

    def counted(graph, order, strict=True, exclude=(), target=None):
        modes.append(strict)
        return reference(graph, order, strict, exclude, target)

    globals()["reference_replay_repair"] = counted
    try:
        _, report = reference_insert_update(state, u, v)
    finally:
        globals()["reference_replay_repair"] = reference
    if any(modes):
        return "strict", report
    rung = 0 if report.pairs_removed[0] == reference_matching_records(state.order, u, v)[0] else 1
    return rung, report


class TestInsertReplays:
    def test_at_most_one_strict_replay(self, monkeypatch):
        """An I-3 insert whose reference ladder reaches the colour count makes
        no ``replay_repair`` call and breaks the records that rung breaks;
        one whose ladder fails makes exactly one, the strict replay. Rung 0,
        rung 1 and the strict replay are all reached, and the placements
        recolour no more messages in all than the ladder's completions."""
        calls = []
        replay = dynamic_coloring.replay_repair

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(dynamic_coloring, "replay_repair", counted)
        outcomes = set()
        recolored = [0, 0]  # placements, ladder completions
        for state, ev, update, _ in walk_events():
            if ev.kind != "insert" or not reference_matching_records(state.order, ev.u, ev.v):
                continue
            rung, expected = ladder_path(state, ev.u, ev.v)
            calls.clear()
            new, rep = update(state, ev.u, ev.v)
            assert len(calls) == (rung == "strict")
            if rung != "strict":  # the reference's rung 1 lists its dropped record first
                removed = expected.pairs_removed
                assert rep.pairs_removed == sorted(removed, key=state.order.index)
                assert new.order[: len(new.order) - len(rep.pairs_added)] == tuple(
                    r for r in state.order if r not in removed
                )
                recolored[0] += len(rep.recolored)
                recolored[1] += len(expected.recolored)
            assert verify_state(new) and not rep.fallback_used
            outcomes.add((rep.case_label, rung))
        assert outcomes == {("I-3-1", 0), ("I-3-1", 1), ("I-3-1", "strict"), ("I-3-2", 0)}
        assert recolored[0] <= recolored[1]


def traced_updates(monkeypatch):
    """The updates of ``walk_events``, each from a state that keeps its
    order's structure, as (new state, report, strict, replays, lifted).
    ``strict`` is whether the strict replay ran; ``replays`` holds, for each
    ``_replay`` of an order on the graph's vertex tuple, whether it read
    adjacency, and ``lifted`` names each ``lift``, ``lift_coloring`` and
    ``order_classes`` on any graph, the growth test's G[C] included, from
    every module that holds them. Both lists record until the next update,
    so a test can clear them and see what ``verify_state`` replays."""
    replays, lifted, strict = [], [], []
    watched = [None]  # the vertex tuple of the graph being updated
    replay, replay_repair_one = static_coloring._replay, dynamic_coloring.replay_repair

    def counted(ids, records, adj):
        if ids is watched[0]:
            replays.append(adj is not None)
        return replay(ids, records, adj)

    def counted_repair(*args):
        strict.append(args)
        return replay_repair_one(*args)

    def recorded(name, run):
        def lifting(g, records):
            lifted.append(name)
            return run(g, records)
        return lifting

    monkeypatch.setattr(static_coloring, "_replay", counted)
    monkeypatch.setattr(dynamic_coloring, "replay_repair", counted_repair)
    for name in ("lift", "lift_coloring", "order_classes"):
        run = getattr(static_coloring, name)
        for module in (static_coloring, dynamic_coloring):
            if getattr(module, name, None) is run:
                monkeypatch.setattr(module, name, recorded(name, run))
    for state, ev, update, _ in walk_events():
        order_structure(state)
        watched[0] = state.graph.vertices
        for calls in (replays, lifted, strict):
            calls.clear()
        new, rep = update(state, ev.u, ev.v)
        yield new, rep, bool(strict), replays, lifted


class TestStructureReads:
    def test_placed_and_split_updates_replay_once(self, monkeypatch):
        """With the old order's structure kept on its state, a placed I-3-1
        insert and a split D-2 deletion each replay an order on the graph's
        vertex tuple exactly once, edge-free: the new order's
        ``order_structure``, which colors it. The new state keeps it, so
        ``verify_state`` replays nothing more."""
        reached = set()
        for new, rep, strict, replays, _ in traced_updates(monkeypatch):
            if rep.case_label in ("I-3-1", "D-2") and not strict:
                assert replays == [False], (rep.case_label, replays)
                replays.clear()
                assert verify_state(new) and replays == []
                reached.add(rep.case_label)
        assert reached == {"I-3-1", "D-2"}

    def test_strict_and_growing_updates_keep_their_structure(self, monkeypatch):
        """A strict I-3-1 insert, an I-3-2 insert and a strict D-2 deletion
        also return a state that keeps its new order's structure, so
        ``verify_state`` replays nothing. Each replays the new order once,
        edge-free, and none calls ``lift``, ``lift_coloring`` or
        ``order_classes`` on any graph: the strict replay and the growth
        test on G[C] take their cliques off the contraction loop."""
        expected = {  # (case, strict): (replays, lifted)
            ("I-3-1", True): ([False], []),
            ("I-3-2", False): ([False], []),
            ("D-2", True): ([False], []),
        }
        reached = set()
        for new, rep, strict, replays, lifted in traced_updates(monkeypatch):
            path = (rep.case_label, strict)
            if path in expected:
                assert (replays, lifted) == expected[path], path
                replays.clear()
                assert verify_state(new) and replays == []
                reached.add(path)
        assert reached == set(expected)


    def test_no_update_lifts(self, monkeypatch):
        """No update calls ``lift``, ``lift_coloring`` or ``order_classes``
        on any graph: the growth test on G[C] and the strict replay take
        their cliques off the contraction loop, and every order's classes
        come from its structure. Growth tests that contract G[C] are reached."""
        grown = []
        loop = dynamic_coloring.contract_to_clique

        def counted(g, replay):
            if not replay:  # the growth test's; the strict replay passes the order
                grown.append(g)
            return loop(g, replay)

        monkeypatch.setattr(dynamic_coloring, "contract_to_clique", counted)
        cases = set()
        for _, rep, _, _, lifted in traced_updates(monkeypatch):
            assert lifted == [], rep.case_label
            cases.add(rep.case_label)
        assert {"I-3-1", "I-3-2", "D-1", "D-2"} <= cases
        assert grown


def downstream(order, rec):
    """rec and the records downstream of it, up to its final class."""
    ids, out = {rec.z}, [rec]
    for r in order[order.index(rec) + 1 :]:
        if r.x in ids or r.y in ids:
            ids.add(r.z)
            out.append(r)
    return out


def repair_path(state, new, rep, replayed):
    """How an update was decided: by a shortcut, the free colour or the lift
    of I-2-1, the rung of an I-3 insert, a split, or the strict replay."""
    if replayed:
        return "strict"
    u, v = rep.u, rep.v
    if rep.kind == "delete":
        return "split" if {u, v} <= state.clique else "shortcut"
    matches = reference_matching_records(state.order, u, v)
    if matches:
        return 0 if set(rep.pairs_removed) == set(downstream(state.order, matches[0])) else 1
    if state.coloring[u] != state.coloring[v]:
        return "shortcut"
    palette = set(range(1, state.color_count + 1))
    free = any(palette - {state.coloring[x] for x in new.graph.neighbors(w)} for w in (u, v))
    return "free" if free else "lift"


class TestReportIsStateDifference:
    def test_every_report_is_the_difference_of_its_states(self, monkeypatch):
        """Each update's removed and added records are the records of the old
        and the new order that the other lacks, in their order's sequence;
        its recolored vertices are those whose colour changed, and every
        added record takes an id at or above ``fresh_id``. The walks, with
        every I-2-1 insert open at each of their states, reach every path
        but the fallback, whose whole-order report ``TestFallback`` covers:
        the walks alone rarely reach the lift of I-2-1."""
        calls = []
        replay = dynamic_coloring.replay_repair

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(dynamic_coloring, "replay_repair", counted)
        paths = set()
        for state, ev, update, _ in walk_events():
            first = fresh_id(state.graph, state.order)
            events = [(update, ev.u, ev.v)] + [(insert_update, u, v) for u, v in i21_events(state)]
            for step, u, v in events:
                calls.clear()
                new, rep = step(state, u, v)
                assert rep.pairs_removed == [r for r in state.order if r not in new.order]
                assert rep.pairs_added == [r for r in new.order if r not in state.order]
                assert rep.recolored == color_changes(state.coloring, new.coloring)
                assert all(r.z >= first for r in rep.pairs_added)
                assert not rep.fallback_used
                paths.add((rep.case_label, repair_path(state, new, rep, bool(calls))))
        assert paths == {
            ("I-1", "shortcut"), ("I-2-1", "free"), ("I-2-1", "lift"),
            ("I-3-1", 0), ("I-3-1", 1), ("I-3-1", "strict"), ("I-3-2", 0),
            ("D-1", "shortcut"), ("D-2", "split"), ("D-1", "strict"), ("D-2", "strict"),
        }


def brute_force_placement(pieces, bins):
    """Whether some assignment of pieces to bins keeps every bin free of edges."""
    for where in itertools.product(range(len(bins)), repeat=len(pieces)):
        content = list(bins)
        for (mask, _, _), b in zip(pieces, where):
            content[b] |= mask
        if all(not nb & (content[b] & ~mask) for (mask, nb, _), b in zip(pieces, where)):
            return True
    return False


class TestPlace:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_complete_against_brute_force(self, data):
        """``_place`` finds a placement exactly when one exists; a found one
        keeps every bin free of edges and fills ``bins`` with its pieces, and
        a failed search leaves ``bins`` and ``where`` as they were."""
        n = data.draw(st.integers(2, 9))
        adj = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if data.draw(st.booleans()):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        group = [data.draw(st.integers(0, 5)) for _ in range(n)]  # 0..2 intact, 3..5 pieces
        masks = [sum(1 << p for p in range(n) if group[p] == g) for g in range(6)]
        intact = [m for m in masks[:3] if m]
        free = data.draw(st.integers(1, 3))
        pieces = [
            (m, reduce(or_, (adj[p] for p in range(n) if m >> p & 1)) & ~m,
             len(intact) + data.draw(st.integers(0, free - 1)))
            for m in masks[3:] if m
        ]
        bins = intact + [0] * free
        where = [-1] * len(pieces)
        placed = dynamic_coloring._place(pieces, bins, where)
        assert placed == brute_force_placement(pieces, intact + [0] * free)
        if placed:
            content = intact + [0] * free
            for (mask, nb, _), b in zip(pieces, where):
                assert not nb & bins[b]
                content[b] |= mask
            assert bins == content
        else:
            assert bins == intact + [0] * free and where == [-1] * len(pieces)


class TestFallback:
    def test_failed_repairs_fall_back_as_the_references_do(self, monkeypatch):
        """A repair that raises ``NotWeaklyChordalError`` falls back to a
        static recompute, on each repair path: I-3-1, I-3-2, a split D-2 and
        a deletion decided by the strict replay. An I-3 repair starts with
        ``_break_and_place`` and a deletion's with the order's structure, so
        a failing ``_break_and_place`` reaches both insertion paths and a
        failing ``order_structure`` both deletion paths. The report removes
        the whole old order, adds the new one and keeps the case label; the
        references, forced to fail alike, give the same report and state."""

        def broken(*args, **kwargs):
            raise NotWeaklyChordalError("forced")

        reached = set()
        for state, ev, update, reference in walk_events():
            inside = ev.kind == "delete" and {ev.u, ev.v} <= state.clique
            if inside:
                path = "split" if splits(state, ev.u, ev.v) else "strict"
            elif ev.kind == "insert" and reference_matching_records(state.order, ev.u, ev.v):
                path = "I-3"
            else:
                continue  # the shortcuts repair nothing
            _, unforced = update(state, ev.u, ev.v)
            with monkeypatch.context() as m:
                name = "_break_and_place" if path == "I-3" else "order_structure"
                m.setattr(dynamic_coloring, name, broken)
                m.setitem(globals(), "reference_replay_repair", broken)
                m.setitem(globals(), "lift_coloring", broken)
                new, rep = update(state, ev.u, ev.v)
                expected, expected_report = reference(state, ev.u, ev.v)
            assert rep.fallback_used
            assert rep.pairs_removed == list(state.order)
            assert rep.pairs_added == list(new.order)
            assert rep.case_label == unforced.case_label
            assert rep.to_dict() == expected_report.to_dict()
            assert new.to_dict() == expected.to_dict()
            assert verify_state(new)
            reached.add(rep.case_label if path == "I-3" else path)
        assert reached == {"I-3-1", "I-3-2", "split", "strict"}

    def test_placed_order_short_of_its_count_falls_back(self, monkeypatch):
        """Every order an I-3 repair returns is checked to end in k' classes:
        a ``_break_and_place`` that loses the last record of its order,
        which then ends in one class too many, falls back to a static
        recompute on both I-3-1 and I-3-2, keeping the case label."""
        place, shortened = dynamic_coloring._break_and_place, []

        def short(*args):
            order = place(*args)
            shortened.append(bool(order))
            return order[:-1] if order else order

        monkeypatch.setattr(dynamic_coloring, "_break_and_place", short)
        reached = set()
        for state, ev, update, _ in walk_events():
            if ev.kind != "insert" or not reference_matching_records(state.order, ev.u, ev.v):
                continue
            shortened.clear()
            new, rep = update(state, ev.u, ev.v)
            assert rep.fallback_used == shortened[0], (rep.case_label, shortened)
            assert verify_state(new)
            if rep.fallback_used:
                assert rep.pairs_removed == list(state.order)
                assert rep.pairs_added == list(new.order)
                reached.add(rep.case_label)
        assert reached == {"I-3-1", "I-3-2"}


class TestReportShape:
    def test_to_dict_schema(self, fig6):
        _, rep = insert_update(static_color(fig6), 1, 4)
        d = rep.to_dict()
        assert set(d) == {
            "seq", "kind", "u", "v", "case", "recolored", "pairs_removed",
            "pairs_added", "colors_before", "colors_after", "fallback",
        }
        assert d["kind"] == "insert" and d["case"] == "I-3-1"
        assert rep.pairs_changed == len(d["pairs_removed"]) + len(d["pairs_added"])

    def test_case_arithmetic(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_weakly_chordal(rng.randint(3, 9), rng.randint(1, 12), rng)
            state = static_color(g)
            ev = gen_event(g, rng, 0.6, 0, 200)
            if ev is None:
                continue
            if ev.kind == "insert":
                state, rep = insert_update(state, ev.u, ev.v)
                delta = {"I-1": 0, "I-2-1": 0, "I-2-2": 1, "I-3-1": 0, "I-3-2": 1}
                assert rep.colors_after - rep.colors_before == delta[rep.case_label]
            else:
                state, rep = delete_update(state, ev.u, ev.v)
                assert rep.case_label in ("D-1", "D-2")
                assert rep.colors_before - rep.colors_after == (
                    1 if rep.case_label == "D-2" else 0
                )
            if rep.case_label in ("I-1", "D-1"):
                assert rep.recolored == frozenset()


class TestEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_static_recompute_along_walks(self, seed):
        rng = random.Random(seed)
        g = random_weakly_chordal(rng.randint(3, 9), rng.randint(1, 12), rng)
        state = static_color(g)
        for seq in range(6):
            ev = gen_event(state.graph, rng, 0.5, seq, 200)
            if ev is None:
                break
            if ev.kind == "insert":
                unmatched = not reference_matching_records(state.order, ev.u, ev.v)
                state, rep = insert_update(state, ev.u, ev.v)
                if unmatched:  # I-1 or I-2-1: the order's lift already fits
                    assert rep.colors_after == rep.colors_before
            else:
                state, rep = delete_update(state, ev.u, ev.v)
            assert verify_state(state)
            assert state.color_count == static_color(state.graph).color_count
            assert state.color_count == oracle_chromatic(state.graph)

    def test_matching_records_by_class(self, fig6):
        base = static_color(fig6)
        hits = reference_matching_records(base.order, 1, 4)
        assert pair_sets(hits) >= {frozenset((1, 4))}

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matching_records_match_member_sets(self, g, seed):
        """Every pair of vertices, against the member sets of a ``Graph``
        replay and the two-bit reference pass: u and v lie in different final
        classes of the order's structure exactly when no record matches, and
        otherwise the one match is the first record whose class in the
        structure holds both, as ``insert_update`` reads it."""
        state = random_order_state(g, random.Random(seed))
        order, s = state.order, order_structure(state)
        _, members = replay_chain(g, order)
        for u, v in itertools.combinations(g.vertices, 2):
            expected = [
                r for r in order
                if u in members[r.x] and v in members[r.y] or v in members[r.x] and u in members[r.y]
            ]
            assert reference_matching_records(order, u, v) == expected
            assert (s.index[g.pos(u)] != s.index[g.pos(v)]) == (not expected)
            both = 1 << g.pos(u) | 1 << g.pos(v)
            assert [r for r in order if s.cls[r.z] & both == both][:1] == expected


FIGURES = ("fig2_case1.json", "fig6.json", "fig8.json", "fig9.json")


def i1_events(state):
    """Non-edges off every order pair whose endpoints differ in color."""
    g, col = state.graph, state.coloring
    ids = g.vertices
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if (
                not g.has_edge(u, v)
                and col[u] != col[v]
                and not reference_matching_records(state.order, u, v)
            ):
                yield u, v


def i21_events(state):
    """Same-colored non-edges off every order pair."""
    g, col = state.graph, state.coloring
    ids = g.vertices
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if (
                not g.has_edge(u, v)
                and col[u] == col[v]
                and not reference_matching_records(state.order, u, v)
            ):
                yield u, v


def d1_shortcut_events(state):
    """Admissible deletions with an endpoint outside the held clique."""
    g = state.graph
    for u, v in g.edges():
        if (u not in state.clique or v not in state.clique) and (
            stays_weakly_chordal_after_delete(g, u, v)
        ):
            yield u, v


def random_static_state(seed):
    rng = random.Random(seed)
    g = random_weakly_chordal(rng.randint(3, 9), rng.randint(1, 12), rng)
    return static_color(g), rng


class TestShortcuts:
    def check_i1(self, state, u, v):
        """The shortcut equals the lenient replay it skips."""
        new, rep = insert_update(state, u, v)
        h = state.graph.insert_edge(u, v)
        records, removed, added = reference_replay_repair(h, state.order, strict=False)
        coloring, k = lift_coloring(h, records)
        assert rep.case_label == "I-1"
        assert new.order == records
        assert k == new.color_count == state.color_count
        # static_color's coloring is the lift of its order
        assert new.coloring == coloring == state.coloring
        assert new.clique == state.clique
        assert removed == added == [] and rep.pairs_changed == 0
        assert rep.recolored == frozenset()
        assert verify_state(new)

    def check_i21(self, state, u, v):
        """The order is kept, as rung 0 of the ladder it skips keeps it."""
        new, rep = insert_update(state, u, v)
        h = state.graph.insert_edge(u, v)
        records, removed, added = reference_replay_repair(h, state.order, strict=False)
        coloring, k = lift_coloring(h, records)
        assert rep.case_label == "I-2-1" and k == state.color_count
        assert new.order == records == state.order
        assert removed == added == [] and rep.pairs_changed == 0
        assert new.clique == state.clique and new.color_count == rep.colors_after == k
        assert rep.recolored == color_changes(state.coloring, new.coloring)
        if len(rep.recolored) != 1:  # neither endpoint had a free color
            assert new.coloring == _match_palette(coloring, state.coloring, k)
        assert verify_state(new)
        return rep

    def check_d1(self, state, u, v):
        new, rep = delete_update(state, u, v)
        assert rep.case_label == "D-1"
        assert new.clique == state.clique
        assert new.order == state.order
        assert new.coloring == state.coloring
        assert rep.pairs_changed == 0 and rep.recolored == frozenset()
        assert verify_state(new)
        assert new.color_count == static_color(new.graph).color_count

    @pytest.mark.parametrize("name", FIGURES)
    def test_i1_figures(self, name):
        state = static_color(fixture_graph(name))
        for u, v in i1_events(state):
            self.check_i1(state, u, v)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_i1_random(self, seed):
        state, _ = random_static_state(seed)
        for u, v in i1_events(state):
            self.check_i1(state, u, v)

    def test_i1_carries_the_structure(self, monkeypatch):
        """An I-1 insert decides its case from the order's structure, which
        the state keeps, and hands it to the new state, which then verifies:
        neither replays the order."""
        topo = random_convex(20, 20, random.Random(1))
        state = static_color(build_conflict_graph(topo, all_unicast_messages(topo)).graph)
        u, v = next(
            (u, v) for u, v in i1_events(state)
            if stays_weakly_chordal_after_insert(state.graph, u, v)
        )
        kept = order_structure(state)

        def forbidden(*args, **kwargs):
            raise AssertionError("the I-1 path replayed the order")

        monkeypatch.setattr(static_coloring, "_replay", forbidden)
        new, rep = insert_update(state, u, v)
        assert rep.case_label == "I-1"
        assert new._structure is state._structure is kept is not None
        assert len(new.order) > 10
        assert verify_state(new)

    def test_d1_figures(self):
        checked = 0
        for name in FIGURES:
            state = static_color(fixture_graph(name))
            for u, v in d1_shortcut_events(state):
                self.check_d1(state, u, v)
                checked += 1
        assert checked > 0

    def test_i21_along_walks(self):
        """Static colorings are lifts, so I-2-1 needs states that updates
        recolored; both the recolor and the lift branch are reached."""
        checked = lifted = 0
        for seed in range(12):
            state, rng = random_static_state(seed)
            for seq in range(12):
                for u, v in i21_events(state):
                    checked += 1
                    lifted += len(self.check_i21(state, u, v).recolored) != 1
                ev = gen_event(state.graph, rng, 0.5, seq, 200)
                if ev is None:
                    break
                update = insert_update if ev.kind == "insert" else delete_update
                state, _ = update(state, ev.u, ev.v)
        assert checked and lifted

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_d1_along_walks(self, seed):
        state, rng = random_static_state(seed)
        for seq in range(6):
            shortcuts = list(d1_shortcut_events(state))
            if shortcuts:
                self.check_d1(state, *rng.choice(shortcuts))
            ev = gen_event(state.graph, rng, 0.5, seq, 200)
            if ev is None:
                break
            update = insert_update if ev.kind == "insert" else delete_update
            state, _ = update(state, ev.u, ev.v)


class TestPalette:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_relabelling_onto_1_to_k(self, data):
        """Labels 1..k exactly, and the fewest recolored over all k! relabellings.

        Old labels run up to k+1, as when a D-2 deletion shrinks the palette.
        """
        k = data.draw(st.integers(1, 6))
        extra = data.draw(st.lists(st.integers(1, k), max_size=10))
        new = dict(enumerate(list(range(1, k + 1)) + extra))  # a lift uses all of 1..k
        old = data.draw(st.dictionaries(st.sampled_from(sorted(new)), st.integers(1, k + 1)))
        final = _match_palette(new, old, k)
        relabel = {c: final[v] for v, c in new.items()}
        assert all(final[v] == relabel[c] for v, c in new.items())
        assert sorted(relabel.values()) == list(range(1, k + 1))
        fewest = min(
            sum(old.get(v) != perm[c - 1] for v, c in new.items())
            for perm in itertools.permutations(range(1, k + 1))
        )
        assert len(color_changes(old, final)) == fewest


class TestDropLadder:
    def test_seed3_event55_replays(self, monkeypatch):
        """Both rungs are decided on class masks, then the strict replay runs.

        The I-3-1 insert at event 55 of this stream fails rung 0 and every
        rung-1 drop, so it makes the one replay an insertion may: the strict
        one. Every contraction removes a vertex, so a replay makes at most
        n - 1 of them on an n-vertex graph, all on its ranking: none
        contracts a ``Graph``.
        """
        calls = []  # [order length, replay_repair calls] per update
        contractions = []  # [graph.n, PairRanking.contract calls] per replay
        graph_contractions = []  # Graph.contract_pair calls inside a replay
        inside = []  # open replay_repair calls
        replay = dynamic_coloring.replay_repair
        contract = PairRanking.contract
        contract_pair = Graph.contract_pair

        def counted_replay(graph, *args, **kwargs):
            calls[-1][1] += 1
            contractions.append([graph.n, 0])
            inside.append(True)
            try:
                return replay(graph, *args, **kwargs)
            finally:
                inside.pop()

        def counted_contract(self, *args, **kwargs):
            if inside:  # the trial's initial static_color contracts too
                contractions[-1][1] += 1
            return contract(self, *args, **kwargs)

        def counted_contract_pair(self, *args, **kwargs):
            if inside:
                graph_contractions.append(args)
            return contract_pair(self, *args, **kwargs)

        def counted(update):
            def run(state, u, v):
                calls.append([len(state.order), 0])
                return update(state, u, v)

            return run

        monkeypatch.setattr(dynamic_coloring, "replay_repair", counted_replay)
        monkeypatch.setattr(PairRanking, "contract", counted_contract)
        monkeypatch.setattr(Graph, "contract_pair", counted_contract_pair)
        monkeypatch.setattr(harness, "insert_update", counted(insert_update))
        monkeypatch.setattr(harness, "delete_update", counted(delete_update))
        cfg = TrialConfig(
            seed=3, M=9, N=9, event_count=56, verification_mode=False, assert_bound=False
        )
        report = run_simulation(cfg)
        event = report.events[55]
        assert (event.kind, event.case_label) == ("insert", "I-3-1")
        order_len, replays = calls[55]
        assert replays == 1
        assert any(count for _, count in contractions)
        assert all(count <= n - 1 for n, count in contractions)
        assert graph_contractions == []
