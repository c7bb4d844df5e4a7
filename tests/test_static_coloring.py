"""Algorithm-2 layer: contraction, lifting, verification, perfection."""

import random
import re
from dataclasses import replace
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timcolor.cli import state_from_dict, state_to_dict
from timcolor.dynamic_coloring import delete_update, insert_update, replay_repair
from timcolor.graph import Graph, GraphError, make_graph
from timcolor.generators import random_chordal_bipartite, random_convex, random_weakly_chordal
from timcolor.harness import TrialConfig, build_trial_graph
from timcolor.oracles import oracle_chromatic, oracle_max_clique
from timcolor.recognition import PairRanking, TwoPair, is_two_pair, is_weakly_chordal
from timcolor import static_coloring
from timcolor.static_coloring import (
    ColoringState,
    ContractionRecord,
    InvalidContractionError,
    NotWeaklyChordalError,
    chromatic_number,
    contract_to_clique,
    diagnose_state,
    fresh_id,
    lift,
    lift_coloring,
    order_classes,
    static_color,
    verify_state,
)
from timcolor.tim import all_unicast_messages, build_conflict_graph

from conftest import (
    fixture_graph,
    order_of,
    perfection_graphs,
    perturbed,
    random_order_state,
    replay_chain,
    weakly_chordal_graphs,
)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def contract(g, pair, z):
    """Merge a two-pair into the vertex z adjacent to the union
    neighborhood, refusing a pair that is not a two-pair: the reference
    step of the contraction cases."""
    if not is_two_pair(g, pair.x, pair.y):
        raise InvalidContractionError(f"({pair.x},{pair.y}) is not a two-pair")
    return g.contract_pair(pair.x, pair.y, z)


def reference_contractions(g):
    """Records of the per-step list-and-sort loop: the reference for static_color's order.

    Every step sorts all non-adjacent pairs by descending common
    neighborhood, then ascending ids, and contracts the first two-pair.
    """
    records, z = [], fresh_id(g, ())
    while True:
        ids = g.vertices
        ranked = sorted(
            (-len(set(g.neighbors(a)) & set(g.neighbors(b))), a, b)
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if not g.has_edge(a, b)
        )
        pair = next(((a, b) for _, a, b in ranked if is_two_pair(g, a, b)), None)
        if pair is None:
            return tuple(records)
        g = g.contract_pair(*pair, z)
        records.append(ContractionRecord(*pair, z))
        z += 1


def chain_lift(g, records):
    """The lift as it was before class masks: one ``Graph`` per record.

    Returns (coloring, clique, k); the clique is None where the threading
    found no parent that completes it.
    """
    chain = [g]
    for rec in records:
        chain.append(chain[-1].contract_pair(rec.x, rec.y, rec.z))
    base = sorted(chain[-1].vertices)
    coloring = {v: i + 1 for i, v in enumerate(base)}
    clique = set(base)
    for i in range(len(records) - 1, -1, -1):
        rec, pre = records[i], chain[i]
        coloring[rec.x] = coloring[rec.y] = coloring.pop(rec.z)
        if clique is not None and rec.z in clique:
            clique.discard(rec.z)
            if all(pre.has_edge(rec.x, w) for w in clique):
                clique.add(rec.x)
            elif all(pre.has_edge(rec.y, w) for w in clique):
                clique.add(rec.y)
            else:
                clique = None
    return coloring, None if clique is None else frozenset(clique), len(base)


def check_order_classes(g, records):
    """order_classes gives the member sets and adjacency of a ``Graph`` replay.

    ``cls`` is each id's member mask and ``nb`` the OR of its members'
    adjacency. A merged id z is checked against every id live beside it
    right after its record fires: two live ids keep their adjacency until
    one of them is merged, and the later-named one was checked against the
    other when it was made. The final classes partition the vertices.
    """
    chain, members = replay_chain(g, records)
    cls, nb, final = order_classes(g, records)
    adj = g.adj_masks()
    assert set(cls) == set(nb) == set(members)
    for w, m in members.items():
        assert cls[w] == reduce(or_, (1 << g.pos(v) for v in m))
        assert nb[w] == reduce(or_, (adj[g.pos(v)] for v in m))
    for rec, quotient in zip(records, chain[1:]):
        z = rec.z
        for w in quotient.vertices:
            assert quotient.has_edge(z, w) == bool(nb[z] & cls[w]) == bool(nb[w] & cls[z])
    assert final == list(chain[-1].vertices)
    assert reduce(or_, (cls[f] for f in final), 0) == (1 << g.n) - 1
    assert sum(cls[f].bit_count() for f in final) == g.n


def check_lift(g, records):
    """lift and lift_coloring give the chain lift's results and errors."""
    check_order_classes(g, records)
    coloring, clique, k = chain_lift(g, records)
    assert lift_coloring(g, records) == (coloring, k)
    if clique is None:
        with pytest.raises(NotWeaklyChordalError, match="clique lift failed"):
            lift(g, records)
    else:
        assert lift(g, records) == (coloring, clique, k)


def final_classes(state):
    """Member sets of the final ids of the state's order, on a ``Graph`` replay."""
    chain, members = replay_chain(state.graph, state.order)
    return {members[v] for v in chain[-1].vertices}


class TestContract:
    def test_c4_two_pair_contracts_to_p3(self):
        h = contract(cycle(4), TwoPair(0, 2), 4)
        assert h.n == 3 and h.has_edge(4, 1) and h.has_edge(4, 3)
        assert not h.has_edge(1, 3)

    def test_p3_endpoints_to_k2(self):
        h = contract(path(3), TwoPair(0, 2), 3)
        assert h.n == 2 and h.has_edge(3, 1)

    def test_fig6_paper_sequence_reaches_k3(self, fig6):
        # contract (v2,v5), (v1,v4), (v3,v6); result is K3 on the
        # classes {v2,v5}, {v1,v4}, {v3,v6}
        z25, z14, z36 = 6, 7, 8
        g = contract(fig6, TwoPair(1, 4), z25)
        g = contract(g, TwoPair(0, 3), z14)
        g = contract(g, TwoPair(2, 5), z36)
        assert g.n == 3
        assert g.has_edge(z25, z14) and g.has_edge(z14, z36) and g.has_edge(z25, z36)
        _, members = replay_chain(fig6, order_of([[1, 4, z25], [0, 3, z14], [2, 5, z36]]))
        assert members[z14] == frozenset({0, 3})
        assert members[z25] == frozenset({1, 4})
        assert members[z36] == frozenset({2, 5})

    def test_rejects_non_two_pair(self):
        with pytest.raises(InvalidContractionError):
            contract(path(4), TwoPair(0, 3), 4)

    def test_preserves_weak_chordality(self):
        """Two-pair theory on static_color's whole order: every graph of its
        ``Graph.contract_pair`` replay is weakly chordal, and every record is
        a two-pair of the graph before it. On criterion 1's graphs and the
        benchmark's convex 30x30 and dense n = 50 networks."""
        topo = random_convex(30, 30, random.Random(1))
        graphs = [
            *perfection_graphs(),
            build_conflict_graph(topo, all_unicast_messages(topo)).graph,
            build_trial_graph(TrialConfig(seed=1, M=10, N=10, density=0.5)),
        ]
        for g in graphs:
            order = static_color(g).order
            chain, _ = replay_chain(g, order)
            assert all(is_weakly_chordal(h) for h in chain)
            assert all(is_two_pair(h, r.x, r.y) for h, r in zip(chain, order))


class TestStaticColor:
    def test_k4_base_case(self):
        st_ = static_color(clique(4))
        assert st_.color_count == 4
        assert st_.clique == frozenset(range(4))
        assert st_.order == ()
        assert sorted(st_.coloring.values()) == [1, 2, 3, 4]

    def test_c4(self):
        st_ = static_color(cycle(4))
        assert st_.color_count == 2 and len(st_.order) == 2
        assert verify_state(st_)

    def test_fig6(self, fig6):
        st_ = static_color(fig6)
        assert st_.color_count == 3
        assert len(st_.order) == 3
        assert final_classes(st_) == {
            frozenset({0, 3}),
            frozenset({1, 4}),
            frozenset({2, 5}),
        }

    def test_empty_and_singleton(self):
        st0 = static_color(make_graph(0, []))
        assert st0.color_count == 0 and st0.clique == frozenset()
        st1 = static_color(make_graph(1, []))
        assert st1.color_count == 1

    def test_non_weakly_chordal_rejected(self):
        """Every hole and antihole of length 5..8 has no two-pair."""
        for n in (5, 6, 7, 8):
            for g in (cycle(n), cycle(n).complement()):
                with pytest.raises(NotWeaklyChordalError, match="not weakly chordal"):
                    static_color(g)

    def test_non_weakly_chordal_rejected_without_verify(self):
        # no two-pair on C5, and the ranking's masks are not a clique
        with pytest.raises(NotWeaklyChordalError, match="not weakly chordal"):
            static_color(cycle(5))

    def test_fresh_ids_count_up_from_largest_vertex(self):
        """On sparse ids the fresh ids start one above the largest vertex."""
        g = Graph([0, 3, 5, 9], [(0, 3), (5, 9)])
        assert [r.z for r in static_color(g).order] == [10, 11]

    def test_static_color_contracts_no_graph(self, monkeypatch):
        """static_color contracts on the ranking's masks and builds no Graph."""
        topo = random_convex(30, 30, random.Random(1))
        g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
        calls = []
        real = Graph.contract_pair

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "contract_pair", counted)
        state = static_color(g)
        assert len(state.order) > 20 and verify_state(state)
        assert calls == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_perfection(self, seed):
        rng = random.Random(seed)
        g = random_weakly_chordal(rng.randint(1, 12), rng.randint(0, 20), rng)
        st_ = static_color(g)
        chi = oracle_chromatic(g)
        omega = len(oracle_max_clique(g))
        assert st_.color_count == chi == omega
        assert verify_state(st_)

    def test_order_length_invariant(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_weakly_chordal(rng.randint(1, 11), rng.randint(0, 18), rng)
            st_ = static_color(g)
            assert len(st_.order) == g.n - len(st_.clique)

    def test_order_independence(self):
        rng = random.Random(19)
        for _ in range(15):
            g = random_weakly_chordal(rng.randint(2, 11), rng.randint(0, 18), rng)
            counts = {random_order_state(g, random.Random(k)).color_count for k in range(8)}
            assert counts == {static_color(g).color_count}

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_orders_are_two_pair_orders(self, g, seed):
        """The tests' random orders fire only two-pairs, take ids from
        fresh_id up, and lift to static_color's count."""
        state = random_order_state(g, random.Random(seed))
        ranking = PairRanking(g)
        for z, rec in enumerate(state.order, fresh_id(g, ())):
            assert rec.z == z
            assert ranking.joinable(rec.x, rec.y)
            ranking.contract(rec.x, rec.y, rec.z)
        assert ranking.complete()
        assert state.color_count == static_color(g).color_count
        assert verify_state(state)

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_records_match_reference(self, g, seed):
        """Same records as the sorting loop, on ids that are not contiguous too."""
        expected = reference_contractions(g)
        assert static_color(g).order == expected
        # a random two-pair order has the same color count
        shuffled = random_order_state(g, random.Random(seed))
        assert verify_state(shuffled)
        assert shuffled.color_count == g.n - len(expected)

    def test_conflict_graph_records_match_reference(self):
        """Random conflict graphs, and the networks of the benchmark's
        link-flap and edge-churn workloads."""
        rng = random.Random(29)
        topos = [
            topo
            for size in (6, 8, 10, 12)
            for topo in (
                random_chordal_bipartite(size, size, 0.5, rng),
                random_convex(3 * size, 3 * size, rng),
            )
        ]
        topos += [random_convex(30, 30, random.Random(k)) for k in range(1, 17)]
        graphs = [build_conflict_graph(topo, all_unicast_messages(topo)).graph for topo in topos]
        graphs += [
            build_trial_graph(TrialConfig(seed=k, M=10, N=10, density=0.5)) for k in range(1, 5)
        ]
        for g in graphs:
            assert static_color(g).order == reference_contractions(g)

    def test_chromatic_number_helper(self, c5=None):
        assert chromatic_number(cycle(4)) == 2
        assert chromatic_number(clique(5)) == 5


class TestLift:
    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_static_orders_match_chain_lift(self, g, seed):
        check_lift(g, static_color(g).order)
        check_lift(g, random_order_state(g, random.Random(seed)).order)

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_replay_results_match_chain_lift(self, g, seed):
        """The strict replay of a static order on a perturbed graph, and the
        order the update leaves there.

        Records an update breaks leave dead ids behind, which the masks keep.
        """
        rng = random.Random(seed)
        state = random_order_state(g, rng)
        event = perturbed(g, rng)
        if event is None:
            return
        h, u, v = event
        update = delete_update if g.has_edge(u, v) else insert_update
        orders = [update(state, u, v)[0].order]
        try:
            orders.append(replay_repair(h, state.order).order)
        except NotWeaklyChordalError:
            pass
        for order in orders:
            check_lift(h, order)

    def test_order_classes_partition(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        cls, _, final = order_classes(g, order_of([[0, 2, 6], [3, 5, 7]]))
        assert final == [1, 4, 6, 7]
        assert [cls[f] for f in final] == [0b10, 0b10000, 0b101, 0b101000]

    def test_conflict_graphs_match_chain_lift(self):
        rng = random.Random(31)
        for size in (8, 12):
            topo = random_convex(3 * size, 3 * size, rng)
            g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
            check_lift(g, static_color(g).order)


def check_loop_lift(g, result):
    """The contraction loop's clique, coloring and count are those ``lift``
    and the chain lift thread back through its own records."""
    coloring, clique, k = lift(g, result.order)
    assert (result.coloring(), result.clique, result.size) == (coloring, clique, k)
    assert chain_lift(g, result.order) == (coloring, clique, k)
    assert result.vertices is g.vertices


@st.composite
def disconnected_graphs(draw):
    """Two weakly chordal graphs side by side, ids of the second shifted
    above the first's: weakly chordal again (a hole or antihole of the union
    would lie in one side), and with a count-0 tail to contract."""
    g, h = draw(weakly_chordal_graphs()), draw(weakly_chordal_graphs())
    off = fresh_id(g, ()) + draw(st.integers(0, 3))
    edges = list(g.edges()) + [(u + off, v + off) for u, v in h.edges()]
    return Graph(g.vertices + tuple(v + off for v in h.vertices), edges)


def criterion_2_graphs():
    """The initial graphs of criterion 2's first trials, each with some of
    the common neighbourhoods C = N(u) & N(v) of its non-adjacent pairs as
    induced subgraphs: those whose clique the I-3 growth test reads off the
    loop."""
    for seed in range(1, 7):
        rng = random.Random(seed * 991)
        g = build_trial_graph(TrialConfig(seed=seed, M=rng.randint(4, 10),
                                          N=rng.randint(4, 10), density=0.5))
        ids = g.vertices
        subs = [
            g.induced_subgraph(set(g.neighbors(u)) & set(g.neighbors(v)))
            for i, u in enumerate(ids)
            for v in ids[i + 1 :: 5]
            if not g.has_edge(u, v)
        ]
        yield g, subs


def ranked_order(g, first):
    """The records a ``PairRanking`` of g pops and contracts down to a
    clique, with fresh ids counting up from ``first``."""
    ranking, records, z = PairRanking(g), [], first
    while not ranking.complete():
        pair = ranking.pop_pair()
        ranking.contract(*pair, z)
        records.append(ContractionRecord(*pair, z))
        z += 1
    return tuple(records)


def check_fresh_id_shift(g, c):
    """Fresh ids from ``fresh_id(g, ())`` + c pop the same pairs as those
    from ``fresh_id(g, ())``, up to the shift, and lift the same coloring
    and clique; the unshifted run is ``contract_to_clique``'s, whose
    records it returns."""
    first = fresh_id(g, ())
    base, shifted = ranked_order(g, first), ranked_order(g, first + c)

    def unshift(v):
        return v - c if v >= first + c else v

    assert tuple(ContractionRecord(*map(unshift, r.as_list())) for r in shifted) == base
    assert lift(g, shifted)[:2] == lift(g, base)[:2]
    assert contract_to_clique(g, ()).order == base
    return base


class TestFreshIdShift:
    """Where the fresh ids start names them and changes nothing else (the
    claim in ``contract_to_clique``'s docstring)."""

    @given(st.one_of(weakly_chordal_graphs(), disconnected_graphs()), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_random_shift(self, g, c):
        check_fresh_id_shift(g, c)

    def test_criterion_2_growth_subgraphs(self):
        """G[C] with fresh ids from above G's ids, as the growth test once
        numbered them, and from c more."""
        rng = random.Random(28)
        shifted = 0
        for g, subs in criterion_2_graphs():
            check_fresh_id_shift(g, rng.randint(0, 40))
            for sub in subs:
                gap = fresh_id(g, ()) - fresh_id(sub, ())
                check_fresh_id_shift(sub, gap + rng.randint(0, 40))
                if gap > 0 and check_fresh_id_shift(sub, gap):
                    shifted += 1
        assert shifted > 20


class TestLoopLift:
    """``contract_to_clique`` lifts as it contracts: its results against the
    replays of the order it returns."""

    @given(st.one_of(weakly_chordal_graphs(), disconnected_graphs()))
    @settings(max_examples=200, deadline=None)
    def test_static_orders(self, g):
        check_loop_lift(g, contract_to_clique(g, ()))

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_strict_replays(self, g, seed):
        """The strict replay of a random or static order on a perturbed
        graph, whose kept records may fire out of order."""
        rng = random.Random(seed)
        state = random_order_state(g, rng) if rng.random() < 0.5 else static_color(g)
        event = perturbed(g, rng)
        if event is None:
            return
        h = event[0]
        try:
            result = replay_repair(h, state.order)
        except NotWeaklyChordalError:
            return
        check_loop_lift(h, result)

    def test_criterion_2_graphs_and_growth_subgraphs(self):
        """The initial graphs of criterion 2's first trials and their
        growth subgraphs (``criterion_2_graphs``)."""
        subgraphs = 0
        for g, subs in criterion_2_graphs():
            check_loop_lift(g, contract_to_clique(g, ()))
            for sub in subs:
                check_loop_lift(sub, contract_to_clique(sub, ()))
            subgraphs += len(subs)
        assert subgraphs > 100

    def test_static_state_keeps_no_structure(self, monkeypatch):
        """``static_color`` keeps none of the loop's classes as the state's
        ``order_structure``: ``verify_state`` builds it by the order's own
        edge-free replay, once, and keeps it."""
        topo = random_convex(30, 30, random.Random(1))
        state = static_color(build_conflict_graph(topo, all_unicast_messages(topo)).graph)
        assert state._structure is None
        replays = []
        replay = static_coloring._replay

        def counted(ids, records, adj):
            replays.append(adj is None)
            return replay(ids, records, adj)

        monkeypatch.setattr(static_coloring, "_replay", counted)
        assert verify_state(state) and verify_state(state)
        assert replays == [True] and state._structure is not None


NEW_RECORD_PROBLEM = re.compile(
    r"order record \(-?\d+,-?\d+,-?\d+\) (pairs a vertex with itself|reuses live id -?\d+)"
)


def graph_replay_diagnose(state, problems):
    """The verifier as it was before the mask replay: one ``Graph`` per record.

    It also reports a z that a dead id has taken, which ``contract_pair``
    accepts and ``diagnose_state`` rejects.

    Appends to ``problems`` as it goes, so the problems found before a
    ``GraphError`` stay visible to the caller.
    """
    g = state.graph
    if set(state.coloring) != set(g.vertices):
        problems.append("coloring domain differs from vertex set")
        return
    k = state.color_count
    for v in g.vertices:
        c = state.coloring[v]
        if isinstance(c, bool) or not isinstance(c, int) or c not in range(1, k + 1):
            problems.append(f"vertex {v} has color {c!r}, not one of 1..{k}")
    if problems:
        return
    for u, v in g.edges():
        if state.coloring[u] == state.coloring[v]:
            problems.append(f"improper coloring on edge ({u},{v})")
    distinct = len(set(state.coloring.values())) if state.coloring else 0
    if distinct != state.color_count:
        problems.append(f"{distinct} distinct colors used, color_count={state.color_count}")
    if len(state.clique) != state.color_count:
        problems.append(f"clique size {len(state.clique)} != color_count {state.color_count}")
    members = sorted(state.clique)
    problems.extend(f"clique member {v} is not a vertex" for v in members if v not in g)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not g.has_edge(u, v):
                problems.append(f"clique members ({u},{v}) are not adjacent")
    cur, named = g, set(g.vertices)
    for rec in state.order:
        if rec.x not in cur or rec.y not in cur:
            problems.append(f"order record ({rec.x},{rec.y},{rec.z}) references dead vertex")
            return
        if cur.has_edge(rec.x, rec.y):
            problems.append(f"order record ({rec.x},{rec.y},{rec.z}) contracts an edge")
            return
        cur = cur.contract_pair(rec.x, rec.y, rec.z)
        if rec.z in named:
            problems.append(f"order record ({rec.x},{rec.y},{rec.z}) reuses dead id {rec.z}")
            return
        named.add(rec.z)
    if not all(cur.degree(v) == cur.n - 1 for v in cur.vertices):
        problems.append("order replay does not end in a clique")
    elif cur.n != state.color_count:
        problems.append(f"replayed clique has {cur.n} vertices, expected {state.color_count}")


CORRUPTIONS = (
    "recolor", "drop", "swap", "duplicate", "edge", "self", "live", "dead", "random", "clique",
    "count",
)


@st.composite
def corrupted_states(draw):
    """A static_color state of a random weakly chordal graph, with 0-3 corruptions.

    Some graphs lose a few vertices first, so that ids and sorted positions
    differ.
    """
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = rng.randint(1, 12)
    g = random_weakly_chordal(n, rng.randint(0, 25), rng)
    g = g.induced_subgraph(rng.sample(g.vertices, n - rng.randint(0, n // 3)))
    state = random_order_state(g, rng)
    ids = g.vertices
    coloring = dict(state.coloring)
    count, clique = state.color_count, state.clique
    records = list(state.order)
    edges = list(g.edges())
    some_id = st.integers(-1, fresh_id(g, ()) + 2)

    def at(extra=1):
        return draw(st.integers(0, len(records) - 1 + extra))

    # two "count" corruptions can take the count below 0; a colour or a
    # clique size past max(count, 0) is still a corruption
    for _ in range(draw(st.sampled_from((0, 1, 2, 3)))):
        kind = draw(st.sampled_from(CORRUPTIONS))
        if kind == "recolor":
            coloring[draw(st.sampled_from(ids))] = draw(st.integers(1, max(count, 0) + 1))
        elif kind == "drop" and records:
            del records[at(0)]
        elif kind == "swap" and len(records) > 1:
            i, j = at(0), at(0)
            records[i], records[j] = records[j], records[i]
        elif kind == "duplicate" and records:
            i = at(0)
            records.insert(draw(st.integers(i, len(records))), records[i])
        elif kind == "edge" and edges:
            u, v = draw(st.sampled_from(edges))
            records.insert(at(), ContractionRecord(u, v, fresh_id(g, ()) + 5))
        elif kind == "self":
            v = draw(st.sampled_from(ids))
            records.insert(at(), ContractionRecord(v, v, fresh_id(g, ()) + 5))
        elif kind == "live" and records:
            i = at(0)
            r = records[i]
            z = draw(st.sampled_from((r.x, r.y)) | st.sampled_from(ids))
            records[i] = ContractionRecord(r.x, r.y, z)
        elif kind == "dead" and len(records) > 1:
            # a z that a parent of an earlier record held
            i = draw(st.integers(1, len(records) - 1))
            r, q = records[i], records[draw(st.integers(0, i - 1))]
            records[i] = ContractionRecord(r.x, r.y, draw(st.sampled_from((q.x, q.y))))
        elif kind == "random":
            rec = ContractionRecord(draw(some_id), draw(some_id), draw(some_id))
            records.insert(at(), rec)
        elif kind == "clique":
            clique = frozenset(draw(st.sets(st.sampled_from(ids), max_size=max(count, 0) + 1)))
        elif kind == "count":
            count += draw(st.sampled_from((-1, 1)))
    return ColoringState(g, coloring, count, clique, tuple(records))


class TestVerifyState:
    def test_accepts_valid(self, fig6):
        assert verify_state(static_color(fig6))

    def test_detects_corrupt_color(self, fig6):
        st_ = static_color(fig6)
        bad = dict(st_.coloring)
        u, v = next(iter(fig6.edges()))
        bad[u] = bad[v]
        corrupt = ColoringState(st_.graph, bad, st_.color_count, st_.clique, st_.order)
        assert not verify_state(corrupt)
        assert diagnose_state(corrupt)

    def test_detects_non_clique(self, fig6):
        st_ = static_color(fig6)
        # v1 and v4 (0 and 3) are non-adjacent in fig6
        corrupt = ColoringState(
            st_.graph, st_.coloring, st_.color_count, frozenset({0, 3, 2}), st_.order
        )
        problems = diagnose_state(corrupt)
        assert problems and any("clique" in p or "adjacent" in p for p in problems)

    def test_detects_wrong_count(self, fig6):
        st_ = static_color(fig6)
        corrupt = ColoringState(st_.graph, st_.coloring, 4, st_.clique, st_.order)
        assert not verify_state(corrupt)

    def test_self_pair_record_reported(self, fig6):
        st_ = static_color(fig6)
        bad = (ContractionRecord(0, 0, 99),) + st_.order
        corrupt = ColoringState(st_.graph, st_.coloring, st_.color_count, st_.clique, bad)
        assert diagnose_state(corrupt) == ["order record (0,0,99) pairs a vertex with itself"]

    def test_live_id_record_reported(self, fig6):
        st_ = static_color(fig6)
        x, y, _ = st_.order[0].as_list()
        bad = (ContractionRecord(x, y, x),) + st_.order[1:]
        corrupt = ColoringState(st_.graph, st_.coloring, st_.color_count, st_.clique, bad)
        assert diagnose_state(corrupt) == [f"order record ({x},{y},{x}) reuses live id {x}"]

    def test_dead_id_record_reported(self):
        """A z that a base vertex or an earlier record has taken is reported, live or not."""
        order = order_of([[0, 2, 5], [1, 3, 0], [4, 5, 7]])
        state = ColoringState(path(5), {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}, 2, frozenset({0, 1}), order)
        assert diagnose_state(state) == ["order record (1,3,0) reuses dead id 0"]
        order = order_of([[0, 2, 5], [5, 4, 6], [1, 3, 5]])
        state = ColoringState(path(5), {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}, 2, frozenset({0, 1}), order)
        assert diagnose_state(state) == ["order record (1,3,5) reuses dead id 5"]

    @pytest.mark.parametrize("relabel", [str, lambda c: c + 0.5, lambda c: True, lambda c: 5])
    def test_colors_off_the_palette_reported(self, fig6, relabel):
        """A color that is not an int in 1..color_count is reported per
        vertex, in id order, and ends the diagnosis: strings, floats, bools,
        and an int above the count, though the count of distinct colors
        still matches."""
        st_ = static_color(fig6)
        k = st_.color_count
        bad = {v: relabel(c) if c == k else c for v, c in st_.coloring.items()}
        corrupt = ColoringState(st_.graph, bad, k, st_.clique, st_.order)
        off = sorted(v for v, c in st_.coloring.items() if c == k)
        assert diagnose_state(corrupt) == [
            f"vertex {v} has color {bad[v]!r}, not one of 1..{k}" for v in off
        ]
        assert not verify_state(corrupt)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_graph_replay(self, data):
        state = data.draw(corrupted_states())
        expected: list[str] = []
        try:
            graph_replay_diagnose(state, expected)
        except GraphError:
            # the two record kinds the Graph replay raises on
            got = diagnose_state(state)
            assert got[:-1] == expected
            assert NEW_RECORD_PROBLEM.fullmatch(got[-1])
            assert not verify_state(state)
        else:
            assert diagnose_state(state) == expected
            assert verify_state(state) == (not expected)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lift_refuses_what_diagnose_reports(self, data):
        """lift and lift_coloring raise on exactly the orders with a record
        problem, with its text. The generator keeps the coloring's domain,
        and the order is diagnosed with every vertex colored 1 of 1, so a
        corrupted color or count never ends the diagnosis before the order."""
        state = data.draw(corrupted_states())
        one_color = replace(state, coloring=dict.fromkeys(state.graph.vertices, 1), color_count=1)
        record_problems = [p for p in diagnose_state(one_color) if p.startswith("order record")]
        for run in (lift, lift_coloring):
            if record_problems:
                with pytest.raises(InvalidContractionError) as exc:
                    run(state.graph, state.order)
                assert [str(exc.value)] == record_problems
            else:
                try:
                    run(state.graph, state.order)
                except NotWeaklyChordalError:
                    assert run is lift  # an order that does not end in a clique

    @given(st.integers(0, 10_000), st.sampled_from(["one", "two", "all", "short", "long", "stray"]))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_cliques_match_graph_replay(self, seed, kind):
        """The clique check on masks lists what the pairwise ``has_edge`` check
        listed, in the same order: with one, two or all member pairs
        non-adjacent, a member too few or too many, and members that are no
        vertex."""
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        g = random_weakly_chordal(n, rng.randint(n, 4 * n), rng)
        if rng.random() < 0.5:  # ids that are not positions
            g = g.induced_subgraph(rng.sample(g.vertices, n - rng.randint(0, n // 3)))
        state = static_color(g)
        members = sorted(state.clique)
        graph, clique = g, set(members)
        if kind in ("one", "two"):
            pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
            if len(pairs) < (kind == "two") + 1:
                return
            for u, v in rng.sample(pairs, (kind == "two") + 1):
                graph = graph.delete_edge(u, v)
        elif kind == "all":  # a color class is an independent set
            classes = {}
            for v, c in state.coloring.items():
                classes.setdefault(c, set()).add(v)
            clique = max(classes.values(), key=len)
        elif kind == "short":
            clique.discard(rng.choice(members))
        elif kind == "long":
            outside = [v for v in g.vertices if v not in clique]
            if not outside:
                return
            clique.add(rng.choice(outside))
        else:
            top = fresh_id(g, ())
            clique |= set(rng.sample([-1, top, top + 3], rng.randint(1, 3)))
        corrupt = ColoringState(graph, state.coloring, state.color_count, frozenset(clique), state.order)
        expected: list[str] = []
        graph_replay_diagnose(corrupt, expected)
        assert diagnose_state(corrupt) == expected
        missed = sum(p.startswith("clique members") for p in expected)
        k = len(clique)
        assert missed == {"one": 1, "two": 2, "all": k * (k - 1) // 2}.get(kind, missed)

    @pytest.mark.parametrize("members", [{99}, {-1}, {0, 99}])
    def test_stray_clique_member_reported(self, members):
        """A held clique member that is no vertex is reported on its own,
        also when it is the only member of a 1-clique, where no pair names
        it. The three isolated vertices color with one color."""
        state = static_color(make_graph(3, []))
        assert state.color_count == 1
        corrupt = ColoringState(state.graph, state.coloring, 1, frozenset(members), state.order)
        expected: list[str] = []
        graph_replay_diagnose(corrupt, expected)
        assert diagnose_state(corrupt) == expected
        stray = [f"clique member {v} is not a vertex" for v in sorted(members) if v not in state.graph]
        assert [p for p in expected if p.startswith("clique member ")] == stray
        assert not verify_state(corrupt)

    def test_claimed_color_count_sizes_nothing(self):
        """A color count far above n is diagnosed in memory that follows n:
        the path 0-1-2 claims 10^12 colors and uses two."""
        state = static_color(make_graph(3, [(0, 1), (1, 2)]))
        k = 10**12
        corrupt = ColoringState(state.graph, state.coloring, k, state.clique, state.order)
        expected: list[str] = []
        graph_replay_diagnose(corrupt, expected)
        problems = diagnose_state(corrupt)
        assert problems == expected
        assert problems[0] == f"2 distinct colors used, color_count={k}"

    def test_no_graph_contraction(self, monkeypatch):
        topo = random_convex(30, 30, random.Random(1))
        state = static_color(build_conflict_graph(topo, all_unicast_messages(topo)).graph)

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_state built a contracted Graph")

        monkeypatch.setattr(Graph, "contract_pair", forbidden)
        assert len(state.order) > 20
        assert verify_state(state)

    def test_kept_structure_follows_a_swapped_order(self, fig6):
        """An order swapped in place after the state kept its structure is
        diagnosed as a fresh state holding it is: here its first record is
        replaced by an edge of the graph."""
        state = static_color(fig6)
        assert verify_state(state) and state._structure is not None
        u, v = next(fig6.edges())
        first = state.order[0]
        state.order = (ContractionRecord(u, v, first.z),) + state.order[1:]
        fresh = replace(state)
        assert diagnose_state(state) == diagnose_state(fresh)
        assert diagnose_state(state)[-1] == f"order record ({u},{v},{first.z}) contracts an edge"

    @pytest.mark.parametrize("seed", range(20))
    def test_kept_structure_follows_a_swapped_graph(self, seed):
        """A graph with another vertex tuple swapped in place, with the
        coloring restricted to it, is diagnosed as a fresh state holding it
        is. The dropped vertex is one no record names, so the order stays
        structurally valid while every later position shifts down by one."""
        rng = random.Random(seed)
        g = random_weakly_chordal(12, rng.randint(5, 30), rng)
        state = random_order_state(g, rng)
        named = {w for rec in state.order for w in (rec.x, rec.y)}
        spare = [w for w in g.vertices[:-1] if w not in named]
        if not spare:
            return
        assert verify_state(state)
        kept = state._structure
        w = rng.choice(spare)
        state.graph = g.induced_subgraph(set(g.vertices) - {w})
        state.coloring = {x: c for x, c in state.coloring.items() if x != w}
        expected = diagnose_state(replace(state))
        assert diagnose_state(state) == expected
        assert state._structure is not kept

    def test_replace_does_not_carry_the_structure(self, fig6):
        state = static_color(fig6)
        assert verify_state(state) and state._structure is not None
        copy = replace(state)
        assert copy._structure is None
        assert copy == state


class TestSolutionOrderSerialization:
    def test_roundtrip(self, fig6):
        st_ = static_color(fig6)
        d = state_to_dict(st_)
        assert d["order"] == [[r.x, r.y, r.z] for r in st_.order]
        back = state_from_dict(d)
        assert type(back.order) is tuple and back.order == st_.order

    def test_state_to_dict_schema(self, fig6):
        d = static_color(fig6).to_dict()
        assert set(d) == {"colors", "color_count", "clique", "order"}
