"""Recognition layer: holes, weak chordality, two-pairs, pattern scan."""

import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timcolor import recognition
from timcolor.graph import Graph, GraphError, make_graph
from timcolor.generators import random_chordal_bipartite, random_convex, random_weakly_chordal
from timcolor.oracles import brute_is_weakly_chordal, enumerate_chordless_cycles
from timcolor.patterns import (
    MAX_PATTERN_VERTICES,
    PatternError,
    PatternLibrary,
    load_pattern_library,
)
from timcolor.recognition import (
    OracleCapExceeded,
    _bfs_reach,
    _bits,
    _complement,
    _hole_through_edge,
    _hole_through_pair,
    _straddlers,
    PairRanking,
    bipartition,
    enumerate_two_pairs,
    find_two_pair,
    has_forbidden,
    is_chordal_bipartite,
    is_two_pair,
    is_weakly_chordal,
    scan_forbidden,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from timcolor.tim import all_unicast_messages, build_conflict_graph

from conftest import (
    fixture_graph,
    reference_candidate_pairs,
    reference_find_hole,
    reference_hole_through_triple,
    reference_is_weakly_chordal,
    reference_random_chordal_bipartite,
    reference_triples_centered,
    weakly_chordal_graphs,
)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def assert_ranking_matches(ranking, n, cur):
    """The ranking of an n-vertex graph against the quotient ``cur`` it stands for.

    Its masks stay n wide, and every live mask lies inside the live mask
    and gives the neighbours ``cur`` gives. complete() says whether ``cur``
    is a clique, and once the buckets are built they hold exactly the live
    non-adjacent pairs with a common neighbor, each at its count, with no
    non-empty bucket above the tracked top.
    """
    ids, adj, live = ranking._ids, ranking._adj, ranking._live
    assert len(adj) == n
    assert all(adj[s] & ~live == 0 for s in _bits(live))
    assert all(adj[s] == 0 for s in range(n) if not live >> s & 1)
    assert {ids[s]: {ids[t] for t in _bits(adj[s])} for s in _bits(live)} == {
        v: set(cur.neighbors(v)) for v in cur.vertices
    }
    assert ranking.complete() == (2 * cur.edge_count() == cur.n * (cur.n - 1))
    if ranking._buckets is not None:
        nbrs = {v: set(cur.neighbors(v)) for v in cur.vertices}
        expected = {}
        for a, b in itertools.combinations(cur.vertices, 2):
            count = len(nbrs[a] & nbrs[b])
            if count and b not in nbrs[a]:
                expected.setdefault(count, set()).add((a, b))
        assert {c: pairs for c, pairs in enumerate(ranking._buckets) if pairs} == expected
        assert not any(ranking._buckets[ranking._top + 1 :])


class TestFindHole:
    """The reference hole search on fixed cycles, and the verdicts of
    ``is_weakly_chordal`` on the same graphs."""

    def test_c5_is_its_own_hole(self):
        hole = reference_find_hole(cycle(5))
        assert hole is not None and len(hole) == 5
        assert sorted(hole) == [0, 1, 2, 3, 4]
        assert not is_weakly_chordal(cycle(5))

    def test_c4_has_none(self):
        assert reference_find_hole(cycle(4)) is None
        assert is_weakly_chordal(cycle(4))

    def test_c6_with_long_chord_keeps_residual_5_hole(self):
        # chord (0,3) splits C_6 into a C_4 and... use C_7 with chord (0,4):
        # residual cycles C_5 (0..4) and C_4 (4,5,6,0).
        g = cycle(7).insert_edge(0, 4)
        hole = reference_find_hole(g)
        assert hole is not None and len(hole) == 5
        assert sorted(hole) == [0, 1, 2, 3, 4]
        assert not is_weakly_chordal(g)

    def test_returned_cycle_is_chordless(self):
        rng = random.Random(3)
        holes = 0
        for _ in range(30):
            g = random_weakly_chordal(9, rng.randint(4, 18), rng)
            # salt with a possible hole by toggling an edge arbitrarily
            u, v = rng.sample(g.vertices, 2)
            g = g.delete_edge(u, v) if g.has_edge(u, v) else g.insert_edge(u, v)
            hole = reference_find_hole(g)
            assert is_weakly_chordal(g) == reference_is_weakly_chordal(g)
            if hole is None:
                continue
            holes += 1
            for i in range(len(hole)):
                for j in range(i + 2, len(hole)):
                    if i == 0 and j == len(hole) - 1:
                        continue
                    assert not g.has_edge(hole[i], hole[j])
        assert holes > 0


class TestWeaklyChordal:
    def test_c5_false(self):
        assert not is_weakly_chordal(cycle(5))

    def test_c4_true(self):
        assert is_weakly_chordal(cycle(4))

    def test_antihole_detected(self):
        assert not is_weakly_chordal(cycle(7).complement())

    def test_conflict_graphs_weakly_chordal(self):
        rng = random.Random(5)
        for _ in range(20):
            topo = random_chordal_bipartite(
                rng.randint(3, 6), rng.randint(3, 6), rng.uniform(0.3, 0.7), rng
            )
            cg = topo.bipartite_graph().line_graph().square()
            assert is_weakly_chordal(cg)

    @given(st.integers(min_value=0, max_value=400), st.integers(6, 10))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_bruteforce(self, seed, n):
        rng = random.Random(seed)
        g = random_weakly_chordal(n, rng.randint(0, 2 * n), rng)
        # perturb once without the safety check to also produce negatives
        non_edges = [
            (u, v)
            for u in g.vertices
            for v in g.vertices
            if u < v and not g.has_edge(u, v)
        ]
        if non_edges:
            g = g.insert_edge(*rng.choice(non_edges))
        assert is_weakly_chordal(g) == brute_is_weakly_chordal(g)

    def test_incremental_matches_scratch(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_weakly_chordal(8, rng.randint(3, 14), rng)
            non_edges = [
                (u, v)
                for u in g.vertices
                for v in g.vertices
                if u < v and not g.has_edge(u, v)
            ]
            if non_edges:
                u, v = rng.choice(non_edges)
                assert stays_weakly_chordal_after_insert(g, u, v) == (
                    reference_is_weakly_chordal(g.insert_edge(u, v))
                )
            edges = list(g.edges())
            if edges:
                u, v = rng.choice(edges)
                assert stays_weakly_chordal_after_delete(g, u, v) == (
                    reference_is_weakly_chordal(g.delete_edge(u, v))
                )


@st.composite
def recognition_graphs(draw):
    """A G(n, p) sample with 4 to 16 vertices (many hold a hole or an
    antihole), or the conflict graph of a convex network or of a dense
    chordal-bipartite one with up to 84 vertices; with one pair flipped or
    not (so large negatives occur too), and complemented or not."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    source = draw(st.sampled_from(["gnp", "convex", "dense"]))
    if source == "gnp":
        n, p = rng.randint(4, 16), rng.uniform(0.1, 0.9)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    else:
        if source == "convex":
            topo = random_convex(rng.randint(3, 28), rng.randint(3, 28), rng)
        else:
            size = rng.randint(3, 13)
            topo = random_chordal_bipartite(size, size, rng.uniform(0.3, 0.5), rng)
        g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
        if g.n > 1 and draw(st.booleans()):
            u, v = rng.sample(g.vertices, 2)
            g = g.delete_edge(u, v) if g.has_edge(u, v) else g.insert_edge(u, v)
    return g.complement() if draw(st.booleans()) else g


@st.composite
def bipartite_graphs(draw):
    """A random bipartite graph on parts of 1 to 8 vertices, with its parts."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    m, n, p = rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.2, 0.9)
    g = make_graph(m + n, [(i, m + j) for i in range(m) for j in range(n) if rng.random() < p])
    return g, (set(range(m)), set(range(m, m + n)))


class TestEdgeSearchRecognition:
    """Whole-graph recognition by the edge search, against the triple-centred
    reference."""

    @given(recognition_graphs())
    @settings(max_examples=60, deadline=None)
    def test_weakly_chordal_matches_reference(self, g):
        assert is_weakly_chordal(g) == reference_is_weakly_chordal(g)

    def test_gnp_samples_hold_negatives(self):
        rng, negatives = random.Random(7), 0
        for _ in range(200):
            n, p = rng.randint(4, 16), rng.uniform(0.1, 0.9)
            g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            verdict = is_weakly_chordal(g)
            assert verdict == reference_is_weakly_chordal(g)
            negatives += not verdict
        assert negatives > 50

    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_chordal_bipartite_matches_reference(self, sample):
        g, parts = sample
        expected = reference_find_hole(g) is None
        assert is_chordal_bipartite(g) == expected
        assert is_chordal_bipartite(g, parts) == expected

    @given(recognition_graphs())
    @settings(max_examples=30, deadline=None)
    def test_chordal_bipartite_on_any_graph(self, g):
        expected = bipartition(g) is not None and reference_find_hole(g) is None
        assert is_chordal_bipartite(g) == expected


class TestChordalBipartiteGenerator:
    """``random_chordal_bipartite`` against the generator that checked the
    whole graph per candidate: same topology, same rng state after."""

    def check(self, m, n, density, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_chordal_bipartite(m, n, density, rng)
        assert got == reference_random_chordal_bipartite(m, n, density, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert is_chordal_bipartite(got.bipartite_graph(), got.parts())

    @pytest.mark.parametrize("seed", range(1, 17))
    def test_edge_churn_networks(self, seed):
        self.check(10, 10, 0.5, seed)

    @given(st.integers(1, 9), st.integers(1, 9), st.floats(0, 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, m, n, density, seed):
        self.check(m, n, density, seed)


def reference_hole_through_vertex(g, v):
    adj = g.adj_masks()
    pb = g.pos(v)
    for pa, pc in reference_triples_centered(adj, pb):
        cycle = reference_hole_through_triple(g, adj, pa, pb, pc)
        if cycle is not None:
            return cycle
    return None


def reference_hole_through_edge(g, u, v):
    adj = g.adj_masks()
    for b, a in ((u, v), (v, u)):
        pb, pa = g.pos(b), g.pos(a)
        m = adj[pb] & ~adj[pa] & ~(1 << pa)
        while m:
            low = m & -m
            pc = low.bit_length() - 1
            cycle = reference_hole_through_triple(g, adj, pa, pb, pc)
            if cycle is not None:
                return cycle
            m ^= low
    return None


def reference_after_insert(g, u, v):
    """Admission of an insertion by whole-graph copies: the reference."""
    h = g.insert_edge(u, v)
    if reference_hole_through_edge(h, u, v) is not None:
        return False
    return reference_hole_through_vertex(h.complement(), u) is None


def reference_after_delete(g, u, v):
    """Admission of a deletion by whole-graph copies: the reference."""
    h = g.delete_edge(u, v)
    if reference_hole_through_vertex(h, u) is not None:
        return False
    return reference_hole_through_edge(h.complement(), u, v) is None


ADMISSION = {
    "insert": (stays_weakly_chordal_after_insert, reference_after_insert),
    "delete": (stays_weakly_chordal_after_delete, reference_after_delete),
}


@st.composite
def admission_graphs(draw):
    """A weakly chordal graph: a convex conflict graph, a grown one with 6 to 40
    vertices whose ids are not always contiguous, or a small G(n, p) sample."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    source = draw(st.sampled_from(["convex", "grown", "gnp"]))
    if source == "convex":
        topo = random_convex(rng.randint(3, 12), rng.randint(3, 12), rng)
        return build_conflict_graph(topo, all_unicast_messages(topo)).graph
    if source == "grown":
        n = rng.randint(6, 40)
        g = random_weakly_chordal(n, rng.randint(0, 3 * n), rng)
        if rng.random() < 0.5:
            g = g.induced_subgraph(rng.sample(g.vertices, n - rng.randint(0, n // 3)))
        return g
    n, p = rng.randint(6, 10), rng.uniform(0.2, 0.8)
    while True:  # dense samples hold antiholes, sparse ones holes
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if is_weakly_chordal(g):
            return g


class TestAdmission:
    """The scoped admission checks against whole-graph searches."""

    @given(admission_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, g):
        ids = g.vertices
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                if g.has_edge(u, v):
                    (check, ref), after = ADMISSION["delete"], g.delete_edge(u, v)
                else:
                    (check, ref), after = ADMISSION["insert"], g.insert_edge(u, v)
                got = check(g, u, v)
                assert got == ref(g, u, v), (u, v)
                if g.n <= 20:
                    assert got == is_weakly_chordal(after), (u, v)

    @pytest.mark.parametrize(
        "g, kind, u, v",
        [
            (path(6), "insert", 0, 5),  # closes the hole C6
            (cycle(7).complement().insert_edge(0, 6), "delete", 0, 6),  # opens the antihole of C7
            (cycle(6).insert_edge(0, 3), "delete", 0, 3),  # reopens the hole C6
            (cycle(5).insert_edge(0, 3), "delete", 0, 3),  # reopens the hole C5
            (cycle(6).insert_edge(0, 3).complement(), "insert", 0, 3),  # closes the antihole of C6
        ],
    )
    def test_rejections(self, g, kind, u, v):
        check, ref = ADMISSION[kind]
        assert is_weakly_chordal(g)
        assert check(g, u, v) is False and ref(g, u, v) is False

    @pytest.mark.parametrize(
        "kind, u, v, message",
        [
            ("insert", 0, 1, "edge (0,1) already present"),
            ("insert", 0, 9, "unknown vertex in (0,9)"),
            ("insert", 2, 2, "self-loop at 2"),
            ("delete", 0, 2, "edge (0,2) absent"),
            ("delete", 0, 9, "edge (0,9) absent"),
            ("delete", 2, 2, "edge (2,2) absent"),
        ],
    )
    def test_errors_match_reference(self, kind, u, v, message):
        for fn in ADMISSION[kind]:
            with pytest.raises(GraphError, match=re.escape(message)):
                fn(path(5), u, v)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_helpers_against_cycle_enumeration(self, seed):
        """The two hole searches on arbitrary small graphs.

        A hole through an edge is found exactly. A hole through two
        non-adjacent vertices is always found, and what is found is a hole
        through one of them.
        """
        rng = random.Random(seed)
        n, p = rng.randint(5, 8), rng.uniform(0.2, 0.8)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        holes = enumerate_chordless_cycles(g, min_len=5)
        adj = g.adj_masks()
        for u in range(n):
            for v in range(u + 1, n):
                both = any({u, v} <= hole for hole in holes)
                if g.has_edge(u, v):
                    assert _hole_through_edge(adj, u, v) == both, (u, v)
                    continue
                found = _hole_through_pair(adj, u, v)
                assert found or not both, (u, v)
                assert not found or any(u in hole or v in hole for hole in holes), (u, v)

    @given(weakly_chordal_graphs())
    @settings(max_examples=40, deadline=None)
    def test_complement_masks(self, g):
        assert _complement(g.adj_masks()) == g.complement().adj_masks()

    def test_builds_no_graph(self, monkeypatch):
        g = random_weakly_chordal(20, 40, random.Random(4))

        def refuse(*args, **kwargs):
            raise AssertionError("admission built a Graph")

        monkeypatch.setattr(Graph, "__init__", refuse)
        monkeypatch.setattr(Graph, "_from_masks", refuse)
        for u, v in itertools.combinations(g.vertices, 2):
            ADMISSION["delete" if g.has_edge(u, v) else "insert"][0](g, u, v)


def unfiltered_hole_through_edge(adj, pu, pv):
    """``_hole_through_edge`` without the private-neighbour filter: the reference.

    Returns the verdict, the pairs (a, c) it ran a BFS on, in order, and R.
    """
    pb, pa = pu, pv
    if (adj[pu] & ~adj[pv]).bit_count() > (adj[pv] & ~adj[pu]).bit_count():
        pb, pa = pv, pu
    na = adj[pa]
    outside = (1 << len(adj)) - 1 & ~adj[pb] & ~(1 << pb)
    region = _bfs_reach(adj, pa, outside | 1 << pa) & ~(1 << pa)
    touching = 0
    for p in _bits(region):
        touching |= adj[p]
    tried = []
    for pc in _bits(adj[pb] & ~na & ~(1 << pa) & touching):
        tried.append((pa, pc))
        allowed = region & ~(na & adj[pc]) | 1 << pa | 1 << pc
        if _bfs_reach(adj, pa, allowed) >> pc & 1:
            return True, tried, region
    return False, tried, region


def unfiltered_hole_through_pair(adj, pu, pv):
    """``_hole_through_pair`` without the K-signature filter: the reference.

    Returns the verdict, the pairs (a, c) it ran a BFS on, in order, and K.
    """
    pb, po = (pu, pv) if adj[pu].bit_count() <= adj[pv].bit_count() else (pv, pu)
    outside = (1 << len(adj)) - 1 & ~adj[pb] & ~(1 << pb)
    component = _bfs_reach(adj, po, outside)
    touching = 0
    for p in _bits(component):
        touching |= adj[p]
    ends = adj[pb] & touching
    tried = []
    for pa in _bits(ends):
        na = adj[pa]
        partners = ends & ~na & ~((2 << pa) - 1)
        if na >> po & 1:
            partners &= ~adj[po]
        for pc in _bits(partners):
            tried.append((pa, pc))
            allowed = component & ~(na & adj[pc]) | 1 << pa | 1 << pc
            if _bfs_reach(adj, pa, allowed) >> pc & 1:
                return True, tried, component
    return False, tried, component


@st.composite
def hole_search_masks(draw):
    """Adjacency masks of a convex conflict graph or a grown weakly chordal
    graph with 15 to 60 vertices, with one pair flipped or not, and
    complemented or not, plus a sample of its non-adjacent position pairs
    and one of its edges."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        topo = random_convex(rng.randint(8, 24), rng.randint(6, 16), rng)
        g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
    else:
        n = rng.randint(15, 60)
        g = random_weakly_chordal(n, rng.randint(n, 4 * n), rng)
    adj = g.adj_masks()
    if g.n > 1 and draw(st.booleans()):
        p, q = rng.sample(range(g.n), 2)
        adj[p] ^= 1 << q
        adj[q] ^= 1 << p
    if draw(st.booleans()):
        adj = _complement(adj)
    pairs, edges = [], []
    for p, q in itertools.combinations(range(len(adj)), 2):
        (edges if adj[p] >> q & 1 else pairs).append((p, q))
    return adj, rng.sample(pairs, min(len(pairs), 120)), rng.sample(edges, min(len(edges), 120))


FILTERED = {"pair": (_hole_through_pair, unfiltered_hole_through_pair),
            "edge": (_hole_through_edge, unfiltered_hole_through_edge)}


def check_against_unfiltered(kind, adj, pairs):
    """Assert that the filtered search gives the reference's verdict on each
    pair and runs a BFS on exactly the reference's pairs (a, c) where each
    of a and c has a neighbour in the searched part (K or R) that the other
    does not see, up to the first path found. Returns how many reference
    pairs had such a private neighbour on one side only."""
    search, reference = FILTERED[kind]
    calls = []

    def counted(adj_, start, allowed):
        calls.append((start, allowed))
        return _bfs_reach(adj_, start, allowed)

    one_sided = 0
    for pu, pv in pairs:
        expected, tried, inside = reference(adj, pu, pv)
        private = [(adj[a] & inside & ~adj[c], adj[c] & inside & ~adj[a]) for a, c in tried]
        one_sided += sum(bool(x) != bool(y) for x, y in private)
        kept = [pair for pair, (x, y) in zip(tried, private) if x and y]
        calls.clear()
        with mock.patch.object(recognition, "_bfs_reach", counted):
            assert search(adj, pu, pv) == expected, (pu, pv)
        # calls[0] finds K or R; a later BFS runs from a inside it, plus a and c
        searched = [(a, (allowed & ~inside & ~(1 << a)).bit_length() - 1)
                    for a, allowed in calls[1:]]
        assert searched == kept, (pu, pv)
    return one_sided


class TestPrivateNeighbourFilter:
    """The filtered hole searches against the searches without the filter."""

    @given(hole_search_masks())
    @settings(max_examples=40, deadline=None)
    def test_matches_unfiltered_search(self, sample):
        adj, pairs, edges = sample
        check_against_unfiltered("pair", adj, pairs)
        check_against_unfiltered("edge", adj, edges)

    @pytest.mark.parametrize("kind", ["pair", "edge"])
    def test_skips_one_sided_pairs(self, kind):
        """On convex conflict graphs and their complements, some pairs have a
        private neighbour on one side only; they get no BFS."""
        one_sided = 0
        for seed in range(4):
            topo = random_convex(20, 14, random.Random(seed))
            adj = build_conflict_graph(topo, all_unicast_messages(topo)).graph.adj_masks()
            for masks in (adj, _complement(adj)):
                pairs = [
                    (p, q) for p, q in itertools.combinations(range(len(masks)), 2)
                    if bool(masks[p] >> q & 1) == (kind == "edge")
                ]
                one_sided += check_against_unfiltered(kind, masks, pairs[::7])
        assert one_sided > 0


def k_pass_straddlers(adj, nbrs, component):
    """``_straddlers`` by one pass over the component K, as
    ``_hole_through_pair`` once built it: the reference."""
    some, every = 0, nbrs
    for p in _bits(component):
        some |= adj[p]
        every &= adj[p]
    return nbrs & some & ~every


def straddler_cases(adj):
    """(N(b), K) for every ordered non-adjacent pair (b, o) of positions,
    K the component of o in H - N[b], as ``_hole_through_pair`` takes them."""
    full = (1 << len(adj)) - 1
    for pb, po in itertools.permutations(range(len(adj)), 2):
        if not adj[pb] >> po & 1:
            yield adj[pb], _bfs_reach(adj, po, full & ~adj[pb] & ~(1 << pb))


class TestStraddlers:
    """The neighbours of b that see part of K but not all of it, by a pass
    over the smaller of N(b) and K, against the pass over K."""

    @given(weakly_chordal_graphs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_k_pass(self, g, complemented):
        adj = g.adj_masks()
        if complemented:
            adj = _complement(adj)
        for nbrs, k in straddler_cases(adj):
            assert _straddlers(adj, nbrs, k) == k_pass_straddlers(adj, nbrs, k)

    def test_both_passes_on_conflict_graphs(self):
        """On convex conflict graphs and their complements both passes run,
        and each gives the K pass's set."""
        passes = set()
        for seed in range(3):
            topo = random_convex(16, 12, random.Random(seed))
            adj = build_conflict_graph(topo, all_unicast_messages(topo)).graph.adj_masks()
            for masks in (adj, _complement(adj)):
                for nbrs, k in straddler_cases(masks):
                    passes.add(k.bit_count() <= nbrs.bit_count())
                    assert _straddlers(masks, nbrs, k) == k_pass_straddlers(masks, nbrs, k)
        assert passes == {True, False}


class TestChordalBipartite:
    def test_c4(self):
        assert is_chordal_bipartite(cycle(4), ({0, 2}, {1, 3}))

    def test_c6(self):
        assert not is_chordal_bipartite(cycle(6), ({0, 2, 4}, {1, 3, 5}))

    def test_c6_with_splitting_chord(self):
        g = cycle(6).insert_edge(0, 3)
        assert is_chordal_bipartite(g, ({0, 2, 4}, {1, 3, 5}))

    def test_rejects_non_bipartition(self):
        with pytest.raises(ValueError):
            is_chordal_bipartite(cycle(4), ({0, 1}, {2, 3}))

    def test_infers_partition(self):
        assert is_chordal_bipartite(cycle(4))
        assert not is_chordal_bipartite(cycle(6))


class TestTwoPairs:
    def test_c4(self):
        tp = find_two_pair(cycle(4))
        assert tp is not None and frozenset(tp) in (
            frozenset({0, 2}),
            frozenset({1, 3}),
        )

    def test_k4_none(self):
        assert find_two_pair(clique(4)) is None

    def test_p4_never_endpoints(self):
        tp = find_two_pair(path(4))
        assert tp is not None and frozenset(tp) != frozenset({0, 3})
        assert not is_two_pair(path(4), 0, 3)

    def test_enumerate_c4(self):
        pairs = {frozenset(p) for p in enumerate_two_pairs(cycle(4))}
        assert pairs == {frozenset({0, 2}), frozenset({1, 3})}

    def test_enumerate_clique_empty(self):
        assert enumerate_two_pairs(clique(5)) == []

    def test_fig6_contains_paper_pairs(self, fig6):
        pairs = {frozenset(p) for p in enumerate_two_pairs(fig6)}
        # (v2,v5), (v1,v4), (v3,v6) in 0-indexed vertex ids
        assert {frozenset({1, 4}), frozenset({0, 3}), frozenset({2, 5})} <= pairs

    def test_cap_enforced(self):
        with pytest.raises(OracleCapExceeded):
            enumerate_two_pairs(make_graph(15, []))

    def test_hayward_property(self):
        # every weakly chordal non-complete graph has a two-pair
        rng = random.Random(17)
        for n in range(2, 13):
            for _ in range(12):
                g = random_weakly_chordal(n, rng.randint(0, n * 2), rng)
                complete = g.edge_count() == n * (n - 1) // 2
                if complete:
                    assert find_two_pair(g) is None
                else:
                    tp = find_two_pair(g)
                    assert tp is not None
                    assert is_two_pair(g, *tp)

    def test_find_agrees_with_enumeration(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_weakly_chordal(rng.randint(3, 10), rng.randint(2, 16), rng)
            tp = find_two_pair(g)
            pairs = {frozenset(p) for p in enumerate_two_pairs(g)}
            if tp is None:
                assert not pairs
            else:
                assert frozenset(tp) in pairs

    @given(weakly_chordal_graphs(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_candidate_pairs_match_reference(self, g, seed):
        """Every pop_pair of one ranking under contraction is the first
        two-pair of the reference ranking of the contracted graph. Before
        each pop, the first one included, random two-pairs may fire as the
        strict replay fires records. Every contraction takes a fresh id
        drawn at random, below earlier ones and in the gaps of g's ids too,
        so slot order and id order differ. After every contraction the
        ranking matches the contracted graph (``assert_ranking_matches``)."""
        rng = random.Random(seed)
        ranking, cur = PairRanking(g), g
        fresh = [v for v in range(g.next_id + 2 * g.n) if v not in g]

        def contract(x, y):
            nonlocal cur
            z = fresh.pop(rng.randrange(len(fresh)))
            cur, _ = cur.contract_pair(x, y, z)
            ranking.contract(x, y, z)
            assert_ranking_matches(ranking, g.n, cur)

        while True:
            while rng.random() < 0.5:
                two_pairs = [(x, y) for x, y, two in reference_candidate_pairs(cur) if two]
                if not two_pairs:
                    break
                x, y = rng.choice(two_pairs)
                assert ranking.joinable(x, y)
                contract(x, y)
            ranked = reference_candidate_pairs(cur)
            pair = ranking.pop_pair()
            assert pair == next(((x, y) for x, y, two in ranked if two), None)
            if pair is None:
                break
            contract(*pair)
        first = next(((x, y) for x, y, two in reference_candidate_pairs(g) if two), None)
        tp = find_two_pair(g)
        assert (tp.x, tp.y) == first if tp else first is None

    def test_count0_tail_matches_min_scan(self):
        """The count-0 tail's two ids, read off the slots that still hold
        their vertex of g, are those of the ``min`` scan over every live id:
        the smallest live id a and the smallest id outside a's component.
        The graphs are two disjoint copies of a weakly chordal graph on odd
        ids, and every record takes a z below g's ids, negative or in an
        even gap, so contracted ids undercut base ids. Random two-pairs fire
        between pops, as the strict replay fires records. ``_least`` is
        checked against the scan on random live masks after every step."""
        rng = random.Random(7)
        tail_pops = 0
        for _ in range(300):
            base = random_weakly_chordal(rng.randint(1, 9), rng.randint(0, 14), rng)
            shift = 2 * base.next_id + 1
            ids = [2 * v + 1 for v in base.vertices] + [2 * v + shift for v in base.vertices]
            edges = [(2 * u + 1, 2 * v + 1) for u, v in base.edges()]
            edges += [(2 * u + shift, 2 * v + shift) for u, v in base.edges()]
            cur = Graph(ids, edges)
            fresh = [-1 - i for i in range(cur.n)] + [z for z in range(0, 2 * shift, 2) if z not in cur]
            ranking = PairRanking(cur)
            while True:
                live = ranking._live
                for mask in (live, *(live & rng.getrandbits(cur.n + len(ids)) for _ in range(3))):
                    if mask:
                        assert ranking._least(mask) == min(ranking._ids[s] for s in _bits(mask))
                pairs = [(x, y) for x, y, two in reference_candidate_pairs(cur) if two]
                if pairs and rng.random() < 0.3:
                    pair = rng.choice(pairs)
                else:
                    pair = ranking.pop_pair()
                    if pair is None:
                        assert not pairs
                        break
                    if not set(cur.neighbors(pair[0])) & set(cur.neighbors(pair[1])):
                        a = min(cur.vertices)
                        reach = _bfs_reach(cur.adj_masks(), cur.pos(a), (1 << cur.n) - 1)
                        b = min(v for p, v in enumerate(cur.vertices) if not reach >> p & 1)
                        assert pair == (a, b)
                        tail_pops += 1
                z = fresh.pop(rng.randrange(len(fresh)))
                ranking.contract(*pair, z)
                cur, _ = cur.contract_pair(*pair, z)
        assert tail_pops > 300

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (3, 5)], (2, 5)),
            (7, [(0, 2), (0, 5), (1, 3), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5)], (0, 4)),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], (0, 5)),
            (6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], (0, 1)),
        ],
    )
    def test_pop_pair_on_quotients_with_holes(self, n, edges, expected):
        """On graphs with holes a pair ranked first need not be a two-pair:
        the first two-pair in rank order wins, past the non-two-pairs ranked
        above it, (0, 3) in the first graph and (0, 1) and (0, 3) in the
        second. In the last two, a C5 and an isolated vertex, every pair
        with a common neighbor lies on the hole, so the count-0 tail
        answers: the smallest id and the smallest id outside its
        component."""
        g = make_graph(n, edges)
        ranked = reference_candidate_pairs(g)
        assert next(((x, y) for x, y, two in ranked if two), None) == expected
        assert PairRanking(g).pop_pair() == expected

    @pytest.mark.parametrize("pop_first", [False, True])
    @pytest.mark.parametrize("x, y, z", [(0, 1, 9), (0, 2, 3), (0, 7, 9), (2, 2, 9), (0, 0, 9)])
    def test_contract_rejects_what_contract_pair_rejects(self, x, y, z, pop_first):
        """Same GraphError and message as Graph.contract_pair, before and
        after the first pop."""
        with pytest.raises(GraphError) as expected:
            path(4).contract_pair(x, y, z)
        ranking = PairRanking(path(4))
        if pop_first:
            ranking.pop_pair()
        with pytest.raises(GraphError, match=re.escape(str(expected.value))):
            ranking.contract(x, y, z)

    @pytest.mark.parametrize("pop_first", [False, True])
    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, [(0, 1)]), (2, [])])
    def test_tiny_graphs(self, n, edges, pop_first):
        """On 0, 1 and 2 vertices the ranking pops the one non-adjacent
        pair, if any, before or after a first pop built the buckets, and
        nothing once that pair is contracted."""
        g = make_graph(n, edges)
        ranking = PairRanking(g)
        pair = (0, 1) if n == 2 and not edges else None
        if pop_first:
            assert ranking.pop_pair() == pair
        assert_ranking_matches(ranking, n, g)
        if pair:
            ranking.contract(*pair, 5)
            g = g.contract_pair(*pair, 5)[0]
            assert_ranking_matches(ranking, n, g)
        assert ranking.pop_pair() is None
        assert_ranking_matches(ranking, n, g)

    @pytest.mark.parametrize("pop_first", [False, True])
    @pytest.mark.parametrize(
        "edges, x, y, kept",
        [
            # y has more neighbours: z takes y's slot
            ([(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 0, 1, 1),
            ([(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 1, 0, 1),
            # a degree tie: z takes x's slot
            ([(0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5)], 0, 1, 0),
            ([(0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5)], 1, 0, 1),
        ],
    )
    def test_contract_keeps_larger_parents_slot(self, edges, x, y, kept, pop_first):
        """z takes the slot of its parent with more neighbours, x on a tie,
        and the ranking still matches the contracted graph."""
        g = make_graph(6, edges)
        ranking = PairRanking(g)
        if pop_first:
            ranking.pop_pair()
        ranking.contract(x, y, 9)
        assert ranking._slot[9] == g.pos(kept)
        assert_ranking_matches(ranking, g.n, g.contract_pair(x, y, 9)[0])


class TestPatternLibrary:
    def test_bundled_library_shape(self):
        lib = load_pattern_library()
        assert len(lib) == 7
        assert all(g.n <= MAX_PATTERN_VERTICES for _, g in lib)
        assert len(set(lib.names)) == 7

    def test_patterns_are_weakly_chordal(self):
        # each forbidden pattern is itself weakly chordal: the scan adds
        # information beyond the hole/antihole check
        for _, g in load_pattern_library():
            assert is_weakly_chordal(g)

    def test_k23_adjacency(self):
        k23 = load_pattern_library().get("K23")
        assert k23.n == 5 and k23.edge_count() == 6
        degs = sorted(k23.degree(v) for v in k23.vertices)
        assert degs == [2, 2, 2, 3, 3]

    def test_rejects_oversized(self):
        with pytest.raises(PatternError):
            PatternLibrary.from_json(
                '[{"name": "big", "n": 9, "edges": []}]'
            )

    def test_rejects_duplicates(self):
        with pytest.raises(PatternError):
            PatternLibrary.from_json(
                '[{"name": "a", "n": 2, "edges": []},'
                ' {"name": "a", "n": 2, "edges": []}]'
            )

    @pytest.mark.parametrize("text, message", [
        ('[1]', "pattern entry 0 must be an object, not 1"),
        ('[{"name": "a", "n": 2, "edges": []}, ["b"]]', 'pattern entry 1 must be an object, not ["b"]'),
        ('[{"name": "a", "n": 2}]', "pattern 'a' has no 'edges' field"),
        ('[{"name": "a", "edges": []}]', "pattern 'a' has no 'n' field"),
    ])
    def test_rejects_malformed_entries(self, text, message):
        """An entry that is no object, or lacks a graph field, is named."""
        with pytest.raises(PatternError, match=f"^{re.escape(message)}$"):
            PatternLibrary.from_json(text)


class TestScanForbidden:
    def test_identity_embedding(self):
        lib = load_pattern_library()
        k23 = lib.get("K23")
        found = scan_forbidden(k23, [("K23", k23)])
        assert len(found) == 1
        name, image = found[0]
        assert name == "K23" and frozenset(image) == frozenset(k23.vertices)

    def test_c4_clean(self):
        assert scan_forbidden(cycle(4), load_pattern_library()) == []
        assert not has_forbidden(cycle(4), load_pattern_library())

    def test_embedding_is_induced(self):
        lib = load_pattern_library()
        g = path(6).complement()  # equals the coP6 pattern plus nothing
        found = scan_forbidden(g, lib)
        assert any(name == "coP6" for name, _ in found)

    def test_conflict_graphs_clean(self):
        from timcolor.generators import random_convex

        rng = random.Random(29)
        lib = load_pattern_library()
        done = 0
        while done < 25:
            topo = random_convex(rng.randint(3, 7), rng.randint(3, 10), rng)
            try:
                cg = build_conflict_graph(topo, all_unicast_messages(topo))
            except Exception:
                continue
            done += 1
            assert scan_forbidden(cg.graph, lib) == []
