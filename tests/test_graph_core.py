"""Graph substrate: construction, derived graphs, contraction, interchange."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timcolor.generators import random_convex
from timcolor.graph import Graph, GraphError, from_dict, from_json, make_graph
from timcolor.tim import all_unicast_messages, build_conflict_graph

from conftest import fixture_graph


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return make_graph(n, chosen)


class TestMakeGraph:
    def test_p3(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.edge_count() == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_c4(self):
        g = cycle(4)
        assert g.edge_count() == 4
        assert all(g.degree(v) == 2 for v in g.vertices)

    @pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(0, 1), (1, 0)]])
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(GraphError):
            make_graph(3, edges)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="negative vertex count -1"):
            make_graph(-1, [])
        with pytest.raises(GraphError, match="negative vertex count -1"):
            from_dict({"n": -1, "edges": []})
        assert make_graph(0, []).n == 0


    @pytest.mark.parametrize("d, bad", [
        ({"n": 2.5, "edges": [[0, 1]]}, "vertex count must be an integer, not 2.5"),
        ({"n": True, "edges": []}, "vertex count must be an integer, not true"),
        ({"n": "3", "edges": []}, 'vertex count must be an integer, not "3"'),
        ({"n": 3, "edges": [[True, 2]]}, "edge endpoint must be an integer, not true"),
        ({"n": 3, "edges": [[1.0, 2]]}, "edge endpoint must be an integer, not 1.0"),
    ])
    def test_from_dict_takes_only_integers(self, d, bad):
        with pytest.raises(GraphError) as exc:
            from_dict(d)
        assert str(exc.value) == bad


class TestInsertDelete:
    def test_close_path_to_triangle(self):
        g = path(3).insert_edge(0, 2)
        assert edge_set(g) == edge_set(clique(3))

    def test_c4_plus_chord_is_diamond(self):
        g = cycle(4).insert_edge(0, 2)
        assert g.edge_count() == 5 and g.has_edge(0, 2)

    def test_fig6_plus_edge_is_fig7(self):
        g = fixture_graph("fig6.json")
        h = g.insert_edge(1, 4)  # (v2, v5)
        assert h.has_edge(1, 4) and h.edge_count() == g.edge_count() + 1

    def test_insert_existing_rejected(self):
        with pytest.raises(GraphError):
            path(3).insert_edge(0, 1)

    def test_delete_to_path(self):
        g = clique(3).delete_edge(0, 2)
        assert edge_set(g) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_c4_minus_edge_is_p4(self):
        g = cycle(4).delete_edge(0, 1)
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2]

    def test_delete_missing_rejected(self):
        with pytest.raises(GraphError):
            path(3).delete_edge(0, 2)

    def test_value_semantics(self):
        g = path(3)
        g.insert_edge(0, 2)
        assert not g.has_edge(0, 2)


class TestContraction:
    def test_merges_neighborhoods(self):
        g = path(4)  # 0-1-2-3; {0,3} nonadjacent
        h = g.contract_pair(0, 3, 4)
        assert h.has_edge(4, 1) and h.has_edge(4, 2)
        assert h.n == 3


class TestLineGraph:
    def test_p3_to_k2(self):
        lg = path(3).line_graph()
        assert lg.n == 2 and lg.edge_count() == 1

    def test_star_to_triangle(self):
        k13 = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        lg = k13.line_graph()
        assert edge_set(lg) == edge_set(clique(3))

    def test_p4_to_p3(self):
        lg = path(4).line_graph()
        assert lg.n == 3 and sorted(lg.degree(v) for v in lg.vertices) == [1, 1, 2]

    def test_edgeless(self):
        assert make_graph(4, []).line_graph().n == 0

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_counts(self, g):
        lg = g.line_graph()
        assert lg.n == g.edge_count()
        expected = sum(
            g.degree(v) * (g.degree(v) - 1) // 2 for v in g.vertices
        )
        assert lg.edge_count() == expected


class TestSquare:
    def test_p3_squared_is_triangle(self):
        assert edge_set(path(3).square()) == edge_set(clique(3))

    def test_clique_idempotent(self):
        assert edge_set(clique(5).square()) == edge_set(clique(5))

    def test_c5_squared_is_k5(self):
        assert edge_set(cycle(5).square()) == edge_set(clique(5))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_square_monotone(self, g):
        sq = g.square()
        assert edge_set(sq.square()) >= edge_set(sq)
        assert edge_set(sq) >= edge_set(g)


class TestComplement:
    def test_k3(self):
        assert clique(3).complement().edge_count() == 0

    def test_c5_self_complementary(self):
        co = cycle(5).complement()
        assert co.edge_count() == 5
        assert all(co.degree(v) == 2 for v in co.vertices)

    def test_p4_self_complementary(self):
        co = path(4).complement()
        assert sorted(co.degree(v) for v in co.vertices) == [1, 1, 2, 2]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert edge_set(g.complement().complement()) == edge_set(g)


class TestInducedSubgraph:
    def test_c5_three_consecutive(self):
        sub = cycle(5).induced_subgraph([0, 1, 2])
        assert sub.n == 3 and sub.edge_count() == 2

    def test_empty_selection(self):
        assert cycle(5).induced_subgraph([]).n == 0

    def test_c6_alternating_is_independent(self):
        sub = cycle(6).induced_subgraph([0, 2, 4])
        assert sub.n == 3 and sub.edge_count() == 0

    def test_full_selection_identity(self):
        g = fixture_graph("fig6.json")
        assert edge_set(g.induced_subgraph(list(g.vertices))) == edge_set(g)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            path(3).induced_subgraph([0, 7])


class TestInterchange:
    def test_roundtrip(self):
        g = fixture_graph("fig6.json")
        assert edge_set(from_json(g.to_json())) == edge_set(g)

    def test_edges_sorted(self):
        d = cycle(4).to_dict()
        assert d["edges"] == sorted([list(e) for e in d["edges"]])
        assert all(i < j for i, j in d["edges"])

    def test_labels_roundtrip(self):
        d = path(2).to_dict(labels={0: "a", 1: "b"})
        assert json.loads(json.dumps(d))["labels"] == {"0": "a", "1": "b"}

    def test_from_dict_ignores_extras(self):
        g = from_dict({"n": 2, "edges": [[0, 1]], "name": "x"})
        assert g.has_edge(0, 1)


# ---------------------------------------------------------------------------
# mask-native primitives against graphs rebuilt from edge lists
# ---------------------------------------------------------------------------

@st.composite
def labelled_graphs(draw, max_n=8):
    """Graphs with sparse ids."""
    ids = sorted(draw(st.sets(st.integers(0, 30), max_size=max_n)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(ids, edges)


def assert_same_graph(g, ref):
    assert g.vertices == ref.vertices
    assert g.adj_masks() == ref.adj_masks()
    assert list(g.edges()) == list(ref.edges())


def rebuilt_contraction(g, x, y, z):
    """contract_pair spelled out on edge lists."""
    merged = (set(g.neighbors(x)) | set(g.neighbors(y))) - {x, y}
    ids = [v for v in g.vertices if v not in (x, y)] + [z]
    edges = [e for e in g.edges() if x not in e and y not in e]
    edges += [(z, w) for w in sorted(merged)]
    return Graph(ids, edges)


def non_edges(g):
    ids = g.vertices
    return [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :] if not g.has_edge(u, v)]


def reference_induced_subgraph(g, keep):
    """``induced_subgraph`` as it was built before it walked set bits: each
    kept row tests every kept position, O(|C|^2)."""
    adj = g.adj_masks()
    at = sorted(g.pos(v) for v in set(keep))
    ids = tuple(g.id_at(p) for p in at)
    rows = [sum(1 << i for i, q in enumerate(at) if m >> q & 1) for m in (adj[p] for p in at)]
    return Graph._from_masks(ids, dict(zip(ids, range(len(ids)))), rows)


def reference_flip_error(g, u, v, insert):
    """The message of the ``GraphError`` flipping (u,v) raises, or None: an
    unknown vertex first, then a self-loop, then a present or absent edge.
    A deletion names no vertex or loop: every refusal reads absent."""
    if not insert:
        return None if g.has_edge(u, v) else f"edge ({u},{v}) absent"
    if u not in g or v not in g:
        return f"unknown vertex in ({u},{v})"
    if u == v:
        return f"self-loop at {u}"
    return f"edge ({u},{v}) already present" if g.has_edge(u, v) else None


class TestMaskNative:
    @given(labelled_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contract_fresh_id(self, g, data):
        """A z above every id, as the contraction loops hand them out."""
        pairs = non_edges(g)
        if not pairs:
            return
        x, y = data.draw(st.sampled_from(pairs))
        if data.draw(st.booleans()):
            x, y = y, x
        z = max(g.vertices) + 1 + data.draw(st.integers(0, 3))
        assert_same_graph(g.contract_pair(x, y, z), rebuilt_contraction(g, x, y, z))

    @given(labelled_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contract_reused_id_below_live_ids(self, g, data):
        # a deferred record that fires late in replay_repair keeps its
        # recorded id, which can sort below the live ids
        pairs = non_edges(g)
        free = [z for z in range(max(g.vertices, default=-1)) if z not in g]
        if not pairs or not free:
            return
        x, y = data.draw(st.sampled_from(pairs))
        z = data.draw(st.sampled_from(free))
        assert_same_graph(g.contract_pair(x, y, z), rebuilt_contraction(g, x, y, z))

    @given(labelled_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_insert_delete(self, g, data):
        edges = list(g.edges())
        pairs = non_edges(g)
        if pairs:
            u, v = data.draw(st.sampled_from(pairs))
            ref = Graph(g.vertices, edges + [(u, v)])
            assert_same_graph(g.insert_edge(v, u), ref)
        if edges:
            u, v = data.draw(st.sampled_from(edges))
            rest = [e for e in edges if e != (u, v)]
            ref = Graph(g.vertices, rest)
            assert_same_graph(g.delete_edge(v, u), ref)

    @given(labelled_graphs(max_n=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_subgraph_matches_reference(self, g, data):
        """The rows walked from their set bits are the rows the all-pairs
        construction builds, for any kept set, repeats included."""
        keep = data.draw(st.lists(st.sampled_from(g.vertices)) if g.vertices else st.just([]))
        assert_same_graph(g.induced_subgraph(keep), reference_induced_subgraph(g, keep))

    def test_induced_conflict_neighbourhoods_match_reference(self):
        """The common neighbourhoods the growth test induces, on a conflict
        graph of n = 59 whose rows span more than one machine word."""
        topo = random_convex(30, 30, random.Random(1))
        g = build_conflict_graph(topo, all_unicast_messages(topo)).graph
        for u, v in non_edges(g):
            common = set(g.neighbors(u)) & set(g.neighbors(v))
            assert_same_graph(g.induced_subgraph(common), reference_induced_subgraph(g, common))

    @given(labelled_graphs(), st.integers(-1, 31), st.integers(-1, 31))
    @settings(max_examples=200, deadline=None)
    def test_flip_errors_keep_their_precedence(self, g, u, v):
        """Each endpoint is looked up once, and the errors keep their order:
        unknown vertex, then self-loop, then present edge for an insertion,
        and absent for every refused deletion."""
        for insert, positions in ((True, g.insert_positions), (False, g.delete_positions)):
            want = reference_flip_error(g, u, v, insert)
            if want is None:
                assert positions(u, v) == (g.pos(u), g.pos(v))
            else:
                with pytest.raises(GraphError) as exc:
                    positions(u, v)
                assert str(exc.value) == want

    @given(labelled_graphs())
    @settings(max_examples=100, deadline=None)
    def test_complement(self, g):
        ref = Graph(g.vertices, non_edges(g))
        assert_same_graph(g.complement(), ref)
        assert_same_graph(g.complement().complement(), g)

    def test_contraction_chain_keeps_sorted_positions(self):
        g = Graph([2, 5, 9, 11], [(2, 5), (9, 11)])
        h = g.contract_pair(5, 11, 7)
        assert h.vertices == (2, 7, 9)
        assert [h.pos(v) for v in h.vertices] == [0, 1, 2]
        assert h.neighbors(7) == (2, 9)

    @pytest.mark.parametrize(
        "op, message",
        [
            (lambda g: g.contract_pair(0, 1, 3), r"cannot contract adjacent pair \(0,1\)"),
            (lambda g: g.contract_pair(0, 2, 3), r"contracted id 3 already live"),
            (lambda g: g.contract_pair(0, 7, 3), r"unknown vertex in \(0,7\)"),
            (lambda g: g.contract_pair(2, 2, 3), r"cannot contract 2 with itself"),
            (lambda g: g.insert_edge(0, 1), r"edge \(0,1\) already present"),
            (lambda g: g.insert_edge(0, 7), r"unknown vertex in \(0,7\)"),
            (lambda g: g.insert_edge(2, 2), r"self-loop at 2"),
            (lambda g: g.delete_edge(0, 2), r"edge \(0,2\) absent"),
            (lambda g: g.delete_edge(0, 7), r"edge \(0,7\) absent"),
            # an unknown vertex before a self-loop; a deletion reads both absent
            (lambda g: g.insert_edge(7, 7), r"unknown vertex in \(7,7\)"),
            (lambda g: g.delete_edge(7, 7), r"edge \(7,7\) absent"),
            (lambda g: g.delete_edge(2, 2), r"edge \(2,2\) absent"),
        ],
    )
    def test_errors_unchanged(self, op, message):
        with pytest.raises(GraphError, match=message):
            op(path(4))
