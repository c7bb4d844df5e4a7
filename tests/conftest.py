import itertools
import json
import random
from importlib import resources

import pytest
from hypothesis import strategies as st

from timcolor.generators import random_bipartite_tree, random_weakly_chordal
from timcolor.graph import Graph, from_dict
from timcolor.recognition import (
    PairRanking,
    is_two_pair,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from timcolor.harness import PerturbationEvent
from timcolor.static_coloring import ColoringState, ContractionRecord, fresh_id, lift
from timcolor.tim import TopologyGraph


def load_fixture(name: str) -> dict:
    text = resources.files("timcolor.fixtures").joinpath(name).read_text("utf-8")
    return json.loads(text)


def fixture_graph(name: str) -> Graph:
    return from_dict(load_fixture(name))


@st.composite
def weakly_chordal_graphs(draw):
    """A random weakly chordal graph; some lose vertices, so ids are not contiguous."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = rng.randint(1, 16)
    g = random_weakly_chordal(n, rng.randint(0, 3 * n), rng)
    if draw(st.booleans()):
        g = g.induced_subgraph(rng.sample(g.vertices, n - rng.randint(0, n // 2)))
    return g


# The triple-centred hole search that ``is_weakly_chordal`` and
# ``is_chordal_bipartite`` once ran, and the generator built on it: the
# references the edge-search recognition is compared against.

def reference_shortest_path(adj, src, dst, allowed):
    """Shortest src->dst path (positions) within allowed; None if unreachable."""
    if src == dst:
        return [src]
    parent = {src: -1}
    frontier = [src]
    seen = 1 << src
    while frontier:
        nxt = []
        for p in frontier:
            m = adj[p] & allowed & ~seen
            while m:
                low = m & -m
                q = low.bit_length() - 1
                parent[q] = p
                if q == dst:
                    path = [q]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                seen |= low
                nxt.append(q)
                m ^= low
        frontier = nxt
    return None


def is_chordless_cycle(g, cycle):
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cycle[i], cycle[j])
            consecutive = (j - i == 1) or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def reference_hole_through_triple(g, adj, pa, pb, pc):
    """A hole whose consecutive vertices include a-b-c (positions), if any.

    Works by finding a shortest a..c path that avoids N[b] and the common
    neighborhood of a and c; any such path is chordless, has >= 3 edges, and
    closes into a chordless cycle of length >= 5 through b.
    """
    full = (1 << g.n) - 1
    blocked = adj[pb] | (1 << pb) | (adj[pa] & adj[pc])
    allowed = full & ~blocked | (1 << pa) | (1 << pc)
    path = reference_shortest_path(adj, pa, pc, allowed)
    if path is None:
        return None
    cycle = [g.id_at(p) for p in path] + [g.id_at(pb)]
    assert is_chordless_cycle(g, cycle) and len(cycle) >= 5
    return cycle


def reference_triples_centered(adj, pb):
    """The non-adjacent pairs (a, c) of neighbours of b, as positions."""
    members = []
    m = adj[pb]
    while m:
        low = m & -m
        members.append(low.bit_length() - 1)
        m ^= low
    for i, pa in enumerate(members):
        for pc in members[i + 1 :]:
            if not adj[pa] >> pc & 1:
                yield pa, pc


def reference_find_hole(g):
    """Some chordless cycle with >= 5 vertices, or None."""
    adj = g.adj_masks()
    for pb in range(g.n):
        for pa, pc in reference_triples_centered(adj, pb):
            cycle = reference_hole_through_triple(g, adj, pa, pb, pc)
            if cycle is not None:
                return cycle
    return None


def reference_is_weakly_chordal(g):
    """Hole-free and antihole-free, by the triple-centred search."""
    return reference_find_hole(g) is None and reference_find_hole(g.complement()) is None


def reference_random_chordal_bipartite(m, n, density, rng):
    """The generator with a whole-graph chordal-bipartite check per candidate."""
    links = random_bipartite_tree(m, n, rng)
    target = max(len(links), int(round(density * m * n)))
    candidates = [(j, i) for j in range(n) for i in range(m) if (j, i) not in links]
    rng.shuffle(candidates)
    for j, i in candidates:
        if len(links) >= target:
            break
        trial = TopologyGraph(m, n, frozenset(links | {(j, i)}))
        if reference_find_hole(trial.bipartite_graph()) is None:
            links.add((j, i))
    return TopologyGraph(m, n, frozenset(links))


def reference_candidate_pairs(g):
    """Every non-adjacent pair as (a, b, is_two_pair), best first: the reference ranking.

    A list-and-sort over neighbor sets: the two-pairs come first, each
    part by descending common neighborhood, then ascending ids.
    """
    ids = g.vertices
    pairs = sorted(
        (-len(set(g.neighbors(a)) & set(g.neighbors(b))), a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if not g.has_edge(a, b)
    )
    return [(a, b, True) for _, a, b in pairs if is_two_pair(g, a, b)] + [
        (a, b, False) for _, a, b in pairs if not is_two_pair(g, a, b)
    ]


def order_of(rows):
    """An order, a tuple of records, from rows [x, y, z]."""
    return tuple(ContractionRecord(*row) for row in rows)


def replay_chain(graph, records):
    """Replay an order through ``Graph.contract_pair``: the reference for class masks.

    Returns the graphs before and after each record, and the member set of
    every id the order names, base vertices included. Each record must
    fire on the graph before it, so an order that may not fire raises
    ``GraphError`` here.
    """
    chain = [graph]
    members = {v: frozenset((v,)) for v in graph.vertices}
    for r in records:
        chain.append(chain[-1].contract_pair(r.x, r.y, r.z))
        members[r.z] = members[r.x] | members[r.y]
    return chain, members


def reference_matching_records(order, u, v):
    """Records whose contraction merged u's side with v's side, by a pass
    that keeps two bits per class, u's (1) and v's (2): ``cls[z]`` is
    ``cls[x] | cls[y]``, and an id no record has given a bit reads 0. The
    reference for the record ``insert_update`` reads off the order's
    structure."""
    cls = {u: 1, v: 2}
    out = []
    for rec in order:
        cx, cy = cls.get(rec.x, 0), cls.get(rec.y, 0)
        if cx | cy:
            cls[rec.z] = cx | cy
            if cx & 1 and cy & 2 or cx & 2 and cy & 1:
                out.append(rec)
    return out


def random_order_state(g, rng):
    """The state ``lift`` builds from a random two-pair order of g.

    Each step contracts a uniformly random current two-pair: the live pairs
    are shuffled and the first one ``PairRanking.joinable`` accepts fires,
    with ids counting up from ``fresh_id`` as ``static_color``'s do. Every
    two-pair order of a weakly chordal graph ends in a clique of chi
    vertices (Hayward-Hoang-Maffray), so any draw is a valid optimal state.
    """
    ranking = PairRanking(g)
    live, records, z = list(g.vertices), [], fresh_id(g, ())
    while not ranking.complete():
        pairs = list(itertools.combinations(live, 2))
        rng.shuffle(pairs)
        x, y = next(p for p in pairs if ranking.joinable(*p))
        ranking.contract(x, y, z)
        records.append(ContractionRecord(x, y, z))
        live = [v for v in live if v != x and v != y] + [z]
        z += 1
    coloring, clique, k = lift(g, records)
    return ColoringState(g, coloring, k, clique, tuple(records))


def perturbed(g, rng):
    """A random edge event that keeps g weakly chordal, as (graph after it, u, v), or None."""
    ids = g.vertices
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    rng.shuffle(pairs)
    for u, v in pairs:
        if g.has_edge(u, v):
            if stays_weakly_chordal_after_delete(g, u, v):
                return g.delete_edge(u, v), u, v
        elif stays_weakly_chordal_after_insert(g, u, v):
            return g.insert_edge(u, v), u, v
    return None


def reference_gen_event(g, rng, insert_fraction, seq, cap):
    """``harness.gen_event`` with both pair lists built before the first
    draw: the reference for its draws from the masks."""
    ids = g.vertices
    n = len(ids)
    edges = []
    non_edges = []
    # both lists in (position, later position) order, as g.edges() lists edges
    for i, m in enumerate(g.adj_masks()):
        u = ids[i]
        for j in range(i + 1, n):
            (edges if m >> j & 1 else non_edges).append((u, ids[j]))
    for _ in range(cap):
        want_insert = rng.random() < insert_fraction
        if want_insert and not non_edges:
            want_insert = False
        if not want_insert and not edges:
            want_insert = True
            if not non_edges:
                return None
        if want_insert:
            u, v = rng.choice(non_edges)
            if stays_weakly_chordal_after_insert(g, u, v):
                return PerturbationEvent("insert", u, v, seq)
        else:
            u, v = rng.choice(edges)
            if stays_weakly_chordal_after_delete(g, u, v):
                return PerturbationEvent("delete", u, v, seq)
    return None


@pytest.fixture
def fig6() -> Graph:
    return fixture_graph("fig6.json")


@pytest.fixture
def fig8() -> Graph:
    return fixture_graph("fig8.json")


@pytest.fixture
def fig9() -> Graph:
    return fixture_graph("fig9.json")


@pytest.fixture
def c5() -> Graph:
    return fixture_graph("c5.json")
