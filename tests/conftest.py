import json
import random
from importlib import resources

import pytest
from hypothesis import strategies as st

from timcolor.generators import random_weakly_chordal
from timcolor.graph import Graph, from_dict
from timcolor.recognition import (
    is_two_pair,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from timcolor.static_coloring import ContractionRecord


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


def reference_candidate_pairs(g, near=()):
    """Every non-adjacent pair as (a, b, is_two_pair), best first: the reference ranking.

    A list-and-sort over neighbor sets. Pairs with an endpoint in N[near]
    form the first tier, the rest the second; within a tier the two-pairs
    come first, each part by descending common neighborhood, then
    ascending ids.
    """
    ids = g.vertices
    pairs = sorted(
        (-len(set(g.neighbors(a)) & set(g.neighbors(b))), a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if not g.has_edge(a, b)
    )
    zone = set()
    for w in near:
        if w in g:
            zone |= {w, *g.neighbors(w)}
    out = []
    for first in (True, False):
        tier = [(a, b) for _, a, b in pairs if (a in zone or b in zone) == first]
        out += [(a, b, True) for a, b in tier if is_two_pair(g, a, b)]
        out += [(a, b, False) for a, b in tier if not is_two_pair(g, a, b)]
    return out


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
        chain.append(chain[-1].contract_pair(r.x, r.y, r.z)[0])
        members[r.z] = members[r.x] | members[r.y]
    return chain, members


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
