"""Random instance generators for trials and property tests.

The chordal-bipartite generator grows a bipartite tree (always chordal
bipartite) and adds random cross edges kept only when chordal
bipartiteness survives. Both it and the weakly chordal generator, which
grows from the empty graph, keep a candidate edge by the incremental
weak-chordality check.
"""

from __future__ import annotations

import random

from .graph import Graph, make_graph
from .recognition import stays_weakly_chordal_after_insert
from .tim import TopologyGraph

MAX_INTERVAL = 3  # destinations per source in random_convex, at most


def random_bipartite_tree(m: int, n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Spanning-tree links (j, i) over m sources and n destinations."""
    links: set[tuple[int, int]] = set()
    placed_s, placed_d = [0], [0]
    links.add((0, 0))
    pending = [("s", i) for i in range(1, m)] + [("d", j) for j in range(1, n)]
    rng.shuffle(pending)
    for side, idx in pending:
        if side == "s":
            links.add((rng.choice(placed_d), idx))
            placed_s.append(idx)
        else:
            links.add((idx, rng.choice(placed_s)))
            placed_d.append(idx)
    return links


def random_chordal_bipartite(
    m: int, n: int, density: float, rng: random.Random
) -> TopologyGraph:
    """Random chordal-bipartite topology with roughly `density` of all links.

    Links are added one at a time, each kept when
    ``stays_weakly_chordal_after_insert`` accepts it. A bipartite graph
    has no antihole (the complement of C5 is an odd cycle, that of Ck for
    k >= 6 holds a triangle), so for it weakly chordal means hole-free,
    which is chordal bipartite. A cross link keeps the graph bipartite,
    and the insert check is exact on a weakly chordal graph.
    """
    links = random_bipartite_tree(m, n, rng)
    target = max(len(links), int(round(density * m * n)))
    candidates = [(j, i) for j in range(n) for i in range(m) if (j, i) not in links]
    rng.shuffle(candidates)
    g = TopologyGraph(m, n, frozenset(links)).bipartite_graph()
    for j, i in candidates:
        if len(links) >= target:
            break
        if stays_weakly_chordal_after_insert(g, i, m + j):
            g = g.insert_edge(i, m + j)
            links.add((j, i))
    return TopologyGraph(m, n, frozenset(links))


def random_convex(m: int, n: int, rng: random.Random) -> TopologyGraph:
    """Random convex topology: each source serves an interval of destinations.

    Convex networks are chordal bipartite, and with short intervals their
    conflict graphs empirically stay free of the (4,4,2) forbidden patterns;
    this is the sparse one-dimensional class the locality results target.
    May be disconnected; callers that need connectivity should resample.
    """
    links: set[tuple[int, int]] = set()
    for i in range(m):
        lo = rng.randrange(n)
        hi = min(n - 1, lo + rng.randint(0, MAX_INTERVAL - 1))
        for j in range(lo, hi + 1):
            links.add((j, i))
    return TopologyGraph(m, n, frozenset(links))


def random_weakly_chordal(n: int, extra_edges: int, rng: random.Random) -> Graph:
    """Random weakly chordal graph grown edge by edge from the empty graph."""
    g = make_graph(n, [])
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(candidates)
    added = 0
    for u, v in candidates:
        if added >= extra_edges:
            break
        if stays_weakly_chordal_after_insert(g, u, v):
            g = g.insert_edge(u, v)
            added += 1
    return g
