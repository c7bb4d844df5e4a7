"""Minimum coloring of weakly chordal graphs by two-pair contraction.

The static procedure repeatedly contracts a two-pair until the graph is a
clique, records the contraction sequence (the solution order), and then
lifts the trivial clique coloring and clique back through the sequence.
The recorded order is replayable, which is what the dynamic update layer
relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graph import Graph
from .recognition import PairRanking, TwoPair, is_two_pair, is_weakly_chordal


class NotWeaklyChordalError(ValueError):
    """No two-pair exists on a non-complete graph (Hayward property violated)."""


class InvalidContractionError(ValueError):
    """Attempted contraction of a pair that is not a two-pair."""


@dataclass(frozen=True)
class ContractionRecord:
    x: int
    y: int
    z: int

    def as_list(self) -> list[int]:
        return [self.x, self.y, self.z]


@dataclass
class SolutionOrder:
    records: list[ContractionRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_lists(self) -> list[list[int]]:
        return [r.as_list() for r in self.records]

    @staticmethod
    def from_lists(rows: Sequence[Sequence[int]]) -> "SolutionOrder":
        return SolutionOrder([ContractionRecord(*map(int, r)) for r in rows])


@dataclass
class ColoringState:
    """A graph together with its maintained optimal-coloring artifacts."""

    graph: Graph
    coloring: dict[int, int]
    color_count: int
    clique: frozenset[int]
    order: SolutionOrder

    def to_dict(self) -> dict:
        return {
            "colors": {str(v): c for v, c in sorted(self.coloring.items())},
            "color_count": self.color_count,
            "clique": sorted(self.clique),
            "order": self.order.to_lists(),
        }


def contract(g: Graph, pair: TwoPair, z: Optional[int] = None) -> tuple[Graph, int]:
    """Merge a two-pair into a fresh vertex adjacent to the union neighborhood."""
    if not is_two_pair(g, pair.x, pair.y):
        raise InvalidContractionError(f"({pair.x},{pair.y}) is not a two-pair")
    return g.contract_pair(pair.x, pair.y, z)


def _is_complete(g: Graph) -> bool:
    n = g.n
    return all(g.degree(v) == n - 1 for v in g.vertices)


def run_contractions(
    g: Graph,
    rng: Optional[random.Random] = None,
    verify: bool = False,
) -> tuple[list[ContractionRecord], list[Graph]]:
    """Contract two-pairs until none remains.

    Returns the records and the graph chain (chain[i] is the graph before
    records[i]; the last entry is the final clique). Raises if the final
    graph is not complete, or, in verify mode, if weak chordality breaks.
    Each step contracts the first two-pair in ``PairRanking``'s order,
    which one ranking kept across the loop hands out.
    """
    records: list[ContractionRecord] = []
    chain = [g]
    cur = g
    ranking = PairRanking(g, rng)
    while (pair := ranking.pop_two_pair()) is not None:
        x, y = pair
        cur, z = cur.contract_pair(x, y)
        ranking.contract(x, y, z)
        if verify and not is_weakly_chordal(cur):
            raise NotWeaklyChordalError(f"contraction of ({x},{y}) broke weak chordality")
        records.append(ContractionRecord(x, y, z))
        chain.append(cur)
    if not _is_complete(cur):
        raise NotWeaklyChordalError(
            "no two-pair on a non-complete graph; input is not weakly chordal"
        )
    return records, chain


def lift_coloring(
    records: Sequence[ContractionRecord], chain: Sequence[Graph]
) -> tuple[dict[int, int], int]:
    """Coloring part of the lift only: classes get colors, no clique threading."""
    final = chain[-1]
    base = sorted(final.vertices)
    coloring = {v: i + 1 for i, v in enumerate(base)}
    for rec in reversed(records):
        c = coloring.pop(rec.z)
        coloring[rec.x] = c
        coloring[rec.y] = c
    return coloring, len(base)


def lift(records: Sequence[ContractionRecord], chain: Sequence[Graph]) -> tuple[dict[int, int], frozenset[int], int]:
    """Lift clique and coloring from the final clique back to the original graph.

    The base clique takes colors 1..k by ascending vertex id. Each
    un-contraction copies the merged vertex's color to both parents; the
    clique is patched only when it contains the merged vertex.
    """
    final = chain[-1]
    base = sorted(final.vertices)
    coloring = {v: i + 1 for i, v in enumerate(base)}
    clique = set(base)
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        pre = chain[i]  # graph in which rec.x, rec.y are live
        c = coloring.pop(rec.z)
        coloring[rec.x] = c
        coloring[rec.y] = c
        if rec.z in clique:
            clique.discard(rec.z)
            rest = clique
            if all(pre.has_edge(rec.x, w) for w in rest):
                clique.add(rec.x)
            elif all(pre.has_edge(rec.y, w) for w in rest):
                clique.add(rec.y)
            else:
                raise NotWeaklyChordalError(
                    "clique lift failed: neither parent completes the clique"
                )
    return coloring, frozenset(clique), len(base)


def static_color(
    g: Graph,
    rng: Optional[random.Random] = None,
    verify: bool = False,
) -> ColoringState:
    """Simultaneous maximum clique and minimum coloring via contraction."""
    if verify and not is_weakly_chordal(g):
        raise NotWeaklyChordalError("input graph is not weakly chordal")
    if g.n == 0:
        return ColoringState(g, {}, 0, frozenset(), SolutionOrder())
    records, chain = run_contractions(g, rng, verify)
    coloring, clique, k = lift(records, chain)
    return ColoringState(g, coloring, k, clique, SolutionOrder(records))


def chromatic_number(g: Graph) -> int:
    return static_color(g).color_count


def diagnose_state(state: ColoringState) -> list[str]:
    """All invariant violations of a ColoringState, as human-readable strings.

    A valid state has a proper coloring with ``color_count`` colors, a
    ``color_count``-clique, and an order whose replay on the graph ends in
    a ``color_count``-clique. Problems come in that order; the coloring's
    bad edges come in ``g.edges()`` order.

    The order is replayed on class bitmasks over the sorted positions of
    ``state.graph``, without building a ``Graph`` per record. Each live id
    stands for a class: ``cls[id]`` is the mask of its member positions
    and ``nb[id]`` the OR of their adjacency masks. This is the certificate
    that a replay through ``Graph.contract_pair`` computes. Claim: in that
    replay, live ids a and b are adjacent iff ``nb[a] & cls[b]`` is
    non-zero, and each class is an independent set. Singletons satisfy
    this. A record fires only on non-adjacent parents, so the union of two
    independent classes with no edge between them is independent again.
    ``contract_pair`` makes z adjacent to exactly N(x) | N(y), that is, to
    each class some member of x or of y touches, and ``nb[x] | nb[y]``
    meets ``cls[w]`` exactly then. So every adjacency test of the replay,
    the completeness of the final quotient and its size read the same on
    both sides.
    """
    problems: list[str] = []
    g = state.graph
    coloring = state.coloring
    if set(coloring) != set(g.vertices):
        problems.append("coloring domain differs from vertex set")
        return problems
    ids = g.vertices
    adj = g.adj_masks()
    # One mask per color: position p has a bad edge to a later position
    # iff its adjacency meets its own color's mask above bit p.
    color_at = [coloring[v] for v in ids]
    color_mask: dict = {}
    for p, c in enumerate(color_at):
        color_mask[c] = color_mask.get(c, 0) | 1 << p
    for p, m in enumerate(adj):
        bad = (m & color_mask[color_at[p]]) >> (p + 1)
        while bad:
            low = bad & -bad
            problems.append(f"improper coloring on edge ({ids[p]},{ids[p + low.bit_length()]})")
            bad ^= low
    if len(color_mask) != state.color_count:
        problems.append(f"{len(color_mask)} distinct colors used, color_count={state.color_count}")
    if len(state.clique) != state.color_count:
        problems.append(f"clique size {len(state.clique)} != color_count {state.color_count}")
    members = sorted(state.clique)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not g.has_edge(u, v):
                problems.append(f"clique members ({u},{v}) are not adjacent")
    # Replay the order. Optimality is certified by the (coloring, clique)
    # pair above, so a record only needs live, distinct, non-adjacent
    # parents and a fresh z here; two-pair-ness is how records are found,
    # not what makes them valid.
    cls = {v: 1 << p for p, v in enumerate(ids)}
    nb = dict(zip(ids, adj))
    for rec in state.order:
        x, y, z = rec.x, rec.y, rec.z
        if x not in cls or y not in cls:
            problems.append(f"order record ({x},{y},{z}) references dead vertex")
            return problems
        if nb[x] & cls[y]:
            problems.append(f"order record ({x},{y},{z}) contracts an edge")
            return problems
        if x == y:
            problems.append(f"order record ({x},{y},{z}) pairs a vertex with itself")
            return problems
        if z in cls:
            problems.append(f"order record ({x},{y},{z}) reuses live id {z}")
            return problems
        cls[z] = cls.pop(x) | cls.pop(y)
        nb[z] = nb.pop(x) | nb.pop(y)
    live = list(cls)
    if not all(nb[a] & cls[b] for i, a in enumerate(live) for b in live[i + 1 :]):
        problems.append("order replay does not end in a clique")
    elif len(live) != state.color_count:
        problems.append(f"replayed clique has {len(live)} vertices, expected {state.color_count}")
    return problems


def verify_state(state: ColoringState) -> bool:
    return not diagnose_state(state)
