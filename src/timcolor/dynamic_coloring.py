"""Dynamic maintenance of an optimal coloring under single-edge events.

The maintained ``ColoringState`` is updated by case analysis on the solution
order: membership of the event edge in the order (whether a record merged
the class of one endpoint with the class of the other), equality of the
endpoint colors, and whether the clique grows or shrinks. Three cases replay
nothing and keep the order: I-1 and I-2-1, the latter recoloring, and D-1
when the held clique misses an endpoint of the deleted edge. Every case
reads the order's classes from the state's ``order_structure``, and a new
order is colored from its own (``_certified``). An insertion whose endpoints
share a final class (I-3) breaks the record that merged them, or it and one
more, and places the pieces of the broken classes into the intact ones and
fresh ones. A deletion inside the held clique whose endpoints' final classes
lose their last edge is D-2: it adds the one record merging those classes.
Only when the classes decide nothing does one strict two-pair replay of the
order run, which drops the records the event made invalid and contracts the
first two-pairs in rank order, as ``static_color`` does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Optional

from .graph import Graph
from .recognition import _bits
from .static_coloring import (
    ColoringState,
    Contraction,
    ContractionRecord,
    NotWeaklyChordalError,
    OrderStructure,
    contract_to_clique,
    fresh_id,
    order_classes,
    order_structure,
    static_color,
)

log = logging.getLogger(__name__)

@dataclass
class UpdateReport:
    kind: str  # "insert" | "delete"
    u: int
    v: int
    case_label: str
    recolored: frozenset[int]
    pairs_removed: list[ContractionRecord]
    pairs_added: list[ContractionRecord]
    colors_before: int
    colors_after: int
    fallback_used: bool = False
    seq: Optional[int] = None

    @property
    def pairs_changed(self) -> int:
        return len(self.pairs_removed) + len(self.pairs_added)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "u": self.u,
            "v": self.v,
            "case": self.case_label,
            "recolored": sorted(self.recolored),
            "pairs_removed": [r.as_list() for r in self.pairs_removed],
            "pairs_added": [r.as_list() for r in self.pairs_added],
            "colors_before": self.colors_before,
            "colors_after": self.colors_after,
            "fallback": self.fallback_used,
        }


# ---------------------------------------------------------------------------
# clique growth detection
# ---------------------------------------------------------------------------

def _growth_witness(state: ColoringState, u: int, v: int) -> Optional[frozenset[int]]:
    """A clique of size omega+1 in G+(u,v), or None when omega is unchanged.

    omega(G) = k, so every (k+1)-clique of G+uv holds the new edge uv, and
    its other members form a (k-1)-clique of G inside the common
    neighbourhood C = N(u) & N(v); any such clique plus u and v is one.
    The test decides whether G[C] holds a (k-1)-clique in three exact steps,
    each returning a real clique or a sound "no":
    1. the held clique meets C in k-1 vertices: they are the clique;
    2. C meets fewer than k-1 color classes of the held proper coloring: a
       clique takes one vertex from each class, so there is none;
    3. otherwise G[C], weakly chordal because the property is hereditary,
       is contracted to a clique by ``contract_to_clique``, which threads a
       clique of the final size back through its records as it goes.
       Two-pair contraction keeps omega (Hayward-Hoang-Maffray), so that
       clique has omega(G[C]) vertices, at most k-1 since a k-clique in C
       and u would be a (k+1)-clique of G; the clique grows exactly when it
       has k-1.
    ``static_color`` makes the same call; it is made directly here so that
    a profile of ``static_color`` counts static recomputes only.
    """
    g = state.graph
    need = state.color_count - 1
    common = {w for w in g.neighbors(u) if g.has_edge(w, v)}
    held = state.clique & common
    if len(held) == need:
        return held | {u, v}
    if len({state.coloring[w] for w in common}) < need:
        return None
    sub = g.induced_subgraph(common)
    found = contract_to_clique(sub, ()).clique
    return found | {u, v} if len(found) == need else None


# ---------------------------------------------------------------------------
# order repair by replay
# ---------------------------------------------------------------------------

def replay_repair(graph: Graph, order: tuple[ContractionRecord, ...]) -> Contraction:
    """Replay the order on a perturbed graph, dropping and replacing records.

    ``contract_to_clique`` on ``graph`` with the order to replay, under a
    name of its own that ``bench/tracing.py`` times: a record that never
    becomes a two-pair of the quotient is dropped (its parent died, or its
    pair became an edge or is no longer a two-pair), and the first
    two-pairs in rank order are added until the quotient is a clique of chi
    vertices; a run out of two-pairs short of a clique raises. The result's
    ``order`` is the new order, kept records unchanged and added ones at or
    above ``fresh_id``, with its clique and class count; ``_certified``
    checks that count.
    """
    return contract_to_clique(graph, order)


# ---------------------------------------------------------------------------
# placing the pieces of broken classes
# ---------------------------------------------------------------------------

def _place(pieces: list[tuple[int, int, int]], bins: list[int], where: list[int]) -> bool:
    """Put every unplaced piece into a bin it has no edge to; whether all fit.

    A piece is (class mask, neighbour mask, home bin). ``bins`` holds each
    bin's class mask, 0 while a free bin is empty, and ``where`` each
    piece's bin, -1 while unplaced; both are filled in place and restored
    when no placement exists. The search is complete: the piece with the
    fewest bins open goes next, so a dead end shows as soon as one has
    none, and it tries its home bin first, then the others in order. Empty
    bins are interchangeable, so only the first open one is tried.
    """
    best: Optional[tuple[int, list[int]]] = None
    for i, (_, nb, home) in enumerate(pieces):
        if where[i] >= 0:
            continue
        opts, empty = [], False
        for b in (home, *(b for b in range(len(bins)) if b != home)):
            if not bins[b]:
                if empty:
                    continue
                empty = True
            elif nb & bins[b]:
                continue
            opts.append(b)
        if not opts:
            return False
        if best is None or len(opts) < len(best[1]):
            best = (i, opts)
    if best is None:
        return True
    i, opts = best
    for b in opts:
        saved = bins[b]
        bins[b] |= pieces[i][0]
        where[i] = b
        if _place(pieces, bins, where):
            return True
        bins[b] = saved
    where[i] = -1
    return False


# ---------------------------------------------------------------------------
# coloring alignment
# ---------------------------------------------------------------------------

def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square matrix.

    Kuhn-Munkres (Hungarian method), O(k^3): rows join the matching one at
    a time, each along a shortest augmenting path under the reduced costs
    cost - row_pot - col_pot, which the potentials keep non-negative.
    """
    k = len(cost)
    row_pot, col_pot = [0] * (k + 1), [0] * (k + 1)
    owner = [0] * (k + 1)  # owner[j]: row (1-based) holding column j; column 0 is the root
    for i in range(1, k + 1):
        owner[0], j0 = i, 0
        slack, back, done = [float("inf")] * (k + 1), [0] * (k + 1), [False] * (k + 1)
        while owner[j0]:
            done[j0] = True
            i0, delta, j1 = owner[j0], float("inf"), 0
            for j in range(1, k + 1):
                if not done[j]:
                    reduced = cost[i0 - 1][j - 1] - row_pot[i0] - col_pot[j]
                    if reduced < slack[j]:
                        slack[j], back[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(k + 1):
                if done[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to the root
            owner[j0] = owner[back[j0]]
            j0 = back[j0]
    col = [0] * k
    for j in range(1, k + 1):
        col[owner[j] - 1] = j - 1
    return col


def _match_palette(
    new_coloring: dict[int, int], old_coloring: dict[int, int], k: int
) -> dict[int, int]:
    """Relabel a fresh lift's colors 1..k onto 1..k so that as many vertices
    as possible keep their old color (exact maximum-overlap assignment).

    Old labels outside 1..k cannot be kept by any relabelling onto 1..k, so
    only labels 1..k are scored; the result recolors the minimum over all k!
    relabellings.
    """
    overlap = [[0] * k for _ in range(k)]
    for v, c in new_coloring.items():
        oc = old_coloring.get(v, 0)
        if 0 < oc <= k:
            overlap[c - 1][oc - 1] += 1
    relabel = _min_cost_assignment([[-o for o in row] for row in overlap])
    return {v: relabel[c - 1] + 1 for v, c in new_coloring.items()}


# ---------------------------------------------------------------------------
# the dynamic updates
# ---------------------------------------------------------------------------

def _structure(state: ColoringState) -> OrderStructure:
    """The state's ``order_structure``. An order without one is outside the
    precondition of every update: ``order_classes`` raises
    ``InvalidContractionError`` on it, naming its first bad record."""
    s = order_structure(state)
    if s is None:
        order_classes(state.graph, state.order)
    return s


def _certified(
    old: ColoringState, graph: Graph, order: tuple[ContractionRecord, ...], k: int,
    clique: frozenset[int], coloring: Optional[dict[int, int]] = None,
) -> ColoringState:
    """`order` on `graph` with k colors and `clique`, keeping its structure.
    ``NotWeaklyChordalError`` unless the order ends in exactly k final classes;
    without `coloring`, a vertex takes its class's color on the old palette."""
    new = ColoringState(graph, coloring or {}, k, clique, order)
    s = order_structure(new)
    if s is None or len(s.final) != k:
        raise NotWeaklyChordalError(f"repaired order does not end in {k} classes")
    if coloring is None:
        new.coloring = _match_palette(s.coloring(), old.coloring, k)
    return new


def _fallback(graph: Graph, old: ColoringState) -> ColoringState:
    log.warning("dynamic repair exhausted; falling back to full static recompute")
    new = static_color(graph)
    new.coloring = _match_palette(new.coloring, old.coloring, new.color_count)
    return new


def _finish(
    old: ColoringState, graph: Graph, kind: str, u: int, v: int,
    case: Optional[str] = None, repair: Optional[Callable[[], ColoringState]] = None,
) -> tuple[ColoringState, UpdateReport]:
    """The post-event state on `graph` and its report.

    Without a repair the old state moves onto `graph` unchanged and the
    report changes nothing. Otherwise `repair()` returns the new state, and
    the report is read off the two states: the vertices whose color differs,
    and the records of each order whose z the other lacks, in its order's
    sequence. Every repair keeps old records unchanged and gives each added
    one an id at or above ``fresh_id(old.graph, old.order)``, so a z names
    one record in both orders. A repair that raises ``NotWeaklyChordalError``
    falls back to a static recompute, whose ids restart one above the
    graph's largest vertex: it is reported as removing the whole old order
    and adding the new one. An insertion passes its case; a deletion's is
    read off the count it ends at, D-1 when it keeps k and D-2 when it
    lowers it. A new state that keeps the old order takes the old state's
    ``order_structure`` along.
    """
    k = old.color_count
    fallback = False
    if repair is None:
        new = ColoringState(graph, dict(old.coloring), k, old.clique, old.order)
        recolored, removed, added = frozenset(), [], []
    else:
        try:
            new = repair()
        except NotWeaklyChordalError:
            fallback, new = True, _fallback(graph, old)
            removed, added = list(old.order), list(new.order)
        else:
            old_ids, new_ids = {rec.z for rec in old.order}, {rec.z for rec in new.order}
            removed = [rec for rec in old.order if rec.z not in new_ids]
            added = [rec for rec in new.order if rec.z not in old_ids]
        recolored = frozenset(w for w, c in new.coloring.items() if old.coloring.get(w) != c)
    if new.order is old.order:
        new._structure = old._structure
    if kind == "delete":
        case = "D-1" if new.color_count == k else "D-2"
    return new, UpdateReport(
        kind, u, v, case, recolored, removed, added, k, new.color_count, fallback
    )


def _break_and_place(
    state: ColoringState, s: OrderStructure, h: Graph, r1: ContractionRecord, expected: int
) -> Optional[tuple[ContractionRecord, ...]]:
    """The order of the first rung whose pieces place into `expected`
    classes of h = G+uv, or None (see ``insert_update``). The classes are
    the state's structure ``s``, and a piece's neighbours the OR of its
    members' adjacency in h, as ``order_classes`` reads them."""
    order, cls, final = state.order, s.cls, s.final
    adj = h.adj_masks()
    after = {}  # id -> the record that consumes it
    for rec in order:
        after[rec.x] = after[rec.y] = rec
    next_z = fresh_id(h, order)

    def chain(rec):
        """rec and the records downstream of it, up to its final class."""
        out = [rec]
        while out[-1].z in after:
            out.append(after[out[-1].z])
        return out

    def place(chains):
        """The records merging a placement of the chains' pieces, or None."""
        broken = sorted({c[-1].z for c in chains})
        intact = [f for f in final if f not in broken]
        made = {rec.z for c in chains for rec in c}
        home = {}
        for c in chains:
            for rec in c:
                for p in (rec.x, rec.y):
                    if p not in made:
                        home[p] = len(intact) + broken.index(c[-1].z)
        ids = sorted(home, key=lambda p: (-cls[p].bit_count(), p))
        pieces = [(cls[p], reduce(or_, (adj[q] for q in _bits(cls[p]))), home[p]) for p in ids]
        bins = [cls[f] for f in intact] + [0] * (expected - len(intact))
        where = [-1] * len(ids)
        if not _place(pieces, bins, where):
            return None
        members = [[f] for f in intact] + [[] for _ in range(expected - len(intact))]
        for p, b in zip(ids, where):
            members[b].append(p)
        added, z = [], next_z
        for acc, *rest in members:  # no bin stays empty: that would color G+uv below chi
            for p in rest:
                added.append(ContractionRecord(min(acc, p), max(acc, p), z))
                acc, z = z, z + 1
        return added

    base = chain(r1)
    gone, added = set(base), place([base])
    if added is None:  # rung 1: the fewest removed records, the first rec on a tie
        for rec in order:
            extra = chain(rec)
            both = set(base) | set(extra)
            if len(both) > len(base) and (added is None or len(both) < len(gone)):
                placed = place([base, extra])
                if placed is not None:
                    gone, added = both, placed
    return None if added is None else tuple(r for r in order if r not in gone) + tuple(added)


def insert_update(state: ColoringState, u: int, v: int) -> tuple[ColoringState, UpdateReport]:
    """Re-establish an optimal coloring after inserting edge (u,v).

    I-1 (no record merges u's side with v's side, and u and v differ in
    color) returns the state unchanged, without a replay. Proof: the
    coloring stays proper, so omega(G+uv) <= chi(G+uv) <= k and the old
    clique still certifies k. Replaying the order on G+uv, the quotient
    before each record gains at most the edge between the classes of u and
    v; no record pairs those two classes, so every record stays
    non-adjacent and fires in turn. The classes of u and v never merge, so
    they were already adjacent in the final k-clique, which is unchanged.

    Without a matching record the clique cannot grow, so I-2-2 never
    arises and the growth test is skipped (I-2-1). Proof: the order's
    replay ends in a k-clique, so its classes are k independent sets of G,
    and u and v fall in different classes because no record merged their
    sides. The lift colors by class, so it is a proper k-coloring of G+uv,
    and omega(G+uv) <= chi(G+uv) <= k. By the I-1 argument every record
    still fires in turn and the final quotient stays a k-clique, so the
    order and the old clique are kept, with no replay. u, else v, takes a
    free palette color; when neither has one, the order's lift, matched onto
    the old palette, replaces the coloring.

    With a matching record r1 (there is one at most: after it u and v share
    a class) the count k' is k + 1 when the growth witness exists (I-3-2)
    and k otherwise (I-3-1); G+uv is weakly chordal, hence perfect, so
    chi(G+uv) = omega(G+uv) = k'. The order is repaired on the structure's
    class masks and G's adjacency, by breaking a set B of records. Every id
    is consumed by one record at most, so the records downstream of a record
    form a chain up to its final class; let R be the chains of B's records.
    Proof that R alone fixes the result's size:
    - Each record outside R still fires on G+uv in turn. R holds everything
      downstream of its records, so no record of R made its parents; its
      classes are those it has on G, where they are non-adjacent, and uv
      joins only the class of u to the class of v, which only r1 merges.
      No record of R fires: r1's classes are adjacent in G+uv, B's are
      broken, and every other one lacks a parent.
    - The final classes of G that R misses stay intact and pairwise
      adjacent. A final class that R meets breaks into pieces: the parents
      of R's records that no record of R produced, one more than the
      records of R in it. The pieces of one class are independent together
      in G, so in G+uv only u's piece and v's piece conflict.
    - A repair that keeps every record it can fire therefore removes R, and
      ends in k' classes exactly when the pieces can be placed into the
      intact classes and k' - (intact count) fresh ones, every class
      independent in G+uv. ``_place`` decides this by a complete search.
      Merging each class's members takes |R| + k - k' records, so the
      rung changes 2|R| + k - k' order pairs whichever placement is found.
    - The final quotient is complete: were two of its k' classes
      non-adjacent, merging them would color G+uv with k' - 1 < chi colors.
      For the same reason no fresh class stays empty.
    Rung 0 breaks {r1}; rung 1, when rung 0 has no placement, breaks
    {r1, rec} for every other record rec and keeps the smallest R, the
    first on a tie. I-3-2 always succeeds at rung 0: v's piece alone and
    every other piece of r1's class together fill the k + 1 classes. When
    neither rung places its pieces, the strict two-pair replay decides the
    order. ``_certified`` builds either state and falls back on a count
    other than k'. I-3-1 keeps the old clique and colors the order by its
    classes; I-3-2 takes the witness, a (k+1)-clique of G+uv whichever
    order is found, and gives one endpoint the new color k + 1.

    Whether a record merged u's side with v's side, and which, is read off
    the state's ``order_structure``. Proof: on a structurally valid order
    every id is consumed once and every z is fresh, so classes only grow,
    by merging two disjoint ones. The first class to hold both u and v is
    made by the record whose sides hold one each, after which they never
    part; no other record has u on one side and v on the other. So u and v
    share a final class exactly when one record matches, and r1 is the
    first record whose class holds both. An order with no structure raises
    ``InvalidContractionError`` (see ``_structure``).
    """
    g = state.graph
    h = g.insert_edge(u, v)  # raises if present / unknown
    s = _structure(state)
    pu, pv = g.pos(u), g.pos(v)
    merged = s.index[pu] == s.index[pv]
    if not merged and state.coloring[u] != state.coloring[v]:
        return _finish(state, h, "insert", u, v, "I-1")
    k = state.color_count
    if not merged:
        def recolor():
            coloring = dict(state.coloring)
            for w in (u, v):  # the smallest palette color free around w
                free = set(range(1, k + 1)) - {coloring[x] for x in h.neighbors(w)}
                if free:
                    coloring[w] = min(free)
                    break
            else:  # G+uv shares G's vertex tuple, so the order's structure is s
                coloring = _match_palette(s.coloring(), state.coloring, k)
            return ColoringState(h, coloring, k, state.clique, state.order)

        return _finish(state, h, "insert", u, v, "I-2-1", recolor)
    both = 1 << pu | 1 << pv
    r1 = next(rec for rec in state.order if s.cls[rec.z] & both == both)
    witness = _growth_witness(state, u, v)
    grows = witness is not None
    expected = k + grows

    def repair():
        order = _break_and_place(state, s, h, r1, expected)
        if order is None:
            order = replay_repair(h, state.order).order
        if not grows:  # I-3-1: the old clique certifies an unchanged omega
            return _certified(state, h, order, k, state.clique)
        return _certified(state, h, order, k + 1, witness, {**state.coloring, min(u, v): k + 1})

    return _finish(state, h, "insert", u, v, "I-3-2" if grows else "I-3-1", repair)


def delete_update(state: ColoringState, u: int, v: int) -> tuple[ColoringState, UpdateReport]:
    """Re-establish an optimal coloring after deleting edge (u,v).

    The endpoints of a present edge are differently colored and never form
    an order pair, so only the clique-size question remains. It is settled
    by at most one replay.

    When the held clique misses u or v (D-1) the state is returned
    unchanged, without a replay. Proof: the clique survives the deletion, so
    omega stays k, and the coloring stays proper. Deleting an edge never
    makes a non-adjacent pair adjacent, so every record still fires in
    turn. The final quotient stays complete: were two of its classes
    non-adjacent, merging them would color G-uv with k-1 colors below the
    surviving k-clique.

    Otherwise the state's ``order_structure`` decides first. By the same
    argument every record fires on G-uv in turn and ends in G's final k
    classes, of which only u's and v's can have lost their last edge: they
    have when no member of one class is adjacent in G-uv to the other. Then
    (a split) merging them is a (k-1)-coloring of G-uv, and the held clique
    minus u is a (k-1)-clique of G-uv: the event is D-2, and the order
    gains the record (min, max, z) of the two class ids, z one above every
    vertex and order id; ``_certified`` colors the new order by its classes.

    Without a split the old order still ends in a k-clique, and the strict
    two-pair replay, the only one that runs, decides omega(G-uv). It
    contracts only two-pairs, and contracting a two-pair of a weakly
    chordal graph keeps it weakly chordal and keeps chi and omega
    (Hayward-Hoang-Maffray), so the replay ends in a clique of
    k' = omega(G-uv) vertices, and its loop threads a k'-clique of G-uv
    back through it, with no ``lift``. k' = k is D-1: the old order and
    coloring are kept, certified by that clique. k' = k-1 is D-2, through
    ``_certified``, whose edge-free replay of the new order is the only one.
    """
    g2 = state.graph.delete_edge(u, v)  # raises if absent
    if u not in state.clique or v not in state.clique:
        return _finish(state, g2, "delete", u, v)
    k = state.color_count

    def repair():
        s = _structure(state)  # g2 shares the vertex tuple of G
        iu, iv = s.index[g2.pos(u)], s.index[g2.pos(v)]
        adj, other = g2.adj_masks(), s.masks[iv]
        if not any(adj[p] & other for p in _bits(s.masks[iu])):  # split: merge the two classes
            rec = ContractionRecord(*sorted((s.final[iu], s.final[iv])), fresh_id(g2, state.order))
            return _certified(state, g2, state.order + (rec,), k - 1, state.clique - {u})
        strict = replay_repair(g2, state.order)
        if strict.size == k:
            return ColoringState(g2, dict(state.coloring), k, strict.clique, state.order)
        return _certified(state, g2, strict.order, k - 1, strict.clique)

    return _finish(state, g2, "delete", u, v, repair=repair)
