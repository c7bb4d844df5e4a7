"""Dynamic maintenance of an optimal coloring under single-edge events.

The maintained ``ColoringState`` is updated by case analysis on the
solution order: membership of the event edge in the order (whether a record
merged the class of one endpoint with the class of the other),
equality of the endpoint colors, and whether the clique grows or shrinks.
Repair is local: the recorded contraction sequence is replayed on the
perturbed graph, invalid records are dropped, and replacements are contracted
greedily, searched first near the affected vertices. Three cases replay
nothing and keep the order: I-1 and I-2-1, the latter recoloring, and D-1
when the held clique misses an endpoint of the deleted edge. A deletion
inside the held clique whose endpoints' final classes lose their last edge
is D-2 without a replay: it adds the one record merging those classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Graph
from .recognition import PairRanking, _bits
from .static_coloring import (
    ColoringState,
    ContractionRecord,
    NotWeaklyChordalError,
    lift,
    lift_coloring,
    order_classes,
    run_contractions,
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
# order membership by class
# ---------------------------------------------------------------------------

def matching_records(
    order: tuple[ContractionRecord, ...], u: int, v: int
) -> list[ContractionRecord]:
    """Records whose contraction merged u's side with v's side.

    The event edge (u,v) belongs to the order iff u and v fall into the two
    classes a record merges. Membership is all this needs, so the class
    masks keep only two bits, u's (1) and v's (2): ``cls[z]`` is
    ``cls[x] | cls[y]``, and an id no record has given a bit reads 0. The
    order is trusted, as ``insert_update`` trusts it; ``order_classes`` is
    the replay that validates one.
    """
    cls = {u: 1, v: 2}
    out = []
    for rec in order:
        cx, cy = cls.get(rec.x, 0), cls.get(rec.y, 0)
        if cx | cy:
            cls[rec.z] = cx | cy
            if cx & 1 and cy & 2 or cx & 2 and cy & 1:
                out.append(rec)
    return out


# ---------------------------------------------------------------------------
# clique growth detection
# ---------------------------------------------------------------------------

def _find_clique(adj: list[int], cand: int, size: int, classes: list[int]) -> Optional[int]:
    """A clique of `size` inside the candidate position set, as a bitmask.

    `classes` are the position masks of the color classes of a proper
    coloring. A clique takes one vertex from each of `size` distinct
    classes, so a branch whose candidates meet fewer classes holds none
    and is cut. Only branches without a clique are cut, so the search
    still returns the first clique the uncut search returns.
    """
    if size <= 0:
        return 0
    while sum(1 for m in classes if m & cand) >= size:
        low = cand & -cand
        p = low.bit_length() - 1
        rest = _find_clique(adj, cand & adj[p], size - 1, classes)
        if rest is not None:
            return rest | low
        cand ^= low
    return None


def _growth_witness(state: ColoringState, u: int, v: int) -> Optional[frozenset[int]]:
    """A clique of size omega+1 in G+(u,v), or None when omega is unchanged.

    Exact local test: a single inserted edge grows the clique iff the common
    neighborhood of u and v contains a clique of size omega - 1.
    """
    g = state.graph
    target = state.color_count - 1
    if target <= 0:
        return frozenset((u, v))
    classes: dict[int, int] = {}
    for w, c in state.coloring.items():
        classes[c] = classes.get(c, 0) | 1 << g.pos(w)
    mask = _find_clique(g.adj_masks(), g.adj_mask(u) & g.adj_mask(v), target, list(classes.values()))
    if mask is None:
        return None
    ids = g.vertices
    return frozenset({u, v} | {ids[p] for p in _bits(mask)})


def clique_grows(state: ColoringState, u: int, v: int) -> bool:
    """Whether inserting (u,v) raises the clique number by one."""
    return _growth_witness(state, u, v) is not None


# ---------------------------------------------------------------------------
# order repair by replay
# ---------------------------------------------------------------------------

@dataclass
class RepairResult:
    records: tuple[ContractionRecord, ...]
    removed: list[ContractionRecord]
    added: list[ContractionRecord]


def replay_repair(
    graph: Graph,
    order: tuple[ContractionRecord, ...],
    hint: set[int],
    strict: bool = True,
    exclude: tuple[ContractionRecord, ...] = (),
) -> RepairResult:
    """Replay the order on a perturbed graph, dropping and replacing records.

    A record is invalid when a parent id is dead (its producing record was
    dropped), when its pair became an edge, or — in strict mode — when its
    pair is no longer a two-pair. After the valid records replay, fresh
    pairs are contracted greedily, searched first near the affected
    vertices, each followed by another sweep of the pending records. Both
    run on one ``PairRanking`` of the perturbed graph, as ``static_color``
    does: records fire through ``contract``, fresh pairs come from ``pop_pair``.

    Both modes contract until the quotient is complete. Strict mode
    contracts only two-pairs; by two-pair theory (Hayward-Hoang-Maffray) a
    weakly chordal graph then ends in a clique of chi vertices, and a run
    out of two-pairs short of a clique raises. Lenient mode (strict=False)
    keeps stale-but-non-adjacent records, which confines the order delta to
    records directly hit by the event, and contracts any non-adjacent pair;
    ``pop_pair`` returns one while any is left, so a lenient replay always
    ends complete. Every class stays independent, so the class count
    ``graph.n - len(records)`` never sinks below chi, and at chi the classes
    are a chi-coloring. A greedy merge can instead paint the quotient into a
    clique above chi; callers judge the count against the one the local
    case analysis knows and certify the result through ``lift``.
    """
    ranking = PairRanking(graph)
    kept: list[ContractionRecord] = []
    affected = set(hint)
    # Sweep the order to a fixpoint: a record that is not a two-pair right
    # now may become one again after later contractions fire, so deferring
    # instead of dropping keeps the invalidation from cascading through the
    # record's descendants.
    pending = [rec for rec in order if rec not in exclude]
    dropped = [rec for rec in order if rec in exclude]
    added: list[ContractionRecord] = []
    # fresh ids must not collide with deferred records' ids
    next_z = 1 + max([-1, *graph.vertices, *(rec.z for rec in order)])

    def sweep(pending):
        """Fire every currently-valid pending record, to a fixpoint."""
        progress = True
        while progress:
            progress = False
            deferred: list[ContractionRecord] = []
            for rec in pending:
                if ranking.joinable(rec.x, rec.y, two_only=strict):
                    ranking.contract(rec.x, rec.y, rec.z)
                    kept.append(rec)
                    progress = True
                else:
                    deferred.append(rec)
            pending = deferred
        return pending

    pending = sweep(pending)
    while not ranking.complete():
        pair = ranking.pop_pair(affected, two_only=strict)
        if pair is None:
            break
        ranking.contract(*pair, next_z)
        rec = ContractionRecord(*pair, next_z)
        next_z += 1
        kept.append(rec)
        added.append(rec)
        affected.add(rec.z)
        pending = sweep(pending)
    if not ranking.complete():
        raise NotWeaklyChordalError("order repair did not terminate in a clique")
    return RepairResult(tuple(kept), dropped + pending, added)


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
) -> tuple[dict[int, int], frozenset[int]]:
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
    final = {v: relabel[c - 1] + 1 for v, c in new_coloring.items()}
    recolored = frozenset(v for v, c in final.items() if old_coloring.get(v) != c)
    return final, recolored


# ---------------------------------------------------------------------------
# the dynamic updates
# ---------------------------------------------------------------------------

def _fallback(graph: Graph, old: ColoringState) -> tuple[ColoringState, frozenset[int]]:
    log.warning("dynamic repair exhausted; falling back to full static recompute")
    records = run_contractions(graph)
    coloring, clique, k = lift(graph, records)
    coloring, recolored = _match_palette(coloring, old.coloring, k)
    return ColoringState(graph, coloring, k, clique, records), recolored


def _finish(
    old: ColoringState, graph: Graph, kind: str, u: int, v: int,
    case: Optional[str] = None, repair: Optional[Callable[[], tuple]] = None,
) -> tuple[ColoringState, UpdateReport]:
    """The post-event state on `graph` and its report.

    `repair()` returns the new order, its removed and added records, the
    coloring, the recolored vertices, the color count and the clique;
    without a repair the old state moves onto `graph` unchanged. A repair
    that raises ``NotWeaklyChordalError`` falls back to a static recompute,
    reported as removing the whole old order and adding the new one. An
    insertion passes its case; a deletion's is read off the count it ends
    at, D-1 when it keeps k and D-2 when it lowers it.
    """
    k = old.color_count
    fallback = False
    if repair is None:
        new = ColoringState(graph, dict(old.coloring), k, old.clique, old.order)
        recolored, removed, added = frozenset(), [], []
    else:
        try:
            order, removed, added, coloring, recolored, k_new, clique = repair()
            new = ColoringState(graph, coloring, k_new, clique, order)
        except NotWeaklyChordalError:
            fallback = True
            new, recolored = _fallback(graph, old)
            removed, added = list(old.order), list(new.order)
    if kind == "delete":
        case = "D-1" if new.color_count == k else "D-2"
    return new, UpdateReport(
        kind, u, v, case, recolored, removed, added, k, new.color_count, fallback
    )


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
    """
    h = state.graph.insert_edge(u, v)  # raises if present / unknown
    matches = matching_records(state.order, u, v)
    if not matches and state.coloring[u] != state.coloring[v]:
        return _finish(state, h, "insert", u, v, "I-1")
    k = state.color_count
    if not matches:
        def recolor():
            coloring = dict(state.coloring)
            for w in (u, v):  # the smallest palette color free around w
                free = set(range(1, k + 1)) - {coloring[x] for x in h.neighbors(w)}
                if free:
                    coloring[w], recolored = min(free), frozenset((w,))
                    break
            else:
                lifted, _ = lift_coloring(h, state.order)
                coloring, recolored = _match_palette(lifted, state.coloring, k)
            return state.order, [], [], coloring, recolored, k, state.clique

        return _finish(state, h, "insert", u, v, "I-2-1", recolor)
    witness = _growth_witness(state, u, v)
    grows = witness is not None
    expected = k + grows

    def repair():
        # Lenient ladder: replay everything first; when the quotient
        # completes above the known color count, retry with each single
        # record broken so its parents can re-pair with the split classes.
        # Within a rung keep the smallest order delta: drop choices that
        # strand extra pending records inflate the pair count needlessly.
        best = None
        for level in ([()], [(rec,) for rec in state.order]):
            for drops in level:
                hint = {u, v} | {w for r in drops for w in (r.x, r.y)}
                res = replay_repair(h, state.order, hint, strict=False, exclude=drops)
                pc = len(res.removed) + len(res.added)
                if h.n - len(res.records) == expected and (best is None or pc < best[0]):
                    best = (pc, res)
            if best is not None:
                break
        if best is not None:
            # Optimality is certified externally: insertion never destroys
            # cliques, so the old clique witnesses an unchanged omega, and
            # the growth witness from the case analysis covers omega + 1.
            # I-3-2 keeps the old coloring, so only I-3-1 lifts one.
            res, clique = best[1], witness
            if not grows:
                lifted, _ = lift_coloring(h, res.records)
        else:  # the strict two-pair replay, certified by its own lift
            res = replay_repair(h, state.order, {u, v}, strict=True)
            lifted, clique, k_new = lift(h, res.records)
            if k_new != expected:
                raise NotWeaklyChordalError(f"repair clique size {k_new}, expected {expected}")
        if grows:  # I-3-2: one endpoint takes the brand-new color
            w = min(u, v)
            coloring, recolored = {**state.coloring, w: expected}, frozenset((w,))
        else:
            coloring, recolored = _match_palette(lifted, state.coloring, expected)
            clique = state.clique
        return res.records, res.removed, res.added, coloring, recolored, expected, clique

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

    Otherwise the order's class masks (``order_classes``) decide first. By
    the same argument every record fires on G-uv in turn and ends in G's
    final k classes, of which only u's and v's can have lost their last
    edge. When they have (a split), merging them is a (k-1)-coloring of
    G-uv, and the held clique minus u is a (k-1)-clique of G-uv: the event
    is D-2, and the order gains the record (min, max, z) of the two class
    ids, z one above every vertex and order id. A lenient ``replay_repair``
    ends in the same record and result: its sweep fires every record, and
    its greedy step pops the only non-adjacent pair.

    Without a split the old order still ends in a k-clique, and the strict
    two-pair replay, the only one that runs, decides omega(G-uv). It
    contracts only two-pairs, and contracting a two-pair of a weakly
    chordal graph keeps it weakly chordal and keeps chi and omega
    (Hayward-Hoang-Maffray), so the replay ends in a clique of
    k' = omega(G-uv) vertices, and the lift threads a k'-clique of G-uv
    back through it. k' = k is D-1: the old order and coloring are kept,
    certified by the lifted clique. k' = k-1 is D-2 on the strict records.
    """
    g2 = state.graph.delete_edge(u, v)  # raises if absent
    if u not in state.clique or v not in state.clique:
        return _finish(state, g2, "delete", u, v)
    k = state.color_count

    def repair():
        cls, nb, final = order_classes(g2, state.order)
        cu, cv = (next(f for f in final if cls[f] >> g2.pos(w) & 1) for w in (u, v))
        if not nb[cu] & cls[cv]:  # split: merge the two classes
            z = 1 + max([*g2.vertices, *(rec.z for rec in state.order)])
            rec = ContractionRecord(min(cu, cv), max(cu, cv), z)
            order = state.order + (rec,)
            lifted, _ = lift_coloring(g2, order)
            coloring, recolored = _match_palette(lifted, state.coloring, k - 1)
            return order, [], [rec], coloring, recolored, k - 1, state.clique - {u}
        res = replay_repair(g2, state.order, {u, v}, strict=True)
        lifted, clique, k_new = lift(g2, res.records)
        if k_new == k:
            return state.order, [], [], dict(state.coloring), frozenset(), k, clique
        if k_new != k - 1:
            raise NotWeaklyChordalError(f"deletion changed clique size {k} -> {k_new}")
        coloring, recolored = _match_palette(lifted, state.coloring, k_new)
        return res.records, res.removed, res.added, coloring, recolored, k_new, clique

    return _finish(state, g2, "delete", u, v, repair=repair)
