"""Minimum coloring of weakly chordal graphs by two-pair contraction.

The static procedure repeatedly contracts a two-pair until the graph is a
clique and records the contraction sequence (the solution order). The
contraction loop, ``contract_to_clique``, lifts as it contracts: it keeps
each id's class as a bitmask of the original graph's positions, and the
adjacency masks each record fired on, so it hands back the final classes
(the coloring) and a maximum clique threaded back through the records
without walking the order again. The recorded order is replayable, which
is what the dynamic update layer relies on: its strict replay runs the same
loop with an order to replay. ``lift`` replays an order on class masks
alone and is the reference the loop's results are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graph import Graph
from .recognition import PairRanking, _bits, is_weakly_chordal


class NotWeaklyChordalError(ValueError):
    """No two-pair exists on a non-complete graph (Hayward property violated)."""


class InvalidContractionError(ValueError):
    """A contraction that may not fire.

    Raised by ``order_classes`` for an order record that references a dead
    vertex, contracts an edge, pairs a vertex with itself, or reuses an id.
    """


@dataclass(frozen=True)
class ContractionRecord:
    x: int
    y: int
    z: int

    def as_list(self) -> list[int]:
        return [self.x, self.y, self.z]


@dataclass(frozen=True)
class OrderStructure:
    """The graph-independent part of an order's replay on a vertex tuple.

    A record is structurally valid when its parents are live and distinct
    and its z is named by no vertex and no earlier record; whether it
    contracts an edge depends on the graph and is not checked here.
    ``cls`` holds the class of every id the order names, as in
    ``order_classes``; ``final`` the ids live after the last record,
    ascending, ``masks[i]`` the class of ``final[i]``, and ``index[p]`` the
    i whose class holds position p. ``vertices`` and ``order`` are the
    objects it was built from (see ``order_structure``).
    """

    vertices: tuple[int, ...]
    order: tuple[ContractionRecord, ...]
    final: tuple[int, ...]
    masks: tuple[int, ...]
    index: tuple[int, ...]
    cls: dict[int, int]

    def coloring(self) -> dict[int, int]:
        """Final classes take colors 1..k by ascending id; members take their class's."""
        return {v: i + 1 for v, i in zip(self.vertices, self.index)}


@dataclass
class ColoringState:
    """A graph together with its maintained optimal-coloring artifacts.

    ``order`` is the solution order, the contraction records in firing
    order; it is a tuple, so states share it instead of copying it.
    ``_structure`` memoises ``order_structure``: it is neither compared
    nor copied by ``dataclasses.replace``.
    """

    graph: Graph
    coloring: dict[int, int]
    color_count: int
    clique: frozenset[int]
    order: tuple[ContractionRecord, ...]
    _structure: Optional[OrderStructure] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        return {
            "colors": {str(v): c for v, c in sorted(self.coloring.items())},
            "color_count": self.color_count,
            "clique": sorted(self.clique),
            "order": [r.as_list() for r in self.order],
        }


@dataclass(frozen=True)
class Contraction:
    """What ``contract_to_clique`` read off its loop on a graph.

    ``order`` holds the records fired, in firing order; ``clique`` a
    maximum clique of the graph, threaded back through them; ``classes``
    the final classes as masks of the graph's sorted positions, by
    ascending final id. ``vertices`` is the graph's vertex tuple.
    """

    vertices: tuple[int, ...]
    order: tuple[ContractionRecord, ...]
    clique: frozenset[int]
    classes: tuple[int, ...]

    @property
    def size(self) -> int:
        """The number of final classes: chi and omega of the graph."""
        return len(self.classes)

    def coloring(self) -> dict[int, int]:
        """Final classes take colors 1..k by ascending id, as in ``OrderStructure``."""
        color = [0] * len(self.vertices)
        for c, m in enumerate(self.classes, 1):
            for p in _bits(m):
                color[p] = c
        return dict(zip(self.vertices, color))


def fresh_id(g: Graph, order: Sequence[ContractionRecord]) -> int:
    """One above every vertex of g and every id the order names: the first
    id a record added to the order may take."""
    return 1 + max([-1, *g.vertices, *(rec.z for rec in order)])


def contract_to_clique(
    g: Graph, replay: Sequence[ContractionRecord], z: int
) -> Contraction:
    """Contract g to a clique, replaying records where they fire, and lift
    the clique and the classes back to g.

    One ``PairRanking`` of g carries the loop. The records of ``replay``
    are swept to a fixpoint, each fired while it is a two-pair of the
    current quotient (``joinable``): a record that is not one right now may
    become one again after later contractions fire, so deferring instead of
    dropping keeps the invalidation from cascading through the record's
    descendants. Then, until the quotient is complete, the first two-pair
    in rank order (``pop_pair``) is contracted into the fresh id z, z + 1,
    ..., each followed by another sweep. A fresh id that is live raises
    ``GraphError``. The result's ``order`` holds the records fired, in
    firing order, which leave out every record of ``replay`` that never
    fired.

    By two-pair theory (Hayward-Hoang-Maffray) contracting a two-pair keeps
    a weakly chordal graph weakly chordal and keeps chi, so the loop ends
    in a clique of chi vertices, and a run out of two-pairs short of a
    clique raises ``NotWeaklyChordalError``. That holds for every two-pair
    order, so the loop needs only one: the ranking's, which makes its
    records a function of g, the records to replay and z.

    The loop lifts as it contracts. ``PairRanking.contract`` reports each
    firing's step: the slots of x and y, their adjacency masks just before
    it, and the slot z takes (a live id keeps its slot for life, and the
    base vertices' slots are g's sorted positions). ``cls[s]`` is the class
    of the id in slot s, as a mask of g's positions; one pass over the
    steps makes z's its parents' union, as in ``order_classes``. The final
    classes, those of the live slots by ascending id, color g. The clique
    starts as the live slots of the final quotient, a clique, and is
    threaded back through the steps as a slot mask cm: undoing a step whose
    z slot is in cm drops it and puts back x's slot when
    ``cm & ~n_x == 0``, else y's when ``cm & ~n_y == 0``. That is
    ``lift``'s test, ``nb[x] & cls[w]`` for every other member w.
    Proof: the other members are live after the record and are not z, so
    they were live just before it fired, in the same slots, and cm holds
    exactly their slots. The ranking's masks just before the record are the
    quotient's adjacency, as ``Graph.contract_pair`` builds it, and by
    ``order_classes``'s claim x and w are adjacent there iff
    ``nb[x] & cls[w]``; so both tests read the same, for y too, and the
    same parent goes back. The clique is ``lift``'s, and once every step is
    undone cm holds base slots, which are positions of g.
    """
    ranking = PairRanking(g)
    fired: list[ContractionRecord] = []
    steps: list[tuple[int, int, int, int, int]] = []  # per fired record, from contract

    def sweep(pending):
        """Fire every pending record that is a two-pair now, to a fixpoint."""
        progress = True
        while progress:
            progress = False
            deferred: list[ContractionRecord] = []
            for rec in pending:
                if ranking.joinable(rec.x, rec.y):
                    steps.append(ranking.contract(rec.x, rec.y, rec.z))
                    fired.append(rec)
                    progress = True
                else:
                    deferred.append(rec)
            pending = deferred
        return pending

    pending = sweep(replay)
    while not ranking.complete():
        pair = ranking.pop_pair()
        if pair is None:
            raise NotWeaklyChordalError(
                "no two-pair on a non-complete graph; input is not weakly chordal"
            )
        steps.append(ranking.contract(*pair, z))
        fired.append(ContractionRecord(*pair, z))
        z += 1
        if pending:
            pending = sweep(pending)
    cls = [1 << p for p in range(g.n)]  # slot -> class of the id in it
    for sz, sx, _, sy, _ in steps:
        cls[sz] = cls[sx] | cls[sy]
    slot = ranking.slots()
    final = sorted(slot)
    cm = 0
    for f in final:
        cm |= 1 << slot[f]
    for sz, sx, nx, sy, ny in reversed(steps):
        if cm >> sz & 1:
            cm ^= 1 << sz
            if not cm & ~nx:
                cm |= 1 << sx
            elif not cm & ~ny:
                cm |= 1 << sy
            else:
                raise NotWeaklyChordalError(
                    "clique lift failed: neither parent completes the clique"
                )
    ids = g.vertices
    clique = frozenset(ids[p] for p in _bits(cm))
    return Contraction(ids, tuple(fired), clique, tuple(cls[slot[f]] for f in final))


def order_classes(
    g: Graph, records: Sequence[ContractionRecord]
) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """Replay an order on class masks: the masks of every id and the sorted final ids.

    ``cls[id]`` is the mask of the sorted positions of ``g`` that the id
    stands for, ``nb[id]`` the OR of their adjacency masks; a record's
    parents keep theirs, so ``cls`` and ``nb`` hold every id the order
    names. The final ids are the ones live after the last record.

    A record fires only on live, distinct, non-adjacent parents and a z
    that no base vertex or earlier record has taken, so every id is named
    once and the masks, keyed by id, are unambiguous. A record that breaks
    this raises ``InvalidContractionError``; the checks run in the order
    dead vertex, edge, self-pair, live id, dead id. Two-pair-ness is how
    records are found, not what makes them valid: optimality is certified
    by a coloring and a clique of the same size.

    This is the certificate that a replay through ``Graph.contract_pair``
    computes. Claim: in that replay, live ids a and b are adjacent iff
    ``nb[a] & cls[b]`` is non-zero, and each class is an independent set.
    Singletons satisfy this. A record fires only on non-adjacent parents,
    so the union of two independent classes with no edge between them is
    independent again. ``contract_pair`` makes z adjacent to exactly
    N(x) | N(y), that is, to each class some member of x or of y touches,
    and ``nb[x] | nb[y]`` meets ``cls[w]`` exactly then. So every adjacency
    test of the replay, the completeness of the final quotient and its size
    read the same on both sides.
    """
    return _replay(g.vertices, records, g.adj_masks())


def _replay(
    ids: Sequence[int], records: Sequence[ContractionRecord], adj: Optional[list[int]]
) -> tuple[dict[int, int], Optional[dict[int, int]], list[int]]:
    """``order_classes`` on the vertex ids and adjacency masks ``adj``; with
    ``adj`` None there is no ``nb`` and no edge check, only the structural
    ones, in the same order."""
    cls = {v: 1 << p for p, v in enumerate(ids)}
    nb = None if adj is None else dict(zip(ids, adj))
    live = set(ids)
    for rec in records:
        x, y, z = rec.x, rec.y, rec.z
        if x not in live or y not in live:
            problem = "references dead vertex"
        elif nb is not None and nb[x] & cls[y]:
            problem = "contracts an edge"
        elif x == y:
            problem = "pairs a vertex with itself"
        elif z in live:
            problem = f"reuses live id {z}"
        elif z in cls:
            problem = f"reuses dead id {z}"
        else:
            cls[z] = cls[x] | cls[y]
            if nb is not None:
                nb[z] = nb[x] | nb[y]
            live.remove(x)
            live.remove(y)
            live.add(z)
            continue
        raise InvalidContractionError(f"order record ({x},{y},{z}) {problem}")
    return cls, nb, sorted(live)


def order_structure(state: ColoringState) -> Optional[OrderStructure]:
    """The structure of ``state.order`` on ``state.graph.vertices``, or None
    when a record is not structurally valid.

    It is a function of those two immutable tuples alone, so it is kept
    on the state and reused while both are the very objects it was built
    from. An edge flip keeps the vertex tuple (``Graph._from_masks``
    shares it), so a state that an update moves onto a new graph with the
    same order can take its predecessor's. Anything else, a list for an
    order, or a graph or order swapped in place, builds it again.
    """
    ids, order = state.graph.vertices, state.order
    s = state._structure
    if s is not None and s.vertices is ids and s.order is order:
        return s
    try:
        cls, _, final = _replay(ids, order, None)
    except InvalidContractionError:
        return None
    s = _structure_from(ids, order, cls, final)
    if type(order) is tuple:
        state._structure = s
    return s


def _structure_from(
    ids: tuple[int, ...], order: Sequence[ContractionRecord], cls: dict[int, int], final: list[int]
) -> OrderStructure:
    """The ``OrderStructure`` of the classes and final ids a replay built."""
    masks = tuple(cls[f] for f in final)
    index = [0] * len(ids)
    for i, m in enumerate(masks):
        for p in _bits(m):
            index[p] = i
    return OrderStructure(ids, order, tuple(final), masks, tuple(index), cls)


def lift_coloring(
    g: Graph, records: Sequence[ContractionRecord]
) -> tuple[dict[int, int], int]:
    """Coloring part of the lift only: classes get colors, no clique threading.
    No library code calls it; the updates color from an ``OrderStructure``."""
    cls, _, final = order_classes(g, records)
    return _structure_from(g.vertices, records, cls, final).coloring(), len(final)


def lift(
    g: Graph, records: Sequence[ContractionRecord]
) -> tuple[dict[int, int], frozenset[int], int]:
    """Lift clique and coloring from the final clique back to the graph ``g``.

    The coloring is the ``OrderStructure`` coloring of the replay's classes.
    The clique starts as the final ids and is threaded back through the
    records: undoing a record whose z is in the clique puts back the parent
    adjacent to every other member.

    Adjacency is read from the class masks of ``order_classes``, not from a
    ``Graph`` per record: before a record fires, live ids a and b are
    adjacent in the quotient iff ``nb[a] & cls[b]`` is non-zero. The clique
    members other than z are live before the record too, so the test is
    exact. ``order_classes`` raises ``InvalidContractionError`` on an order
    that names an id twice or fires a record that may not fire.

    No library code calls it: ``contract_to_clique`` lifts as it contracts.
    It is the reference replay of an order the tests hold that loop to.
    """
    cls, nb, final = order_classes(g, records)
    clique = set(final)
    for rec in reversed(records):
        if rec.z in clique:
            clique.discard(rec.z)
            if all(nb[rec.x] & cls[w] for w in clique):
                clique.add(rec.x)
            elif all(nb[rec.y] & cls[w] for w in clique):
                clique.add(rec.y)
            else:
                raise NotWeaklyChordalError(
                    "clique lift failed: neither parent completes the clique"
                )
    return _structure_from(g.vertices, records, cls, final).coloring(), frozenset(clique), len(final)


def static_color(g: Graph, *, verify: bool = False) -> ColoringState:
    """Simultaneous maximum clique and minimum coloring via contraction.

    ``contract_to_clique`` with nothing to replay: each step contracts the
    first two-pair in ``PairRanking``'s order, so equal graphs get equal
    orders, and the loop's classes and clique are the state's coloring and
    clique. The fresh ids count up from ``g.next_id``, as
    ``Graph.contract_pair`` hands them out; one that is already live raises
    ``GraphError``. Verify mode raises when g is not weakly chordal, or when
    a ``Graph`` copy contracted per record stops being so. The state does
    not keep the loop's classes as its ``order_structure``: ``verify_state``
    certifies it by the order's own replay.
    """
    if verify and not is_weakly_chordal(g):
        raise NotWeaklyChordalError("input graph is not weakly chordal")
    c = contract_to_clique(g, (), g.next_id)
    if verify:
        cur = g
        for rec in c.order:
            cur, _ = cur.contract_pair(rec.x, rec.y, rec.z)
            if not is_weakly_chordal(cur):
                raise NotWeaklyChordalError(
                    f"contraction of ({rec.x},{rec.y}) broke weak chordality"
                )
    return ColoringState(g, c.coloring(), c.size, c.clique, c.order)


def chromatic_number(g: Graph) -> int:
    return static_color(g).color_count


def diagnose_state(state: ColoringState) -> list[str]:
    """All invariant violations of a ColoringState, as human-readable strings.

    A valid state has a proper coloring with the colors 1..``color_count``
    (ints, not bools), a ``color_count``-clique, and an order whose replay
    on the graph ends in a ``color_count``-clique. Problems come in that
    order; a coloring whose domain is not the vertex set, or with a color
    off the palette, ends the list, and off-palette vertices come in id
    order. The coloring's bad edges come in ``g.edges()`` order, clique
    members that are no vertex before the member pairs that are not
    adjacent, and the first record that may not fire is the last problem.

    The order is certified by its ``order_structure``, which the state
    keeps, and mask passes over the current graph; ``order_classes``, the
    replay whose masks read as a ``Graph.contract_pair`` replay does (see
    its docstring), runs only to name the first record that may not fire.
    (a) Every class a structurally valid order builds lies inside a final
    class, and a record contracts an edge exactly when an edge joins its
    two sides, both inside its z's class. So some record contracts an edge
    iff some final class is not independent: the first record that puts
    both ends of an edge into one class contracts it. With independent
    final classes every record fires, and the final quotient is the
    structure's; with dependent ones, or no structure, ``order_classes``
    raises on the first bad record.
    (b) When the final classes are k = ``color_count`` independent sets
    and the held clique is a genuine k-clique, each class holds at most
    one member, so each holds exactly one, and any two classes are adjacent
    through their members: the final quotient is a k-clique with no
    pairwise scan. Otherwise the scan runs on each final class's
    neighbourhood, the OR of its members' adjacency.
    """
    problems: list[str] = []
    g = state.graph
    coloring = state.coloring
    if set(coloring) != set(g.vertices):
        problems.append("coloring domain differs from vertex set")
        return problems
    ids = g.vertices
    color_at = [coloring[v] for v in ids]
    k = state.color_count
    off_palette = [
        f"vertex {v} has color {c!r}, not one of 1..{k}"
        for v, c in zip(ids, color_at)
        if type(c) is not int or not 0 < c <= k
    ]
    if off_palette:
        return off_palette
    # One mask per color 1..min(k, n): position p has a bad edge to a later
    # position iff its adjacency meets its own color's mask above bit p. A
    # count above n is wrong whatever the colors are; the colors used, at
    # most n, are then numbered 1, 2, ... so that memory follows n, not k.
    if k > len(ids):
        dense = {c: i for i, c in enumerate(dict.fromkeys(color_at), 1)}
        color_at = [dense[c] for c in color_at]
    color_mask = [0] * (min(k, len(ids)) + 1)
    for p, c in enumerate(color_at):
        color_mask[c] |= 1 << p
    adj = g.adj_masks()
    for p, m in enumerate(adj):
        bad = (m & color_mask[color_at[p]]) >> (p + 1)
        while bad:
            low = bad & -bad
            problems.append(f"improper coloring on edge ({ids[p]},{ids[p + low.bit_length()]})")
            bad ^= low
    used = len(color_mask) - color_mask.count(0)
    if used != k:
        problems.append(f"{used} distinct colors used, color_count={k}")
    if len(state.clique) != state.color_count:
        problems.append(f"clique size {len(state.clique)} != color_count {state.color_count}")
    # One mask of the members' positions: a member misses the later members
    # whose bits lie above its position and outside its adjacency (positions
    # ascend with ids). A member that is no vertex (position -1) is adjacent
    # to nothing.
    members = sorted(state.clique)
    at = [g.pos(v) if v in g else -1 for v in members]
    problems += [f"clique member {v} is not a vertex" for v, p in zip(members, at) if p < 0]
    cm = 0
    for p in at:
        if p >= 0:
            cm |= 1 << p
    stray = -1 in at
    genuine = len(members) == k and not stray
    for i, (u, p) in enumerate(zip(members, at)):
        missed = cm & ~adj[p] & ~((2 << p) - 1) if p >= 0 else -1
        if missed or stray:
            genuine = False
            for v, q in zip(members[i + 1 :], at[i + 1 :]):
                if q < 0 or missed >> q & 1:
                    problems.append(f"clique members ({u},{v}) are not adjacent")
    s = order_structure(state)
    if s is None or any(m & s.masks[i] for m, i in zip(adj, s.index)):
        try:
            order_classes(g, state.order)
        except InvalidContractionError as exc:
            problems.append(str(exc))
            return problems
        raise AssertionError("order_classes fired an order with a dependent final class")
    final, masks = s.final, s.masks
    if not (genuine and len(final) == k):  # else a k-clique by (b)
        nb = [0] * len(final)
        for m, i in zip(adj, s.index):
            nb[i] |= m
        if not all(nb[i] & masks[j] for i in range(len(final)) for j in range(i + 1, len(final))):
            problems.append("order replay does not end in a clique")
        elif len(final) != k:
            problems.append(f"replayed clique has {len(final)} vertices, expected {k}")
    return problems


def verify_state(state: ColoringState) -> bool:
    return not diagnose_state(state)
