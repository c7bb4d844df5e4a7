"""Structural recognition for weakly chordal graphs.

Holes (chordless cycles of length >= 5), antiholes, weak chordality,
chordal bipartiteness, two-pair detection, and induced-subgraph scanning
for a forbidden-pattern library. Everything here is a pure function of
immutable graphs, except ``PairRanking``: the mutable ranking of candidate
pairs that one contraction loop owns and updates in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graph import Graph, GraphError

ORACLE_CAP = 14


class OracleCapExceeded(ValueError):
    """Exhaustive oracle invoked above its configured vertex cap."""


@dataclass(frozen=True)
class TwoPair:
    x: int
    y: int

    def __iter__(self):
        return iter((self.x, self.y))


# ---------------------------------------------------------------------------
# bitmask BFS helpers
# ---------------------------------------------------------------------------

def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bfs_reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """Positions reachable from `start` staying inside the `allowed` mask."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


# ---------------------------------------------------------------------------
# admission of one edge event
# ---------------------------------------------------------------------------

def _hole_through_edge(adj: Sequence[int], pu: int, pv: int) -> bool:
    """Whether a hole of H (adjacency masks `adj`) contains the edge at positions pu, pv.

    One orientation suffices: in a hole through the edge ab, b has a
    second hole neighbour c, non-adjacent to a, so the triple a-b-c lies
    on the hole whichever endpoint is b. Take as b the endpoint with fewer
    neighbours outside N[a]. The path from a to c along the hole runs
    through H - N[b] and starts at a neighbour of a there, so its interior
    lies in R, the part of H - N[b] reachable from N(a) - N[b], and c is a
    vertex of N(b) - N[a]. It also misses N(a) & N(c), or the hole would
    be a 4-cycle. So for each such c a BFS from a to c inside
    (R - N(a) & N(c)) | {a, c} finds a path whenever the hole exists. Any
    path it finds gives a hole, so a True is always sound: a shortest path
    through that set is chordless, has at least 3 edges (a and c are
    non-adjacent and have no common neighbour there), and closes through
    b, which misses its interior.

    The BFS runs only when a has a neighbour in R outside N(c) and c has
    one outside N(a), which skips no path it could find: the path's first
    interior vertex lies in N(a) & R and, being allowed, outside
    N(a) & N(c), so outside N(c); likewise its last one for c.
    """
    pb, pa = pu, pv
    if (adj[pu] & ~adj[pv]).bit_count() > (adj[pv] & ~adj[pu]).bit_count():
        pb, pa = pv, pu
    na = adj[pa]
    outside = (1 << len(adj)) - 1 & ~adj[pb] & ~(1 << pb)
    region = _bfs_reach(adj, pa, outside | 1 << pa) & ~(1 << pa)
    for pc in _bits(adj[pb] & ~na & ~(1 << pa)):
        nc = adj[pc]
        if na & region & ~nc and nc & region & ~na:
            allowed = region & ~(na & nc) | 1 << pa | 1 << pc
            if _bfs_reach(adj, pa, allowed) >> pc & 1:
                return True
    return False


def _hole_through_pair(adj: Sequence[int], pu: int, pv: int) -> bool:
    """Whether a hole of H (adjacency masks `adj`) contains the non-adjacent positions pu and pv.

    Centre the search at b, the one of the two with the smaller degree,
    and call the other o. In a hole through b and o, b has two
    non-adjacent hole neighbours a and c, and the path between them that
    passes o runs through H - N[b]. So its interior lies in K, the
    component of o in H - N[b], and a and c both touch K. The path misses
    N(a) & N(c), or the hole would be a 4-cycle; in particular o is not in
    N(a) & N(c), and such pairs are skipped. For every other non-adjacent
    pair a, c of neighbours of b that touch K, a BFS from a to c inside
    (K - N(a) & N(c)) | {a, c} finds a path whenever that hole exists.
    As in ``_hole_through_edge``, any path it finds closes into a hole
    through b, so a True is always sound.

    The BFS runs only when a has a neighbour in K outside N(c) and c has
    one outside N(a): with K-signatures S(a) = N(a) & K, when neither of
    S(a), S(c) contains the other. This skips no path the BFS could find.
    Such a path has an interior, as a and c are non-adjacent; its first
    interior vertex lies in S(a) and, being allowed, outside N(a) & N(c),
    so outside N(c); likewise its last interior vertex for c. So both ends
    of a searched pair have a signature that is neither empty (a neighbour
    of b touches K exactly then) nor all of K, which contains every other
    signature. The loop runs over those neighbours of b alone
    (``_straddlers``).
    """
    pb, po = (pu, pv) if adj[pu].bit_count() <= adj[pv].bit_count() else (pv, pu)
    outside = (1 << len(adj)) - 1 & ~adj[pb] & ~(1 << pb)
    component = _bfs_reach(adj, po, outside)
    rest = _straddlers(adj, adj[pb], component)
    while rest:
        low = rest & -rest
        pa = low.bit_length() - 1
        rest ^= low
        na = adj[pa]
        partners = rest & ~na
        if na >> po & 1:
            partners &= ~adj[po]
        for pc in _bits(partners):
            nc = adj[pc]
            if na & component & ~nc and nc & component & ~na:
                allowed = component & ~(na & nc) | low | 1 << pc
                if _bfs_reach(adj, pa, allowed) >> pc & 1:
                    return True
    return False


def _straddlers(adj: Sequence[int], nbrs: int, component: int) -> int:
    """The members of `nbrs` whose neighbourhood meets the non-empty
    `component` but does not hold all of it, by one pass over the smaller set.

    A pass over K = `component` ORs and ANDs its members' masks: by
    symmetry a lies in the OR exactly when N(a) & K is not empty, and in
    the AND exactly when N(a) holds all of K. A pass over `nbrs` compares
    N(a) & K with 0 and with K for each member a. Both give the same set.
    """
    if component.bit_count() <= nbrs.bit_count():
        some, every, m = 0, nbrs, component
        while m:
            low = m & -m
            nk = adj[low.bit_length() - 1]
            some |= nk
            every &= nk
            m ^= low
        return nbrs & some & ~every
    out, m = 0, nbrs
    while m:
        low = m & -m
        seen = adj[low.bit_length() - 1] & component
        if seen and seen != component:
            out |= low
        m ^= low
    return out


def _flip(g: Graph, pu: int, pv: int) -> list[int]:
    """g's adjacency masks with the pair at positions pu, pv flipped."""
    adj = g.adj_masks()
    adj[pu] ^= 1 << pv
    adj[pv] ^= 1 << pu
    return adj


@functools.lru_cache(maxsize=64)
def _all_but(n: int) -> tuple[int, ...]:
    """Per position p of n, the mask of every other position."""
    full = (1 << n) - 1
    return tuple(full ^ 1 << p for p in range(n))


def _complement(adj: Sequence[int]) -> list[int]:
    """The complement's adjacency masks."""
    return [d ^ m for d, m in zip(_all_but(len(adj)), adj)]


def stays_weakly_chordal_after_insert(g: Graph, u: int, v: int) -> bool:
    """Whether G + (u,v) is weakly chordal, given that G already is.

    Raises ``GraphError`` as ``Graph.insert_edge`` does. A hole of G + uv
    that misses the edge uv is a hole of G, so every new hole contains uv.
    An antihole of G + uv is a hole of its complement, which is the
    complement of G minus the pair uv; a hole there that misses u or v is
    a hole of the complement of G, so every new antihole contains both u
    and v. Both searches only ever report real holes, so a rejection is
    sound even when G is not weakly chordal.
    """
    pu, pv = g.insert_positions(u, v)
    adj = _flip(g, pu, pv)
    return not _hole_through_edge(adj, pu, pv) and not _hole_through_pair(_complement(adj), pu, pv)


def stays_weakly_chordal_after_delete(g: Graph, u: int, v: int) -> bool:
    """Whether G - (u,v) is weakly chordal, given that G already is.

    Raises ``GraphError`` as ``Graph.delete_edge`` does. The insert case
    with G and its complement swapped: every new hole of G - uv contains
    both u and v, and every new antihole contains the edge uv of the
    complement of G - uv.
    """
    pu, pv = g.delete_positions(u, v)
    adj = _flip(g, pu, pv)
    return not _hole_through_pair(adj, pu, pv) and not _hole_through_edge(_complement(adj), pu, pv)


# ---------------------------------------------------------------------------
# whole-graph recognition
# ---------------------------------------------------------------------------

def _hole_free(adj: Sequence[int]) -> bool:
    """Whether H (adjacency masks `adj`) has no hole.

    Every hole has edges, so H has a hole iff one of its edges lies on
    one. ``_hole_through_edge`` decides that exactly for each edge on any
    graph: its proof does not assume weak chordality. The edges are tried
    in position order, up to the first one on a hole.
    """
    for pu, nu in enumerate(adj):
        for pv in _bits(nu & ~((2 << pu) - 1)):
            if _hole_through_edge(adj, pu, pv):
                return False
    return True


def is_weakly_chordal(g: Graph) -> bool:
    """Hole-free and antihole-free (an antihole is a hole of the complement)."""
    adj = g.adj_masks()
    return _hole_free(adj) and _hole_free(_complement(adj))


# ---------------------------------------------------------------------------
# bipartite structure
# ---------------------------------------------------------------------------

def bipartition(g: Graph) -> Optional[tuple[set[int], set[int]]]:
    """A 2-coloring of g, or None if an odd cycle exists."""
    side: dict[int, int] = {}
    for root in g.vertices:
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    left = {v for v, s in side.items() if s == 0}
    return left, set(g.vertices) - left


def is_chordal_bipartite(g: Graph, parts: Optional[tuple[Iterable[int], Iterable[int]]] = None) -> bool:
    """Every chordless cycle has length exactly four.

    In a bipartite graph all cycles are even, so this reduces to hole-freeness.
    """
    if parts is not None:
        left, right = set(parts[0]), set(parts[1])
        if left & right or left | right != set(g.vertices):
            raise ValueError("parts do not partition the vertex set")
        for u, v in g.edges():
            if (u in left) == (v in left):
                raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    elif bipartition(g) is None:
        return False
    return _hole_free(g.adj_masks())


# ---------------------------------------------------------------------------
# two-pairs
# ---------------------------------------------------------------------------

def is_two_pair(g: Graph, x: int, y: int) -> bool:
    """Non-adjacent pair all of whose chordless connecting paths have 2 edges.

    Equivalent co-connectivity test: x and y fall into different components
    of G minus their common neighborhood.
    """
    if x == y or g.has_edge(x, y):
        return False
    adj = g.adj_masks()
    px, py = g.pos(x), g.pos(y)
    common = adj[px] & adj[py]
    allowed = (1 << g.n) - 1 & ~common
    return not _bfs_reach(adj, px, allowed) >> py & 1


def _ascending(pairs: set[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The pairs in ascending order. The first comes from one linear pass:
    most scans stop there, and only a scan past it pays for the sort."""
    first = min(pairs)
    yield first
    yield from sorted(pairs - {first})


def _near(adj: Sequence[int], nbrs: int, candidates: int) -> int:
    """The candidates worth a walk from a vertex whose neighbors are `nbrs`.

    When `nbrs` is the smaller set, only the candidates two hops away (the
    OR of the masks of `nbrs`), which are exactly those with a common
    neighbor; otherwise all of them, for the walk to skip a count of 0.
    ``PairRanking``'s build calls it once per slot. ``contract``'s far loop
    applies the same rule inline, counting its candidates off the parents'
    neighborhoods instead of their mask.
    """
    if nbrs.bit_count() >= candidates.bit_count():
        return candidates
    reach = 0
    while nbrs:
        low = nbrs & -nbrs
        reach |= adj[low.bit_length() - 1]
        nbrs ^= low
    return candidates & reach


class PairRanking:
    """The pairs at distance two of a graph under contraction, ranked best first.

    One ranking serves a whole contraction loop: ``pop_pair`` hands out the
    pair to contract next, ``contract`` carries out every contraction, of a
    popped pair or of a replayed record. Each vertex of the graph sits at
    its sorted position as its slot. A contracted id takes over the slot of
    its parent with more neighbors and the other parent's slot dies, so
    every mask stays g.n bits wide and none is renumbered. Pairs rank by
    descending common-neighborhood count, then by ascending ids (a, b),
    a < b: large common neighborhoods are the likeliest to disconnect the
    pair.

    The pairs sit in exact buckets, one per count, built by the first
    ``pop_pair``; until then ``contract`` updates only the masks and the
    number of live non-adjacent pairs, which ``complete`` reads. The
    invariant: every live non-adjacent pair with at least one common
    neighbor sits, as its ids (a, b), in exactly the bucket of its current
    count, and no other pair, dead, adjacent or with no common neighbor,
    sits in any bucket; bucket 0 stays empty. The build puts each such
    pair in at its count, and ``contract`` keeps the invariant (see
    there). So scanning the buckets from the highest count down, each in
    ascending id order, visits the pairs of count >= 1 in the order a sort
    of all pairs would give, and ``pop_pair`` reads the count-0 tail off
    the components. The scan starts at ``_top``, which no non-empty bucket
    lies above: ``contract`` raises it when it adds a pair above it, and
    the scan lowers it past the empty buckets it finds there.

    The build and ``contract``'s far loop share one size rule (``_near``):
    a slot whose neighborhood is smaller than its candidate partners walks
    only the slots two hops away, otherwise it walks every candidate and
    skips a count of 0. Sparse graphs take the first side, dense ones the
    second.
    """

    def __init__(self, g: Graph):
        self._ids = list(g.vertices)  # slot -> id; stale once dead
        self._slot = {v: s for s, v in enumerate(self._ids)}
        self._adj = g.adj_masks()  # slot -> neighbor slots; 0 once dead
        self._live = (1 << g.n) - 1
        self._missing = g.n * (g.n - 1) // 2 - g.edge_count()  # live non-adjacent pairs
        self._buckets: Optional[list[set[tuple[int, int]]]] = None  # count -> pairs
        self._top = 0  # no non-empty bucket above it
        self._base = self._live  # slots that still hold their vertex of g
        self._zmin = float("inf")  # no contracted id lies below it

    def joinable(self, x: int, y: int) -> bool:
        """Whether x and y are a live two-pair of the current quotient
        (``is_two_pair``'s test)."""
        adj, sx, sy = self._adj, self._slot.get(x), self._slot.get(y)
        if sx is None or sy is None or adj[sx] >> sy & 1:
            return False
        return not _bfs_reach(adj, sx, self._live & ~(adj[sx] & adj[sy])) >> sy & 1

    def pop_pair(self) -> Optional[tuple[int, int]]:
        """The first two-pair in rank order as ids (a, b), a < b, or None.

        The buckets are scanned from the highest non-empty count down, and
        within a count in ascending id order, not slot order: a contracted
        id takes a parent's slot, so slots hold ids out of order. Two-pair
        tests run lazily, up to the first pair ``joinable`` accepts. Nothing
        leaves a bucket here; the returned pair leaves when the caller
        contracts it.

        When no pair of count >= 1 passes, the count-0 tail is read off the
        components. A pair with no common neighbor passes ``joinable``
        exactly when no path joins it, and a pair across components has no
        common neighbor. So the first such pair in id order is (a, b) with
        a the smallest live id and b the smallest id outside a's component
        K, on any graph; if K holds every live vertex there is none. Both
        come from ``_least``.
        """
        adj, ids, live = self._adj, self._ids, self._live
        buckets = self._buckets
        if buckets is None:
            # Of L live vertices, a non-adjacent pair has at most L - 2
            # common neighbors, and L only falls.
            self._buckets = buckets = [set() for _ in range(max(live.bit_count() - 1, 0))]
            self._top = max(len(buckets) - 1, 0)
            for s in _bits(live):
                a, ns = ids[s], adj[s]
                m = _near(adj, ns, live & ~ns & ~((2 << s) - 1))
                while m:
                    low = m & -m
                    m ^= low
                    t = low.bit_length() - 1
                    c = (ns & adj[t]).bit_count()
                    if c:
                        b = ids[t]
                        buckets[c].add((a, b) if a < b else (b, a))
        top = self._top
        while top and not buckets[top]:
            top -= 1
        self._top = top
        for c in range(top, 0, -1):
            bucket = buckets[c]
            if bucket:
                for a, b in _ascending(bucket):
                    if self.joinable(a, b):
                        return a, b
        if not live:
            return None
        a = self._least(live)
        rest = live & ~_bfs_reach(adj, self._slot[a], live)
        return (a, self._least(rest)) if rest else None

    def _least(self, mask: int) -> int:
        """The smallest id in the non-empty slot mask `mask`.

        A slot that still holds its vertex of g holds the id at that sorted
        position, so among those slots the lowest holds the smallest id.
        Every other live slot holds a contracted id, at least ``_zmin``; when
        the lowest base id lies below that it is the answer, as it always
        does when the fresh ids start above g's (``static_color``, the
        strict replay, the growth test). Otherwise the contracted ids in
        `mask` are scanned as well.
        """
        ids, base = self._ids, mask & self._base
        rest = mask & ~base
        if base:
            low = base & -base
            least = ids[low.bit_length() - 1]
            if least < self._zmin:
                return least
            rest |= low
        return min(ids[s] for s in _bits(rest))

    def slots(self) -> dict[int, int]:
        """Each live id's slot; a vertex of g that no contraction merged
        keeps its sorted position. The ranking's own map: read, never write."""
        return self._slot

    def complete(self) -> bool:
        """Whether the live vertices are pairwise adjacent."""
        return not self._missing

    def contract(self, x: int, y: int, z: int) -> tuple[int, int, int, int, int]:
        """Merge the non-adjacent x and y into the fresh id z, as Graph.contract_pair does.

        It raises ``GraphError`` with that method's messages on an adjacent
        pair, an unknown vertex, a vertex paired with itself and a live z.
        It returns the step (z's slot, x's slot, N(x), y's slot, N(y)), the
        neighborhoods as slot masks just before the merge, from which
        ``contract_to_clique`` lifts.

        z takes over the slot of k, the parent with more neighbors (x on a
        tie), and the slot of the other parent, d, dies. x and y are
        non-adjacent, so neither of their masks holds the slot of x or y,
        and z's mask is N(z) = N(x) | N(y) as it stands. Every other live
        mask holds k's slot exactly when it lies in N(k), and d's exactly
        when it lies in N(d). So clearing d's bit and setting k's in the
        masks of N(d), and in no others, leaves k's slot in exactly the
        masks of N(z) and d's in none. So the rewrite walks N(d), the
        smaller of the two neighborhoods, and not all of N(z).

        Pairs with x or y die, and each pair of z with a live non-neighbor
        is born. Of the other pairs, only those inside N(z) change count:
        common(a, b) loses x only when a and b both lie in N(x), loses y
        likewise, and gains z only when both lie in N(z). Split N(z) into
        B = N(x) & N(y), D = N(d) - N(k) and K = N(k) - N(d). A pair across
        D and K gains z and lost nothing (+1), a pair inside B loses x and y
        and gains z (-1), and every other pair inside N(z) swaps one of x, y
        for z (unchanged). So the bucket invariant holds again once the
        pairs with x or y leave their buckets, the non-adjacent D x K pairs
        move up one bucket, the non-adjacent pairs inside B move down one,
        and the pairs with z enter at their counts. Only pairs of count >= 1
        are in the buckets: a pair with x, y or z leaves or enters only at a
        count >= 1 (a replayed record may contract a pair of count 0), a
        D x K pair at count 0 has nothing to leave, and a pair inside B has
        both x and y in common, so it goes from a count of at least 2 to at
        least 1 and never reaches 0.

        Two walks make every move, and no slot is in both. One ascending
        pass over N(d), that is B and D, rewrites each mask and moves the
        pairs of its slot s: with the later slots of B for s in B, and for
        s in D the pair (k, s) and the pairs with K. As |N(d)| <= |N(k)|,
        D is the smaller of N(x) - N(y) and N(y) - N(x). Every count is
        read off the masks before the merge: the mask of s is read before
        its rewrite, a partner in K is never rewritten, and a partner in B
        comes later in the pass. The far loop then walks K and the live
        slots outside N(z) other than x and y, L - 2 - |N(d)| of them with
        L live vertices, or only those two hops from z when N(z) is the
        smaller set (``_near``'s rule): a pair with no common neighbor is
        in no bucket. For each such t the pair (d, t) leaves, and for t
        outside N(z) so does (k, t), while (z, t) enters. No mask of K is
        rewritten, and a mask outside N(z) holds neither x nor y, so there
        (N(z) & N(t)) is the count of (z, t).

        With L live vertices before the merge, x has L - 1 - |N(x)|
        non-neighbors, y likewise, and z has L - 2 - |N(z)|; no other pair
        changes adjacency. So the number of live non-adjacent pairs changes
        by (L - 2 - |N(z)|) - (L - 1 - |N(x)|) - (L - 1 - |N(y)|) + 1 (the
        pair x, y counted twice), that is by |B| + 1 - L, and ``complete``
        reads it in O(1). Until the buckets are built, only that number and
        the masks change.
        """
        adj, ids, slot, buckets = self._adj, self._ids, self._slot, self._buckets
        if x not in slot or y not in slot:
            raise GraphError(f"unknown vertex in ({x},{y})")
        if adj[slot[x]] >> slot[y] & 1:
            raise GraphError(f"cannot contract adjacent pair ({x},{y})")
        if x == y:
            raise GraphError(f"cannot contract {x} with itself")
        if z in slot:
            raise GraphError(f"contracted id {z} already live")
        sx, sy = slot.pop(x), slot.pop(y)
        nx, ny = adj[sx], adj[sy]
        if nx.bit_count() >= ny.bit_count():
            k, d, sk, sd, nk, nd = x, y, sx, sy, nx, ny
        else:
            k, d, sk, sd, nk, nd = y, x, sy, sx, ny, nx
        kbit, dbit, both, nz, live = 1 << sk, 1 << sd, nx & ny, nx | ny, self._live
        count = live.bit_count()
        self._missing += both.bit_count() + 1 - count
        m = nd
        if buckets is None:
            while m:
                low = m & -m
                m ^= low
                s = low.bit_length() - 1
                adj[s] = adj[s] ^ dbit | kbit
        else:
            top = self._top
            if both:
                buckets[both.bit_count()].remove((x, y) if x < y else (y, x))
            # The pass over N(d); m holds the slots after s.
            only_k = nk & ~nd
            while m:
                low = m & -m
                m ^= low
                s = low.bit_length() - 1
                a, ns = ids[s], adj[s]
                adj[s] = ns ^ dbit | kbit
                if ns & kbit:
                    partners, step = m & both & ~ns, -1
                else:
                    c = (nk & ns).bit_count()
                    if c:
                        buckets[c].remove((k, a) if k < a else (a, k))
                    partners, step = only_k & ~ns, 1
                while partners:
                    bit = partners & -partners
                    partners ^= bit
                    t = bit.bit_length() - 1
                    b = ids[t]
                    pair = (a, b) if a < b else (b, a)
                    c = (ns & adj[t]).bit_count()
                    if c:
                        buckets[c].remove(pair)
                    c += step
                    buckets[c].add(pair)
                    if c > top:
                        top = c
            # The far loop over K and the slots outside N(z) (far).
            far = live & ~nz & ~kbit & ~dbit
            m = far | only_k
            if nz.bit_count() < count - 2 - nd.bit_count():
                reach, r = 0, nz
                while r:
                    low = r & -r
                    reach |= adj[low.bit_length() - 1]
                    r ^= low
                m &= reach
            while m:
                low = m & -m
                m ^= low
                t = low.bit_length() - 1
                w, nt = ids[t], adj[t]
                c = (nd & nt).bit_count()
                if c:
                    buckets[c].remove((d, w) if d < w else (w, d))
                if far & low:
                    c = (nk & nt).bit_count()
                    if c:
                        buckets[c].remove((k, w) if k < w else (w, k))
                    c = (nz & nt).bit_count()
                    if c:
                        buckets[c].add((z, w) if z < w else (w, z))
                        if c > top:
                            top = c
            self._top = top
        ids[sk] = z
        slot[z] = sk
        adj[sk] = nz
        adj[sd] = 0
        self._live = live ^ dbit
        self._base &= ~(kbit | dbit)
        if z < self._zmin:
            self._zmin = z
        return sk, sx, nx, sy, ny


def find_two_pair(g: Graph) -> Optional[TwoPair]:
    """The first two-pair of g in ``PairRanking``'s order, or None.

    On a weakly chordal graph that is not a clique this never returns None.
    """
    pair = PairRanking(g).pop_pair()
    return None if pair is None else TwoPair(*pair)


def _chordless_paths_all_two_edges(g: Graph, x: int, y: int) -> bool:
    """Exhaustive check that every chordless x..y path has exactly 2 edges."""
    adj = g.adj_masks()
    px, py = g.pos(x), g.pos(y)

    # DFS over chordless paths: extend only to vertices adjacent to the tail
    # and non-adjacent to every earlier path vertex.
    stack = [([px], 1 << px, 0)]
    while stack:
        path, used, forbidden = stack.pop()
        tail = path[-1]
        m = adj[tail] & ~used & ~forbidden
        while m:
            low = m & -m
            q = low.bit_length() - 1
            if q == py:
                if len(path) != 2:
                    return False
            else:
                stack.append((path + [q], used | low, forbidden | (adj[tail] & ~low)))
            m ^= low
    return True


def enumerate_two_pairs(g: Graph, cap: int = ORACLE_CAP) -> list[TwoPair]:
    """All two-pairs, verified by exhaustive chordless-path enumeration.

    Oracle-only: refuses graphs above the cap.
    """
    if g.n > cap:
        raise OracleCapExceeded(f"{g.n} vertices exceeds oracle cap {cap}")
    out = []
    ids = g.vertices
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            if not g.has_edge(x, y) and _chordless_paths_all_two_edges(g, x, y):
                out.append(TwoPair(x, y))
    return out


# ---------------------------------------------------------------------------
# forbidden-pattern scan
# ---------------------------------------------------------------------------

def _induced_embeddings(host: Graph, pattern: Graph, first_only: bool = False) -> list[dict[int, int]]:
    """Backtracking induced-subgraph isomorphism, pattern into host.

    Most-constrained-first: at every depth the unplaced pattern vertex
    with the fewest remaining host candidates is branched on next, with
    candidate sets maintained incrementally as bitmasks. The degree
    filter is sound for induced embeddings (the image of a pattern
    vertex must have host degree at least its pattern degree).
    """
    pn, hn = pattern.n, host.n
    if pn > hn:
        return []
    padj = pattern.adj_masks()
    hadj = host.adj_masks()
    full = (1 << hn) - 1
    base = []
    for p in range(pn):
        need = padj[p].bit_count()
        mask = 0
        for h in range(hn):
            if hadj[h].bit_count() >= need:
                mask |= 1 << h
        if not mask:
            return []
        base.append(mask)
    results: list[dict[int, int]] = []
    assign: dict[int, int] = {}

    def extend(remaining: int, cands: list[int], used: int) -> bool:
        if not remaining:
            results.append({pattern.id_at(p): host.id_at(h) for p, h in assign.items()})
            return first_only
        p_best, best_mask, best_count = -1, 0, hn + 1
        m = remaining
        while m:
            p = (m & -m).bit_length() - 1
            c = cands[p] & ~used
            cnt = c.bit_count()
            if cnt == 0:
                return False
            if cnt < best_count:
                p_best, best_mask, best_count = p, c, cnt
            m &= m - 1
        p = p_best
        rem = remaining & ~(1 << p)
        m = best_mask
        while m:
            low = m & -m
            h = low.bit_length() - 1
            assign[p] = h
            new_cands = cands
            ok = True
            if rem:
                new_cands = list(cands)
                q_mask = rem
                while q_mask:
                    q = (q_mask & -q_mask).bit_length() - 1
                    if padj[q] >> p & 1:
                        new_cands[q] &= hadj[h]
                    else:
                        new_cands[q] &= ~hadj[h] & ~(1 << h)
                    if not new_cands[q]:
                        ok = False
                        break
                    q_mask &= q_mask - 1
            if ok and extend(rem, new_cands, used | low):
                return True
            m ^= low
        assign.pop(p, None)
        return False

    extend((1 << pn) - 1, base, 0)
    return results


def scan_forbidden(g: Graph, library: Sequence[tuple[str, Graph]]) -> list[tuple[str, frozenset[int]]]:
    """Every induced embedding of every library pattern, deduped by image set.

    An empty result certifies the forbidden-subgraph precondition of the
    subtree-intersection representation theorem.
    """
    hits: list[tuple[str, frozenset[int]]] = []
    seen: set[tuple[str, frozenset[int]]] = set()
    for name, pattern in library:
        for emb in _induced_embeddings(g, pattern):
            key = (name, frozenset(emb.values()))
            if key not in seen:
                seen.add(key)
                hits.append(key)
    return hits


def has_forbidden(g: Graph, library: Sequence[tuple[str, Graph]]) -> Optional[str]:
    """Name of the first embedded pattern, or None (early-exit variant)."""
    for name, pattern in library:
        if _induced_embeddings(g, pattern, first_only=True):
            return name
    return None
