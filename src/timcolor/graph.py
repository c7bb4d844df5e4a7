"""Undirected simple graphs with stable vertex identities.

Vertices are integer ids that survive derived constructions, and a
contraction names its merged vertex with a fresh id. Graphs are value-like:
every mutating operation returns a new ``Graph``.

Internally the live ids are kept sorted, and adjacency is one python-int
bitmask per vertex, indexed by sorted position: bit j of the mask at
position i is set iff ``ids[i]`` and ``ids[j]`` are adjacent. The
recognition algorithms run BFS directly on these masks, and edge insertion,
deletion, contraction and complementation derive the child's masks from the
parent's without going through an edge list.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Rejected graph input: bad index, self-loop, duplicate or missing edge."""


class Graph:
    """Immutable undirected simple graph.

    ``ids`` is the sorted tuple of live vertex ids. Adjacency queries are
    O(1); neighbor iteration is O(deg).
    """

    __slots__ = ("_ids", "_pos", "_adj", "_next_id")

    def __init__(
        self,
        ids: Sequence[int],
        edges: Iterable[tuple[int, int]],
        next_id: Optional[int] = None,
    ):
        self._ids: tuple[int, ...] = tuple(sorted(ids))
        if len(set(self._ids)) != len(self._ids):
            raise GraphError("duplicate vertex id")
        self._pos = {v: i for i, v in enumerate(self._ids)}
        self._adj = [0] * len(self._ids)
        for u, v in edges:
            self._add_edge_unchecked(u, v)
        if next_id is None:
            next_id = max(self._ids, default=-1) + 1
        self._next_id = next_id

    @classmethod
    def _from_masks(
        cls,
        ids: tuple[int, ...],
        pos: dict[int, int],
        adj: list[int],
        next_id: int,
    ) -> "Graph":
        """Wrap already-consistent parts without validation.

        ``ids`` must be sorted, ``pos`` its inverse, ``adj`` symmetric and
        loop-free. The parts are shared, never copied: no ``Graph`` mutates
        them after construction.
        """
        g = cls.__new__(cls)
        g._ids, g._pos, g._adj, g._next_id = ids, pos, adj, next_id
        return g

    def _add_edge_unchecked(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self-loop at {u}")
        try:
            pu, pv = self._pos[u], self._pos[v]
        except KeyError as exc:
            raise GraphError(f"unknown vertex {exc.args[0]}") from None
        if self._adj[pu] >> pv & 1:
            raise GraphError(f"duplicate edge ({u},{v})")
        self._adj[pu] |= 1 << pv
        self._adj[pv] |= 1 << pu

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._ids

    @property
    def n(self) -> int:
        return len(self._ids)

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def has_edge(self, u: int, v: int) -> bool:
        pu, pv = self._pos.get(u), self._pos.get(v)
        if pu is None or pv is None:
            return False
        return bool(self._adj[pu] >> pv & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self._adj[self._pos[v]]
        ids = self._ids
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def degree(self, v: int) -> int:
        return self._adj[self._pos[v]].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        ids = self._ids
        for i, u in enumerate(ids):
            mask = self._adj[i] >> (i + 1)
            j = i + 1
            while mask:
                if mask & 1:
                    yield (u, ids[j])
                mask >>= 1
                j += 1

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    @property
    def next_id(self) -> int:
        return self._next_id

    # -- positional/bitmask access used by recognition --------------------

    def pos(self, v: int) -> int:
        return self._pos[v]

    def id_at(self, pos: int) -> int:
        return self._ids[pos]

    def adj_mask(self, v: int) -> int:
        """Bitmask of neighbor positions of v."""
        return self._adj[self._pos[v]]

    def adj_masks(self) -> list[int]:
        """Adjacency bitmasks in positional order (a fresh list)."""
        return list(self._adj)

    def insert_positions(self, u: int, v: int) -> tuple[int, int]:
        """Positions of u and v, where (u,v) may be inserted; else GraphError,
        for an unknown vertex first, then a self-loop, then a present edge."""
        pu, pv = self._pos.get(u), self._pos.get(v)
        if pu is None or pv is None:
            raise GraphError(f"unknown vertex in ({u},{v})")
        if pu == pv:
            raise GraphError(f"self-loop at {u}")
        if self._adj[pu] >> pv & 1:
            raise GraphError(f"edge ({u},{v}) already present")
        return pu, pv

    def delete_positions(self, u: int, v: int) -> tuple[int, int]:
        """Positions of u and v, where (u,v) may be deleted; else GraphError.
        An unknown vertex and a self-loop name no edge, so they read absent."""
        pu, pv = self._pos.get(u), self._pos.get(v)
        if pu is None or pv is None or not self._adj[pu] >> pv & 1:
            raise GraphError(f"edge ({u},{v}) absent")
        return pu, pv

    # -- value-like mutation ----------------------------------------------

    def _with_edge_flipped(self, pu: int, pv: int) -> "Graph":
        adj = list(self._adj)
        adj[pu] ^= 1 << pv
        adj[pv] ^= 1 << pu
        return Graph._from_masks(self._ids, self._pos, adj, self._next_id)

    def insert_edge(self, u: int, v: int) -> "Graph":
        return self._with_edge_flipped(*self.insert_positions(u, v))

    def delete_edge(self, u: int, v: int) -> "Graph":
        return self._with_edge_flipped(*self.delete_positions(u, v))

    def contract_pair(self, x: int, y: int, z: Optional[int] = None) -> tuple["Graph", int]:
        """Merge non-adjacent x and y into a fresh vertex z.

        z is adjacent to N(x) | N(y). Two-pair validity is *not* checked here; the
        coloring layer owns that contract.

        Each surviving mask loses the bits of x and y, and gains a bit at z's
        sorted position, set where x or y was a neighbor.
        """
        if self.has_edge(x, y):
            raise GraphError(f"cannot contract adjacent pair ({x},{y})")
        if x not in self._pos or y not in self._pos:
            raise GraphError(f"unknown vertex in ({x},{y})")
        if x == y:
            raise GraphError(f"cannot contract {x} with itself")
        if z is None:
            z = self._next_id
        if z in self._pos:
            raise GraphError(f"contracted id {z} already live")
        lo, hi = sorted((self._pos[x], self._pos[y]))
        rest = self._ids[:lo] + self._ids[lo + 1 : hi] + self._ids[hi + 1 :]
        q = bisect_left(rest, z)
        ids = rest[:q] + (z,) + rest[q:]
        # squeeze bits lo and hi out of every mask
        below_lo = (1 << lo) - 1
        between = (1 << (hi - lo - 1)) - 1
        adj = [
            m & below_lo | (m >> (lo + 1) & between) << lo | m >> (hi + 1) << (hi - 1)
            for m in self._adj
        ]
        nb = adj[lo] | adj[hi]
        del adj[hi], adj[lo]
        zmask = nb
        if q < len(adj):  # z is not the largest id: open bit q
            below_q = (1 << q) - 1
            adj = [m & below_q | m >> q << (q + 1) for m in adj]
            zmask = nb & below_q | nb >> q << (q + 1)
        zbit = 1 << q
        while nb:
            low = nb & -nb
            adj[low.bit_length() - 1] |= zbit
            nb ^= low
        adj.insert(q, zmask)
        pos = {v: i for i, v in enumerate(ids)}
        return Graph._from_masks(ids, pos, adj, max(self._next_id, z + 1)), z

    # -- derived constructions ---------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << len(self._ids)) - 1
        adj = [full & ~m & ~(1 << i) for i, m in enumerate(self._adj)]
        return Graph._from_masks(self._ids, self._pos, adj, self._next_id)

    def square(self) -> "Graph":
        adj = self._adj
        edges = []
        for i, u in enumerate(self._ids):
            mu = adj[i]
            for j in range(i + 1, len(self._ids)):
                if mu >> j & 1 or mu & adj[j]:
                    edges.append((u, self._ids[j]))
        return Graph(self._ids, edges, self._next_id)

    def line_graph(self) -> "Graph":
        """One vertex per edge; adjacency iff the edges share an endpoint.

        Output vertex ids are 0..m-1 in sorted-edge order.
        """
        es = sorted(self.edges())
        ids = list(range(len(es)))
        edges = [
            (i, j)
            for i in ids
            for j in ids[i + 1 :]
            if set(es[i]) & set(es[j])
        ]
        return Graph(ids, edges)

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        """Each kept mask keeps the kept positions' bits, renumbered by rank.

        A row is gathered by walking the set bits of the smaller of its kept
        neighbours and its kept non-neighbours (its own position among them)
        through a bit-to-rank map: OR the first into an empty row, or clear
        the second from a full one. That is min(d, |C| - d) steps for a row
        of degree d inside the kept set C, so sparse and dense subgraphs
        both cost far less than |C| steps per row.
        """
        keep = set(keep)
        unknown = keep - self._pos.keys()
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        at = sorted(self._pos[v] for v in keep)
        ids = tuple(self._ids[p] for p in at)
        rank = {1 << q: 1 << i for i, q in enumerate(at)}  # kept bit -> its bit in the subgraph
        kept, full = sum(rank), (1 << len(at)) - 1
        adj = []
        for p in at:
            m = self._adj[p] & kept
            miss = kept ^ m
            walk, row = (m, 0) if m.bit_count() <= miss.bit_count() else (miss, full)
            while walk:
                low = walk & -walk
                row ^= rank[low]
                walk ^= low
            adj.append(row)
        return Graph._from_masks(ids, dict(zip(ids, range(len(ids)))), adj, self._next_id)

    # -- equality / serialization ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._ids == other._ids and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._ids, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def to_dict(self, labels: Optional[Mapping[int, str]] = None) -> dict:
        """Interchange form: {"n", "edges", "labels"?}, edges sorted, i < j.

        Only valid for graphs whose ids are exactly 0..n-1.
        """
        if self._ids != tuple(range(self.n)):
            raise GraphError("interchange form requires contiguous 0-based ids")
        d = {"n": self.n, "edges": [list(e) for e in sorted(self.edges())]}
        if labels:
            d["labels"] = {str(k): labels[k] for k in sorted(labels)}
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(**kw), sort_keys=True)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1 with the given edge list."""
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    edges = list(edges)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"index out of range in edge ({u},{v})")
    return Graph(range(n), edges)


def require_int(value: object, what: str, error: type[Exception] = ValueError) -> int:
    """`value` when it is a JSON integer, else raise `error`; a bool is not one."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, not {json.dumps(value, default=repr)}")
    return value


def from_dict(d: Mapping) -> Graph:
    """A graph from {"n": int, "edges": [[u, v], ...]}; ``GraphError`` on a non-integer."""
    n = require_int(d["n"], "vertex count", GraphError)
    ends = [tuple(require_int(x, "edge endpoint", GraphError) for x in e) for e in d["edges"]]
    return make_graph(n, ends)


def from_json(text: str) -> Graph:
    return from_dict(json.loads(text))

