"""Game positions: undirected multigraphs with loops, plus capture semantics.

A strings-and-coins position is an undirected multigraph in which loops
are allowed and parallel edges are counted with multiplicity.  Players
alternately delete one edge instance; a vertex whose last incident edge
disappears is captured by the mover, who scores one point and must move
again if any edges remain.  Captured vertices leave the position
immediately, so a position is fully described by the remaining graph --
no move history is needed.

``LoopyMultigraph`` instances are immutable: every mutation returns a
new graph.  That keeps search code honest (positions can be memoized and
shared freely) and makes the capture accounting a pure function of
(position, move).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple


class PositionError(ValueError):
    """An operation would corrupt a position, e.g. removing an absent edge."""


class EdgeRef(NamedTuple):
    """One move target: an unordered endpoint pair.  ``u == v`` is a loop.

    Endpoints are kept sorted (``u <= v``) so each parallel class has a
    single reference and references order deterministically.
    """

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "EdgeRef":
        return cls(a, b) if a <= b else cls(b, a)

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


class MoveOutcome(NamedTuple):
    """Result of removing one edge instance."""

    captured: int
    successor: "LoopyMultigraph"
    mover_moves_again: bool


class LoopyMultigraph:
    """Immutable loopy multigraph with O(1) incident counts.

    Internally an edge-class map ``{(u, v): multiplicity}`` with u <= v
    (loops stored as (v, v)) and an incident-count map ``{vertex: count}``.
    A loop contributes exactly one to its vertex's incident count per
    instance; a vertex is captured when its incident count reaches zero.
    Vertices exist only while incident to something: isolated vertices are
    impossible by construction.
    """

    __slots__ = ("_mult", "_incident", "_edge_count", "_sig")

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        self._mult: dict[tuple[int, int], int] = {}
        self._incident: dict[int, int] = {}
        self._edge_count = 0
        self._sig: tuple | None = None
        for a, b in edges:
            self._add_in_place(a, b)

    @classmethod
    def empty(cls) -> "LoopyMultigraph":
        return cls(())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "LoopyMultigraph":
        return cls(edges)

    def _add_in_place(self, a: int, b: int) -> None:
        if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
            raise PositionError(f"vertex ids must be non-negative integers, got ({a}, {b})")
        if a > b:
            a, b = b, a
        self._mult[(a, b)] = self._mult.get((a, b), 0) + 1
        # a loop adds one instance to its vertex, a plain edge one to each end
        self._incident[a] = self._incident.get(a, 0) + 1
        if a != b:
            self._incident[b] = self._incident.get(b, 0) + 1
        self._edge_count += 1

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._incident)

    @property
    def edge_count(self) -> int:
        """Total number of edge instances (multiplicities summed)."""
        return self._edge_count

    @property
    def vertices(self) -> list[int]:
        return sorted(self._incident)

    def incident_count(self, v: int) -> int:
        """Edge instances at ``v``; each loop instance counts exactly once."""
        return self._incident.get(v, 0)

    def multiplicity(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return self._mult.get((a, b), 0)

    def loop_multiplicity(self, v: int) -> int:
        return self._mult.get((v, v), 0)

    def edge_pairs(self) -> Iterator[tuple[EdgeRef, int]]:
        """Distinct edge classes with multiplicities, in sorted order."""
        for (a, b) in sorted(self._mult):
            yield EdgeRef(a, b), self._mult[(a, b)]

    def capture_count(self, e: tuple[int, int]) -> int:
        """How many vertices removing one instance of ``e`` would capture."""
        a, b = e
        if a > b:
            a, b = b, a
        if (a, b) not in self._mult:
            raise PositionError(f"no edge {(a, b)} in position")
        if a == b:
            return 1 if self._incident[a] == 1 else 0
        return (1 if self._incident[a] == 1 else 0) + (1 if self._incident[b] == 1 else 0)

    def signature(self) -> tuple:
        """Sorted (u, v, multiplicity) triples; equal iff same labeled graph."""
        if self._sig is None:
            self._sig = tuple(sorted((a, b, m) for (a, b), m in self._mult.items()))
        return self._sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopyMultigraph):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        parts = []
        for (a, b), m in sorted(self._mult.items()):
            s = f"{a}-{b}" if a != b else f"loop@{a}"
            parts.append(s if m == 1 else f"{s}x{m}")
        return f"LoopyMultigraph({', '.join(parts)})" if parts else "LoopyMultigraph(empty)"

    # -- mutations (return new graphs) -----------------------------------

    def add_edge(self, a: int, b: int) -> "LoopyMultigraph":
        g = self._clone()
        g._add_in_place(a, b)
        return g

    def _child(self, a: int, b: int) -> tuple[int, "LoopyMultigraph"]:
        """Fast path for remove_edge: returns (captured, successor).

        Assumes a <= b.  Search code calls this directly to skip the
        NamedTuple wrapper.  When this position's signature is known, the
        successor's is derived from it: the (a, b) triple is found by
        bisection and dropped or given one less multiplicity, so nothing
        is sorted again.
        """
        mult = dict(self._mult)
        m = mult.get((a, b))
        if m is None:
            raise PositionError(f"no edge {(a, b)} in position")
        if m == 1:
            del mult[(a, b)]
        else:
            mult[(a, b)] = m - 1
        sig = self._sig
        if sig is not None:
            i = bisect_left(sig, (a, b))
            sig = sig[:i] + (((a, b, m - 1),) if m > 1 else ()) + sig[i + 1 :]
        inc = dict(self._incident)
        captured = 0
        n = inc[a] - 1
        if n:
            inc[a] = n
        else:
            del inc[a]
            captured = 1
        if a != b:
            n = inc[b] - 1
            if n:
                inc[b] = n
            else:
                del inc[b]
                captured += 1
        g = LoopyMultigraph.__new__(LoopyMultigraph)
        g._mult = mult
        g._incident = inc
        g._edge_count = self._edge_count - 1
        g._sig = sig
        return captured, g

    def remove_edge(self, e: tuple[int, int]) -> MoveOutcome:
        """Delete one instance of edge class ``e`` and settle captures.

        The mover moves again exactly when the deletion captured at least
        one vertex and the successor still has edges.
        """
        a, b = e
        if a > b:
            a, b = b, a
        captured, succ = self._child(a, b)
        return MoveOutcome(captured, succ, captured > 0 and succ._edge_count > 0)

    def distinct_moves(self) -> list[EdgeRef]:
        """Available move classes, sorted; parallel edge instances collapse
        to one entry."""
        return [EdgeRef(a, b) for (a, b) in sorted(self._mult)]

    def disjoint_union(self, other: "LoopyMultigraph") -> "LoopyMultigraph":
        """Combine two positions on disjoint vertex sets.

        The right operand's vertices are relabeled, in sorted order, to
        consecutive ids just above the left operand's maximum.
        """
        base = max(self._incident, default=-1) + 1
        relabel = {v: base + i for i, v in enumerate(sorted(other._incident))}
        g = self._clone()
        for (a, b), m in sorted(other._mult.items()):
            for _ in range(m):
                g._add_in_place(relabel[a], relabel[b])
        return g

    def _clone(self) -> "LoopyMultigraph":
        g = LoopyMultigraph.__new__(LoopyMultigraph)
        g._mult = dict(self._mult)
        g._incident = dict(self._incident)
        g._edge_count = self._edge_count
        g._sig = None
        return g

    # -- structure helpers ------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by first vertex."""
        seen: set[int] = set()
        adj: dict[int, set[int]] = {v: set() for v in self._incident}
        for (a, b) in self._mult:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        out = []
        for v in sorted(self._incident):
            if v in seen:
                continue
            comp = [v]
            seen.add(v)
            stack = [v]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            comp.sort()
            out.append(comp)
        return out

    def is_forest(self) -> bool:
        """True when the position has no cycle (so no loops or parallel edges)."""
        parent: dict[int, int] = {v: v for v in self._incident}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b), m in self._mult.items():
            if a == b or m > 1:
                return False
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True
