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

    Internally the signature, the sorted tuple of ``(u, v, multiplicity)``
    triples with u <= v (a loop is (v, v, m)), and an incident-count map
    ``{vertex: count}``.  A loop contributes exactly one to its vertex's
    incident count per instance; a vertex is captured when its incident
    count reaches zero.  Vertices exist only while incident to something:
    isolated vertices are impossible by construction.
    """

    __slots__ = ("_sig", "_incident", "_edge_count")

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        mult: dict[tuple[int, int], int] = {}
        inc: dict[int, int] = {}
        for a, b in edges:
            if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
                raise PositionError(f"vertex ids must be non-negative integers, got ({a}, {b})")
            if a > b:
                a, b = b, a
            mult[(a, b)] = mult.get((a, b), 0) + 1
            # a loop adds one instance to its vertex, a plain edge one to each end
            inc[a] = inc.get(a, 0) + 1
            if a != b:
                inc[b] = inc.get(b, 0) + 1
        self._sig: tuple = tuple(sorted((a, b, m) for (a, b), m in mult.items()))
        self._incident = inc
        self._edge_count = sum(mult.values())

    @classmethod
    def empty(cls) -> "LoopyMultigraph":
        return cls(())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "LoopyMultigraph":
        return cls(edges)

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

    def _find(self, a: int, b: int) -> int:
        """Index in the signature of class (a, b), a <= b, or -1 if absent."""
        sig = self._sig
        i = bisect_left(sig, (a, b))
        if i < len(sig):
            t = sig[i]
            if t[0] == a and t[1] == b:
                return i
        return -1

    def multiplicity(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        i = self._find(a, b)
        return self._sig[i][2] if i >= 0 else 0

    def loop_multiplicity(self, v: int) -> int:
        return self.multiplicity(v, v)

    def edge_pairs(self) -> Iterator[tuple[EdgeRef, int]]:
        """Distinct edge classes with multiplicities, in sorted order."""
        for a, b, m in self._sig:
            yield EdgeRef(a, b), m

    def signature(self) -> tuple:
        """Sorted (u, v, multiplicity) triples; equal iff same labeled graph."""
        return self._sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopyMultigraph):
            return NotImplemented
        return self._sig == other._sig

    def __hash__(self) -> int:
        return hash(self._sig)

    def __repr__(self) -> str:
        parts = []
        for a, b, m in self._sig:
            s = f"{a}-{b}" if a != b else f"loop@{a}"
            parts.append(s if m == 1 else f"{s}x{m}")
        return f"LoopyMultigraph({', '.join(parts)})" if parts else "LoopyMultigraph(empty)"

    # -- mutations (return new graphs) -----------------------------------

    def _instances(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b, m in self._sig for _ in range(m)]

    def add_edge(self, a: int, b: int) -> "LoopyMultigraph":
        return LoopyMultigraph(self._instances() + [(a, b)])

    def _child(self, a: int, b: int) -> tuple[int, "LoopyMultigraph"]:
        """Fast path for remove_edge: returns (captured, successor).

        Assumes a <= b.  Search code calls this directly to skip the
        NamedTuple wrapper.  The successor's signature is this one with
        the (a, b) triple dropped or given one less multiplicity, so
        nothing is sorted again.
        """
        i = self._find(a, b)
        if i < 0:
            raise PositionError(f"no edge {(a, b)} in position")
        sig = self._sig
        m = sig[i][2]
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
        g._sig = sig[:i] + (((a, b, m - 1),) if m > 1 else ()) + sig[i + 1 :]
        g._incident = inc
        g._edge_count = self._edge_count - 1
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
        return [EdgeRef(a, b) for a, b, _ in self._sig]

    def disjoint_union(self, other: "LoopyMultigraph") -> "LoopyMultigraph":
        """Combine two positions on disjoint vertex sets.

        The right operand's vertices are relabeled, in sorted order, to
        consecutive ids just above the left operand's maximum.
        """
        base = max(self._incident, default=-1) + 1
        relabel = {v: base + i for i, v in enumerate(sorted(other._incident))}
        moved = [(relabel[a], relabel[b]) for a, b in other._instances()]
        return LoopyMultigraph(self._instances() + moved)

    # -- structure helpers ------------------------------------------------

    def is_forest(self) -> bool:
        """True when the position has no cycle (so no loops or parallel edges)."""
        parent: dict[int, int] = {v: v for v in self._incident}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, m in self._sig:
            if a == b or m > 1:
                return False
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True
