"""Exact game solving: negamax over the score differential.

The value of a position is the best achievable score differential
(mover's coins minus opponent's) under optimal play.  Recursion follows
the capture rule directly: a capturing move keeps the turn, so its value
is captured + value(successor) with no sign flip; a non-capturing move
hands the turn over, negating the successor value.

Search options layer on top of that definition without changing it:

* ``memo``       -- transposition table keyed by canonical form, so all
                    relabelings of a position share one entry.  A table
                    passed in ``table`` is used only with ``memo`` on.
* ``pruning``    -- alpha-beta windows (shifted by captures), plus
                    clamping to the remaining-vertex bound |value| <= r.
                    Table entries then carry EXACT/LOWER/UPPER flags in
                    the usual fail-soft sense.

Any combination yields the same value; only the work differs.
``solve`` values one position, ``best_move`` also names an optimal move,
and ``iter_table`` streams a family's rows over a parameter range through
one shared table.

Moves are tried most captures first, ties in sorted order.  The capture
count of a move is read off the incident counts, so the order is fixed
before any child exists; children are then built in that order on
demand, and none is built past an alpha-beta cutoff.

The search recurses once per cut string, so ``solve`` and ``best_move``
refuse, with ``DepthLimitError``, a position whose strings would not fit
under ``sys.getrecursionlimit()`` together with canonical keying's own
recursion.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from . import canonical
from .graph import EdgeRef, LoopyMultigraph

if TYPE_CHECKING:
    from .families import FamilySpec

EXACT, LOWER, UPPER = 0, 1, 2


class SolveBudgetExceeded(RuntimeError):
    """Raised when a solve outruns its time budget.

    When raised from ``iter_table``, ``parameter`` names the row that did
    not finish; the rows before it were already yielded.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.parameter: int | None = None


class EmptyPositionError(ValueError):
    """Raised when a move is requested from a position with no edges."""


class ValueConsistencyError(ValueError):
    """A differential that cannot correspond to any final score split."""


class DepthLimitError(ValueError):
    """Raised before searching a position too deep for the recursive search."""


# frames for the callers above ``solve`` and the keying calls at a leaf
_STACK_MARGIN = 150


def _check_searchable(g: LoopyMultigraph) -> None:
    canonical.check_key_limits(g)
    # One search frame per cut string; keying a position below that
    # recurses once per individualised vertex, at most its vertex count.
    need = g.edge_count + g.vertex_count + _STACK_MARGIN
    limit = sys.getrecursionlimit()
    if need > limit:
        raise DepthLimitError(
            f"position has {g.edge_count} strings on {g.vertex_count} coins; "
            f"searching it needs a recursion limit of about {need}, the limit is {limit}"
        )


class TranspositionTable:
    """Canonical key -> (flag, value) store with optional LRU eviction.

    Entries loaded from a persistent cache are exact by construction and
    are never evicted; ``fresh_exact_items`` yields only entries proven
    during this table's lifetime, which is what gets persisted back.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self._seed: dict[bytes, int] = {}
        self._store: dict[bytes, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._store) + len(self._seed)

    def seed(self, entries: dict[bytes, int]) -> None:
        """Pin exact values.  The first seeding keeps ``entries`` itself
        rather than a copy, so the caller must not change it afterwards;
        later seedings merge into a new dict and leave it untouched."""
        self._seed = {**self._seed, **entries} if self._seed else entries

    def get(self, key: bytes) -> tuple[int, int] | None:
        v = self._seed.get(key)
        if v is not None:
            return (EXACT, v)
        hit = self._store.get(key)
        if hit is not None and self.capacity is not None:
            # refresh recency under LRU
            del self._store[key]
            self._store[key] = hit
        return hit

    def put(self, key: bytes, flag: int, value: int) -> None:
        if key in self._seed:
            return
        if key in self._store:
            del self._store[key]
        elif self.capacity is not None and len(self._store) >= self.capacity:
            oldest = next(iter(self._store))
            del self._store[oldest]
        self._store[key] = (flag, value)

    def fresh_exact_items(self) -> list[tuple[bytes, int]]:
        return [(k, v) for k, (f, v) in self._store.items() if f == EXACT]


@dataclass
class SolveOptions:
    """Search configuration; defaults give the fast exact solver."""

    pruning: bool = True
    memo: bool = True
    memo_capacity: int | None = None
    table: TranspositionTable | None = None
    time_budget: float | None = None


@dataclass
class SearchStats:
    nodes: int = 0
    memo_hits: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class GameValue:
    """Solved outcome of a position with the mover counted as player 1."""

    differential: int
    p1_score: int
    p2_score: int
    winner: str  # "P1" | "P2" | "Tie"
    stats: SearchStats = field(compare=False, default_factory=SearchStats)


def scores_from_value(vertex_count: int, differential: int) -> tuple[int, int]:
    """Split a differential into (p1, p2) scores summing to the vertex count."""
    if abs(differential) > vertex_count or (differential - vertex_count) % 2 != 0:
        raise ValueConsistencyError(
            f"differential {differential} impossible on {vertex_count} vertices"
        )
    p1 = (vertex_count + differential) // 2
    return p1, vertex_count - p1


def _winner(differential: int) -> str:
    if differential > 0:
        return "P1"
    if differential < 0:
        return "P2"
    return "Tie"


class _Searcher:
    def __init__(self, opts: SolveOptions):
        self.opts = opts
        if opts.memo:
            self.table = opts.table if opts.table is not None else TranspositionTable(opts.memo_capacity)
        else:
            self.table = None
        self.stats = SearchStats()
        self._deadline: float | None = None
        self._tick = 0

    def start_clock(self) -> None:
        if self.opts.time_budget is not None:
            self._deadline = time.monotonic() + self.opts.time_budget

    def _check_budget(self) -> None:
        self._tick += 1
        if self._deadline is not None and self._tick % 1024 == 0:
            if time.monotonic() > self._deadline:
                raise SolveBudgetExceeded(f"time budget {self.opts.time_budget}s exceeded")

    def _move_order(self, g: LoopyMultigraph) -> list:
        """Moves as (a, b, ...) tuples, most captures first, ties in sorted
        order: the order of the children sorted by (-captured, edge count),
        since every child has one edge less, without building them."""
        inc = g._incident
        # a vertex with one edge instance left falls to whoever cuts it
        return sorted(g.signature(), key=lambda t: -((inc[t[0]] == 1) + (t[0] != t[1] and inc[t[1]] == 1)))

    def search(self, g: LoopyMultigraph, alpha: int, beta: int) -> int:
        if g.edge_count == 0:
            return 0
        self._check_budget()
        r = g.vertex_count
        pruning = self.opts.pruning
        if pruning:
            # every remaining vertex goes to someone: |true value| <= r
            if r <= alpha:
                return r
            if -r >= beta:
                return -r
            a = alpha if alpha > -r else -r
            b = beta if beta < r else r
        else:
            a, b = -r, r
        table = self.table
        if table is not None:
            key = canonical.canonical_key(g)
            hit = table.get(key)
            if hit is not None:
                flag, v = hit
                if flag == EXACT:
                    self.stats.memo_hits += 1
                    return v
                if pruning:
                    if flag == LOWER:
                        if v >= b:
                            self.stats.memo_hits += 1
                            return v
                        if v > a:
                            a = v
                    else:
                        if v <= a:
                            self.stats.memo_hits += 1
                            return v
                        if v < b:
                            b = v
        else:
            key = b""
        self.stats.nodes += 1
        a0 = a
        best = -(1 << 30)
        # children are built in move order only when reached, so none is
        # built past a cutoff
        for t in self._move_order(g):
            captured, succ = g._child(t[0], t[1])
            if captured:
                v = captured + self.search(succ, a - captured, b - captured)
            else:
                v = -self.search(succ, -b, -a)
            if v > best:
                best = v
                if v > a:
                    a = v
                    if pruning and a >= b:
                        break
        if table is not None:
            # a fail-low value is an upper bound and a fail-high value a
            # lower bound; meeting the vertex-count bound |v| <= r from
            # either side pins the value exactly
            if not pruning or (a0 < best < b) or best == -r or best == r:
                flag = EXACT
            elif best <= a0:
                flag = UPPER
            else:
                flag = LOWER
            table.put(key, flag, best)
        return best


def solve(g: LoopyMultigraph, opts: SolveOptions | None = None) -> GameValue:
    """Solve a position exactly; the player to move is player 1.

    Raises ``KeyLimitError`` for a position too large to key and
    ``DepthLimitError`` for one too deep to search under the current
    recursion limit.
    """
    _check_searchable(g)
    opts = opts or SolveOptions()
    searcher = _Searcher(opts)
    searcher.start_clock()
    t0 = time.perf_counter()
    n = g.vertex_count
    d = searcher.search(g, -n, n) if n else 0
    searcher.stats.elapsed = time.perf_counter() - t0
    p1, p2 = scores_from_value(n, d)
    return GameValue(d, p1, p2, _winner(d), searcher.stats)


def best_move(g: LoopyMultigraph, opts: SolveOptions | None = None) -> tuple[EdgeRef, GameValue]:
    """An optimal move and the position's value.

    Among optimal moves, ties break toward the lexicographically least
    canonical key of the successor, so the choice is label-independent.
    """
    if g.edge_count == 0:
        raise EmptyPositionError("no moves: position has no edges")
    _check_searchable(g)
    opts = opts or SolveOptions()
    searcher = _Searcher(opts)
    searcher.start_clock()
    t0 = time.perf_counter()
    n = g.vertex_count
    best_v = None
    best_ref = None
    best_key = b""
    for ref in g.distinct_moves():
        captured, succ = g._child(ref.u, ref.v)
        if captured:
            v = captured + searcher.search(succ, -n, n)
        else:
            v = -searcher.search(succ, -n, n)
        key = canonical.canonical_key(succ)
        if best_v is None or v > best_v or (v == best_v and key < best_key):
            best_v, best_ref, best_key = v, ref, key
    searcher.stats.elapsed = time.perf_counter() - t0
    p1, p2 = scores_from_value(n, best_v)
    return best_ref, GameValue(best_v, p1, p2, _winner(best_v), searcher.stats)


def iter_table(
    family: str,
    start: int,
    stop: int,
    opts: SolveOptions | None = None,
    fixed: tuple[int, ...] = (),
) -> Iterator[tuple[FamilySpec, GameValue]]:
    """Solve a family over a parameter range, sharing one table, and
    yield (spec, value) as each row finishes.

    The range varies the family's first parameter from ``start`` to
    ``stop`` inclusive; ``fixed`` supplies any remaining parameters.
    Positions recur across rows, so rows share a transposition table.
    A budget abort raises ``SolveBudgetExceeded`` with ``parameter``
    naming the row that did not finish.
    """
    from .families import generate, parse_family

    opts = opts or SolveOptions()
    if opts.table is None and opts.memo:
        opts = replace(opts, table=TranspositionTable(opts.memo_capacity))
    for p in range(start, stop + 1):
        spec = parse_family(family, (p,) + fixed)
        try:
            gv = solve(generate(spec), opts)
        except SolveBudgetExceeded as exc:
            exc.parameter = p
            raise
        yield spec, gv
