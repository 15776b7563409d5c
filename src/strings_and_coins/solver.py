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
                    The table owns the keying caches too, so nothing a
                    solve keys outlives its table or reaches another
                    solve that does not share it.
* ``pruning``    -- alpha-beta windows (shifted by captures), plus
                    clamping to the remaining-vertex bound |value| <= r.
                    Every move after the first is searched first with a
                    null window, as in PVS/NegaScout (Reinefeld, 1983),
                    and again, above that answer, only when the answer
                    beats alpha but not beta.  A table entry then holds a
                    (lower, upper) pair of fail-soft bounds that every
                    visit tightens; without pruning every entry is exact.
                    A position with a safe capture (below) is not searched
                    at all: the capture is taken at once, and the position
                    is neither keyed, probed, stored nor counted as a node.
                    At a coin whose neighbour holds two strings, only the
                    captures and the decline are tried; elsewhere a coin
                    holding two strings is offered only by the cut a
                    hard-hearted handout keeps, and a chain of three or
                    more coins by one of its links (all below).

Any combination yields the same value; only the work differs.
``solve`` values one position, ``best_move`` also names an optimal move,
and ``iter_table`` streams a family's rows over a parameter range through
one shared table.

Moves are tried most captures first, then fewest coins offered (left on
a single string for the opponent to take), then lowest sum of the
endpoints' string counts, ties in sorted order.  All three are read off
the incident counts, so the order is fixed before any child exists;
children are then built in that order on demand, and none is built past
an alpha-beta cutoff.  With the table on, a node tries one edge class
per orbit of the automorphisms that keying it found
(``canonical.move_classes``), so a child isomorphic to a sibling's is
neither built nor keyed; without the table nothing is keyed, and every
class is tried.

A safe capture cuts the one string e of a coin v when e is a loop or its
other end u holds other than two strings (e included).  Then
value(g) = captured + value(g - e), so declining it never does better
(Berlekamp, *The Dots and Boxes Game*, 2000).  By induction on the
number of strings, with H = g - e and c the coins e captures:

* e is the only string of its component (a lone loop, or u holds nothing
  else).  Every other move m leaves that component in place, so
  value(g_m) = c + value(H_m).  A move m capturing k is worth
  k + c + value(H_m) <= c + value(H); one capturing nothing is worth
  -c - value(H_m) <= c + value(H).
* u holds three or more strings.  Every other move m is a move of H with
  the same captures.  If u keeps two or more strings in H_m, induction
  and the same arithmetic apply.  Otherwise m cuts one of u's three
  strings.  If it captures nothing, the opponent may take v, so
  value(g_m) >= 1 + value(H_m) and m is worth at most -1 - value(H_m)
  <= c + value(H).  If it captures, it takes a coin w hanging on u by one
  string, and g_m is g - e with v and w swapped, so m is worth exactly
  what e is.

On a neighbour with exactly two strings the rule is false: in
(0,1) (0,2) (1,2) (3,4) loop@4 the mover wins by one, but taking coin 3
first loses by one.

There the search tries only the captures and the decline, the
double-dealing move of dots-and-boxes (Berlekamp; Buzzard & Ciere,
arXiv:1305.2156).  Let coin v hold one string e = (v, u), and u exactly
two, e and f; cutting e captures v alone.  Let m be a move that captures
nothing in g and nothing in g - e.  The second condition excludes exactly
f, the one string g - e leaves at u.  v still hangs by e in g - m, with u
keeping f, so the opponent may take v first: value(g - m) >= 1 +
value(g - m - e), and m is worth at most -1 - value(g - e - m).  Taking e
and then playing m, which captures nothing in g - e, is worth at least
1 - value(g - e - m).  So every such m is at least 2 below e.  A node
without a safe capture, at the first such coin in signature order, tries
its capturing classes and f, f itself even when it is no orbit
representative (a capturing f's orbit is among the captures).  The best
of them has the node's value, so exact and bound results stay sound, and
``best_move``'s root leaves the same classes out: none is optimal.
``SearchStats.dominated_skips`` counts the classes left out.

Where neither rule fires, no coin holds a single string, so no cut
captures, and the search leaves out the cut that only hands the
opponent an extra option: it offers a coin by its middle string, the
hard-hearted handout (Berlekamp).  Let coin v hold exactly two strings,
each of multiplicity 1: a, and s = (v, w), where s is no loop.  The
search leaves a out when

* (L) a is a loop, or
* (N) a = (v, x) is no loop, x holds three or more strings, and w holds
  exactly two.

After cutting s, v hangs on a, and a is a loop or its other end holds
three or more strings, so the safe-capture theorem gives the opponent
exactly 1 + value(g - s - a): s is worth -1 - value(g - s - a).  Cutting
a captures nothing, and the opponent may then cut s, take v and move
again in g - a - s, so value(g - a) >= 1 + value(g - a - s) and a is
worth at most what s is.

No dominator is ever left out.  The string s is no loop, so only (N)
could leave it out.  From w's side that needs v to hold three or more
strings, and v holds two.  From v's side it needs a to be no loop, which
fails in (L), and w to hold three or more strings, which fails in (N).
A coin between two joints, two coins that each hold three or more
strings, keeps both of its strings: each dominates the other, and
leaving one out would take a tie-break on labels, which could leave out
both once move classes keep one orbit representative of a symmetric
pair.

The conditions read only incident counts, so they hold alike across an
orbit, and the rule filters ``canonical.move_classes`` as it filters
``g.signature()``.  A tried class is worth at least as much as each class
left out, so exact and fail-soft results stay sound, as for the decline,
and ``dominated_skips`` counts these classes too.  ``best_move``'s root
keeps them: one can tie its dominator, and the tie-break may pick it.

Where ``_verdict`` finds nothing, a long chain is also offered by one cut
only, Berlekamp's loony move: opening a chain of three or more coins
anywhere hands the opponent the same position up to the split of the
chain, and the split does not change its value.  A chain is a maximal
run of coins v1, ..., vk that each hold exactly two strings of
multiplicity 1, joined by links s_i = (v_i, v_i+1), 0 < i < k.  Its end
strings s_0 at v1 and s_k at vk are loops (strings to the ground) or run
to joints, coins holding three or more strings; both may run to the same
joint.  With k >= 3 the search tries, of the k - 1 links, only the first
in ``moves``.

Let D(a, b), a + b <= k, be g without the coins v_a+1, ..., v_k-b and the
strings s_a, ..., s_k-b: a piece of a coins hangs by s_0 and one of b by
s_k, and cutting s_i hands the opponent D(i, k - i).  Let h = value(D(0,
0)) and p = value(D(1, 0)); taking the lone coin shows p >= 1 + h.  A
joint holds at least one string outside the chain, two if it is only one
chain end, and one more per nonempty piece hanging from it; so it holds
three or more while both pieces are nonempty, and two or more while one
is, also when the chain returns to its own joint.  So for a + b >= 1 no
coin of D(a, b) holds a single string but the free end of each nonempty
piece, since g has none.  Hence:

* D(1, 1): each lone coin hangs by a loop or from a joint holding three
  or more strings, so a one-coin piece left by a cut of a longer chain is
  a safe capture.  Taken at either coin first, value(D(1, 1)) = 1 + p =
  1 + value(D(0, 1)), so D(0, 1) is worth p too.
* D(a, b) with a >= 2 (b alike): the free end hangs on a coin holding two
  strings, so only the captures and the decline count (above).  A
  capture takes one coin, leaving D(a - 1, b) or D(a, b - 1).  The decline
  cuts a link, or an end string at a joint holding two or more, or a loop
  at a coin holding a link, so it captures nothing.  It leaves the last
  two coins of the piece as a component of their own, a safe capture, so
  it is worth -2 - value(D(a - 2, b)).

Claim: value(D(a, b)) = F(n) = max(n - 1 + p, n - 4 - h), n = a + b,
for n >= 2 and (a, b) != (1, 1); say a >= 2.  Below: taking one coin at a
time shows value(D(a, b)) >= n - 1 + p for n >= 1, and taking all but
the last two coins of the piece of a and then declining shows
value(D(a, b)) >= n - 4 - h.  Above, by induction on n: a capture is
worth 1 + F(n - 1) = F(n), or 1 + value(D(1, 1)) = 2 + p when n = 3, or
1 + p when n = 2, each at most F(n).  The decline is worth -2 - h <=
F(2) when n = 2, and otherwise at most -2 - (n - 3 + p) <= -n - h <=
n - 4 - h.  So every link of a chain of three or more coins leaves the
opponent F(k), and so does each end string, since D(k, 0) and D(0, k)
hold a piece of k >= 2.  The kept link is worth exactly each link left
out.

Two cases are left alone.  A two-coin chain has one link, which leaves
the opponent D(1, 1) = 1 + p, while an end string leaves F(2), which is
more when -2 - h > 1 + p: there the cuts differ, and the handout rule
already keeps only the link.  A jointless cycle has no end to hang its
pieces from, so the proof does not reach it; its cuts are all one orbit
under rotation, so with the table ``move_classes`` already tries one.

Each chain keeps the first of its links in ``moves``, never a link picked
by label: a link that ``move_classes`` left out is covered by its orbit's
representative, an automorphism maps chains onto chains of the same
length, and each chain with a link in ``moves`` keeps one.  The handout
rule never leaves out a link (both its coins hold two strings), so the
kept link is tried, and a handout's dominator that the chain rule leaves
out is worth exactly the kept link on its chain.  Links left out count in
``dominated_skips``.  ``best_move``'s root keeps them: each ties the kept
link and may win the tie-break.

The search recurses once per cut string, so ``solve`` and ``best_move``
(and ``strategies.best_response_value``, through ``check_depth``) refuse,
with ``DepthLimitError``, a position whose strings would not fit under
``sys.getrecursionlimit()`` together with canonical keying's own
recursion.  ``iter_table`` refuses such a row, through
``check_family_depth``, before building it.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from . import canonical
from .graph import EdgeRef, LoopyMultigraph

if TYPE_CHECKING:
    from .families import FamilySpec

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
    check_depth(g)


def check_depth(g: LoopyMultigraph) -> None:
    """Raise ``DepthLimitError`` when a search of ``g`` that recurses once
    per cut string could outgrow ``sys.getrecursionlimit()``."""
    _check_depth_counts(g.edge_count, g.vertex_count)


def check_family_depth(spec: FamilySpec) -> None:
    """``check_depth`` of ``generate(spec)``, read off the family's counts,
    so a row too deep to search is refused before any string is built.
    A sized family has at least p - 1 strings for each parameter p, so a
    parameter above the square of the recursion limit is refused before
    its counts are computed: hypercube's grow as 2^p, and 1 << p alone
    can exhaust memory.  A smaller parameter gets the counted message."""
    from .families import counts, is_edge_list

    limit = sys.getrecursionlimit()
    if not is_edge_list(spec) and max(spec.params, default=0) > limit * limit:
        raise DepthLimitError(
            f"{spec.family} parameter above {limit * limit}: the position has at least that many strings, "
            f"too many to search under the recursion limit of {limit}"
        )
    _check_depth_counts(*counts(spec))


def _check_depth_counts(strings: int, coins: int) -> None:
    # One search frame per cut string; keying a position below that
    # recurses once per individualised vertex, at most its vertex count.
    need = strings + coins + _STACK_MARGIN
    limit = sys.getrecursionlimit()
    if need > limit:
        raise DepthLimitError(
            f"position has {_digits(strings)} strings on {_digits(coins)} coins; "
            f"searching it needs a recursion limit of about {_digits(need)}, the limit is {limit}"
        )


def _digits(n: int) -> str:
    """``n`` in decimal, or as at least a power of two when it has more
    digits than ``str`` converts."""
    try:
        return str(n)
    except ValueError:
        return f"2^{n.bit_length() - 1} or more"


class TranspositionTable:
    """Canonical key -> (lower, upper) bounds on the position's value.

    ``put`` intersects new bounds with the stored ones, so an entry only
    tightens; it is exact once the two are equal.  Entries loaded from a
    persistent cache are exact by construction, kept apart and read as
    (v, v); ``fresh_exact_items`` yields only the exact entries proven
    during this table's lifetime: what gets persisted back.

    The table owns ``keys``, the ``canonical.KeyCache`` that every search
    through it keys positions with, so keying work is shared exactly when
    the table is and is dropped with it.
    """

    def __init__(self):
        self._seed: Mapping[bytes, int] = {}
        self._store: dict[bytes, tuple[int, int]] = {}
        self.keys = canonical.KeyCache()

    def __len__(self) -> int:
        return len(self._store) + len(self._seed)

    def seed(self, entries: Mapping[bytes, int]) -> None:
        """Pin exact values.  ``entries`` may be any read-only mapping,
        such as a loaded cache's lazy ``CacheLoad.entries``: a probe calls
        only its ``get`` and ``in``.  The first seeding keeps ``entries``
        itself rather than a copy, so the caller must not change it
        afterwards; later seedings merge into a new dict and leave it
        untouched."""
        self._seed = {**self._seed, **entries} if self._seed else entries

    def get(self, key: bytes) -> tuple[int, int] | None:
        v = self._seed.get(key)
        if v is not None:
            return (v, v)
        return self._store.get(key)

    def put(self, key: bytes, lo: int, hi: int) -> None:
        if key in self._seed:
            return
        old = self._store.get(key)
        if old is not None:
            if old[0] > lo:
                lo = old[0]
            if old[1] < hi:
                hi = old[1]
        self._store[key] = (lo, hi)

    def fresh_exact_items(self) -> list[tuple[bytes, int]]:
        return [(k, lo) for k, (lo, hi) in self._store.items() if lo == hi]


@dataclass
class SolveOptions:
    """Search configuration; defaults give the fast exact solver."""

    pruning: bool = True
    memo: bool = True
    table: TranspositionTable | None = None
    time_budget: float | None = None


@dataclass
class SearchStats:
    nodes: int = 0
    memo_hits: int = 0
    # edge classes not tried because an earlier class shares their orbit
    symmetric_skips: int = 0
    # safe captures taken at once, without keying or expanding the position
    forced_captures: int = 0
    # edge classes not tried because a tried class is worth at least as much
    dominated_skips: int = 0
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
    def __init__(self, opts: SolveOptions, deadline: float | None):
        self.opts = opts
        if opts.memo:
            self.table = opts.table if opts.table is not None else TranspositionTable()
            self.keys = self.table.keys
        else:
            # nothing is keyed during the search: only ``best_move``'s
            # tie-break reads this
            self.table = None
            self.keys = canonical.KeyCache()
        self.stats = SearchStats()
        self.deadline = deadline

    def _move_order(self, g: LoopyMultigraph, moves: tuple) -> list:
        """The classes ``moves`` of ``g``, as (a, b, ...) tuples, sorted by
        (-captures, offers, inc[a] + inc[b]), ties in sorted order.

        A cut captures each endpoint it leaves with no string, and offers
        the opponent each endpoint it leaves with one; a loop counts its
        coin once.  So captures come first and sacrifices last, as
        dots-and-boxes solvers order them (Barker & Korf, AAAI 2012), and
        among cuts that offer alike, the string between the coins with the
        fewest strings comes first.  All three are read off the incident
        counts, so the order is fixed before any child exists."""
        inc = g._incident

        def rank(t: tuple) -> tuple[int, int, int]:
            na = inc[t[0]]
            if t[0] == t[1]:
                return -(na == 1), na == 2, na + na
            nb = inc[t[1]]
            return -(na == 1) - (nb == 1), (na == 2) + (nb == 2), na + nb

        return sorted(moves, key=rank)

    @staticmethod
    def _verdict(g: LoopyMultigraph) -> tuple:
        """What the move rules make of ``g``, from one pass over its
        signature, as (t, f, links):

        * (t, None, None) when t is the first class, in signature order,
          whose cut captures a coin v with no loss: v holds this one
          string, and it is a loop or its other end holds other than two
          strings.  The search takes it at once.
        * Otherwise (e, f, None) when e is the first class that cuts such
          a coin v from a u holding exactly two strings, and f is u's
          other string: the decline.
        * Otherwise (None, None, links): no coin holds a single string, and
          ``links`` holds the strings of multiplicity 1 between two coins
          that each hold exactly two strings.  ``_tried`` reads the
          handouts and the chains off them.

        The module docstring proves the rules."""
        inc = g._incident
        e = None
        links = []
        for t in g._sig:
            a, b, m = t
            if a == b:
                if inc[a] == 1:
                    return t, None, None
                continue
            na, nb = inc[a], inc[b]
            if na == 1:
                if nb != 2:
                    return t, None, None
                if e is None:
                    e, u = t, b
            elif nb == 1:
                if na != 2:
                    return t, None, None
                if e is None:
                    e, u = t, a
            elif na == 2 and nb == 2 and m == 1:
                links.append(t)
        if e is not None:
            for f in g._sig:
                if (f[0] == u or f[1] == u) and f is not e:
                    return e, f, None
        return None, None, links

    @staticmethod
    def _chain_skips(links: list, moves: tuple) -> set:
        """The links of ``moves`` that lie on a path of ``links`` together
        with a link earlier in ``moves``.  A cycle of links leaves none
        out."""
        at = {}
        for t in links:
            at.setdefault(t[0], []).append(t)
            at.setdefault(t[1], []).append(t)
        covered = set()
        skips = set()
        for t in moves:
            if t in covered:
                skips.add(t)
            elif t in at.get(t[0], ()):
                run = [t]
                ends = 0
                for s in run:  # grows while it is read
                    for v in (s[0], s[1]):
                        here = at[v]
                        if len(here) == 1:
                            ends += 1
                        else:
                            for u in here:
                                if u not in run:
                                    run.append(u)
                if ends:
                    covered.update(run)
        return skips

    def _tried(self, g: LoopyMultigraph, moves: tuple, f: tuple | None, links: list | None) -> tuple | list:
        """The classes of ``moves`` left to try, in their order, by a
        verdict (t, f, links) of ``_verdict`` other than a safe capture.

        After a decline, the classes that capture, plus the decline f even
        when ``moves`` lacks it, f last when added: every class left out is
        at least 2 below a capture.  Otherwise every class but the
        handouts and, on each chain of three or more coins, the links after
        the first in ``moves``.  With no coin on a single string, the
        handouts are the loops of multiplicity 1 at a coin holding two
        strings (L), and each string one of whose ends holds a link and the
        other none (N): the first end holds just the string and the link,
        so the string has multiplicity 1, and its other end holds three or
        more strings, or the string would be a link too.  The classes left
        out count in ``dominated_skips``."""
        inc = g._incident
        if f is not None:
            kept = [t for t in moves if inc[t[0]] == 1 or inc[t[1]] == 1 or t == f]
        else:
            on = {t[0] for t in links}
            on.update(t[1] for t in links)
            out = {
                t for t in moves if (t[0] in on) != (t[1] in on) or t[0] == t[1] and t[2] == 1 and inc[t[0]] == 2
            }
            # only a coin holding two links joins a chain of three coins
            if len(on) < 2 * len(links):
                out |= self._chain_skips(links, moves)
            if not out:
                return moves
            kept = [t for t in moves if t not in out]
        self.stats.dominated_skips += len(moves) - len(kept)
        # a decline that captures is in the orbit of a capture kept above
        if f is not None and inc[f[0]] != 1 and inc[f[1]] != 1 and f not in kept:
            kept.append(f)
        return kept

    def search(self, g: LoopyMultigraph, alpha: int, beta: int) -> int:
        """Fail-soft value of ``g`` for the window (alpha, beta): exact
        strictly inside it, an upper bound at or below alpha, a lower
        bound at or above beta.

        With the table on, only the classes of ``canonical.move_classes``
        are tried; with ``memo=False`` nothing is keyed and every class is.
        A class left out has a tried class with the same capture count and
        an isomorphic child, so its true value is that tried class's, and
        the true value of ``g`` is the best over the tried classes alone.
        With pruning on, at a coin whose neighbour holds two strings
        (``_verdict``) only the capturing classes among them and the
        decline are tried: a class left out is then worth at least 2 less
        than a capture, and again the best tried class has the true value.
        Where ``_verdict`` finds neither, the classes a hard-hearted
        handout leaves out are each worth no more than a tried class, and
        the links a chain of three or more coins leaves out exactly what
        its tried link is worth.
        A fail-soft search over those classes is then as sound as over all:
        an exact result stays exact; a fail-high result is a lower bound
        from a real child; a fail-low result is the largest of upper bounds
        on the tried children, so still at least the true value.  The
        order of the tried classes plays no part, so it does not matter
        that a class left out for a repeated component may sort before the
        one tried in its place.

        With pruning on, a stored (lower, upper) pair that does not settle
        the node narrows its window.  Narrowing keeps the result sound:
        the true value lies between the stored bounds, so a result that
        fails low against a raised alpha or high against a lowered beta
        is exactly that bound.
        """
        if g.edge_count == 0:
            return 0
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise SolveBudgetExceeded(f"time budget {self.opts.time_budget}s exceeded")
        r = g.vertex_count
        pruning = self.opts.pruning
        if pruning:
            # every remaining vertex goes to someone: |true value| <= r
            if r <= alpha:
                return r
            if -r >= beta:
                return -r
            t, f, links = self._verdict(g)
            if t is not None and f is None:
                # value(g) = captured + value(successor): see the module
                # docstring.  g is neither keyed nor stored
                self.stats.forced_captures += 1
                captured, succ = g._child(t[0], t[1])
                return captured + self.search(succ, alpha - captured, beta - captured)
            a = alpha if alpha > -r else -r
            b = beta if beta < r else r
        else:
            a, b = -r, r
        table = self.table
        if table is not None:
            key = canonical.canonical_key(g, deadline, self.keys)
            hit = table.get(key)
            if hit is not None:
                lo, hi = hit
                if lo == hi:
                    self.stats.memo_hits += 1
                    return lo
                if pruning:
                    if lo >= b:
                        self.stats.memo_hits += 1
                        return lo
                    if hi <= a:
                        self.stats.memo_hits += 1
                        return hi
                    if lo > a:
                        a = lo
                    if hi < b:
                        b = hi
            moves = canonical.move_classes(g, deadline, self.keys)
        else:
            key = b""
            moves = g.signature()
        self.stats.nodes += 1
        self.stats.symmetric_skips += len(g.signature()) - len(moves)
        if pruning:
            moves = self._tried(g, moves, f, links)
        a0 = a
        best = -(1 << 30)
        null = False
        # children are built in move order only when reached, so none is
        # built past a cutoff
        for t in self._move_order(g, moves):
            captured, succ = g._child(t[0], t[1])
            # after the first move, the null window (a, a + 1) asks only
            # whether a move beats a.  A fail-soft answer v inside (a, b)
            # is a lower bound, so the search again looks only above v;
            # an answer there is an upper bound when at or below v, so
            # then it is v itself
            top = a + 1 if null else b
            if captured:
                v = captured + self.search(succ, a - captured, top - captured)
                if null and a < v < b:
                    v = captured + self.search(succ, v - captured, b - captured)
            else:
                v = -self.search(succ, -top, -a)
                if null and a < v < b:
                    v = -self.search(succ, -b, -v)
            null = pruning
            if v > best:
                best = v
                if v > a:
                    a = v
                    if pruning and a >= b:
                        break
        if table is not None:
            # a fail-low value is an upper bound and a fail-high value a
            # lower bound, with |v| <= r on the other side; ``put`` meets
            # them with the stored bounds, so an entry ends up exact once
            # its two bounds meet
            if not pruning or a0 < best < b:
                table.put(key, best, best)
            elif best <= a0:
                table.put(key, -r, best)
            else:
                table.put(key, best, r)
        return best


def solve(g: LoopyMultigraph, opts: SolveOptions | None = None) -> GameValue:
    """Solve a position exactly; the player to move is player 1.

    Raises ``KeyLimitError`` for a position too large to key and
    ``DepthLimitError`` for one too deep to search under the current
    recursion limit.
    """
    opts = opts or SolveOptions()
    return _solve(g, opts, _deadline(opts))


def _deadline(opts: SolveOptions) -> float | None:
    """The ``time.monotonic()`` reading at which ``opts.time_budget``
    runs out if the clock starts now, or None without a budget.  Raises
    ``ValueError`` for a NaN budget, which no clock reading passes."""
    if opts.time_budget is None:
        return None
    if math.isnan(opts.time_budget):
        raise ValueError("time_budget is nan; give a number of seconds")
    return time.monotonic() + opts.time_budget


def _solve(g: LoopyMultigraph, opts: SolveOptions, deadline: float | None) -> GameValue:
    _check_searchable(g)
    searcher = _Searcher(opts, deadline)
    t0 = time.perf_counter()
    n = g.vertex_count
    d = searcher.search(g, -n, n) if n else 0
    searcher.stats.elapsed = time.perf_counter() - t0
    p1, p2 = scores_from_value(n, d)
    return GameValue(d, p1, p2, _winner(d), searcher.stats)


def best_move(g: LoopyMultigraph, opts: SolveOptions | None = None) -> tuple[EdgeRef, GameValue]:
    """An optimal move and the position's value.

    Among optimal moves, ties break toward the lexicographically least
    canonical key of the successor, so the choice is label-independent,
    and then toward the least edge class.  The root tries every class,
    each with the full window, so with the table on a class whose child
    is isomorphic to an earlier sibling's costs one exact table hit.
    With pruning on, a root where ``search`` would try only the captures
    and the decline tries only those: a class left out is at least 2
    below a capture, so it is never optimal and no tie is lost.  The
    root keeps every class a hard-hearted handout leaves out, and every
    link of a chain: such a class can tie its dominator, or the link kept
    on its chain, and win the tie-break.
    """
    if g.edge_count == 0:
        raise EmptyPositionError("no moves: position has no edges")
    _check_searchable(g)
    opts = opts or SolveOptions()
    searcher = _Searcher(opts, _deadline(opts))
    t0 = time.perf_counter()
    n = g.vertex_count
    best_v = None
    best_ref = None
    best_key = b""
    classes = g.signature()
    if opts.pruning:
        _, f, links = searcher._verdict(g)
        if f is not None:
            classes = searcher._tried(g, classes, f, links)
    for a, b, _ in classes:
        ref = EdgeRef(a, b)
        captured, succ = g._child(a, b)
        if captured:
            v = captured + searcher.search(succ, -n, n)
        else:
            v = -searcher.search(succ, -n, n)
        key = canonical.canonical_key(succ, searcher.deadline, searcher.keys)
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
    Positions recur across rows, so rows share a transposition table
    and the key caches it owns.
    ``opts.time_budget`` covers the whole range: each row gets the time
    the rows before it left.  A budget abort raises ``SolveBudgetExceeded``
    with ``parameter`` naming the row that did not finish.
    """
    from .families import generate, parse_family

    opts = opts or SolveOptions()
    if opts.table is None and opts.memo:
        opts = replace(opts, table=TranspositionTable())
    deadline = _deadline(opts)
    for p in range(start, stop + 1):
        spec = parse_family(family, (p,) + fixed)
        check_family_depth(spec)
        try:
            gv = _solve(generate(spec), opts, deadline)
        except SolveBudgetExceeded as exc:
            exc.parameter = p
            raise
        yield spec, gv
