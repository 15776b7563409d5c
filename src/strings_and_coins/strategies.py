"""Deterministic playing policies and exact best-response evaluation.

A policy is a pure rule: given its bookkeeping state and the current
position it names a move; observing any move (its own or the opponent's)
yields the next state.  States are small hashable tuples so positions
can be memoized together with them, letting ``best_response_value``
compute the exact game value when one side is locked to a policy and the
other plays perfectly against it.

The mirroring policies live here: the doubled-graph mirror (open the
connecting edge, then answer each opponent move with its twin in the
other copy, taking any available captures first) and the quadrant mirror
for complete graphs on 4n vertices (answer within the paired quadrant
sets, with a take-everything clause once the position is a forest).
"""

from __future__ import annotations

from .graph import EdgeRef, LoopyMultigraph, MoveOutcome
from .solver import check_depth


class PolicyFault(RuntimeError):
    """A policy produced an illegal move; the message names the position."""


Pair = tuple[int, int]


def _norm(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


class PairedMirrorPolicy:
    """Mirror play over a fixed involution on edge classes.

    The state is the queue of owed twin moves.  When the opponent's turn
    ends with a non-capturing move, that move's twin joins the queue;
    twins of the opponent's capturing moves are treated as consumed.  On
    its own turn the policy first plays the opening edge if it is still
    on the board, then takes available captures (preferring queued
    twins), then the oldest queued twin still present, and otherwise the
    least legal move.
    """

    def __init__(
        self,
        pairing: dict[Pair, Pair],
        opening: Pair | None = None,
        forest_takeover: bool = False,
        name: str = "mirror",
    ):
        self.pairing = pairing
        self.opening = opening
        self.forest_takeover = forest_takeover
        self.name = name

    def initial_state(self, g: LoopyMultigraph) -> tuple:
        return ()

    def _leaf_strip_move(self, g: LoopyMultigraph) -> EdgeRef:
        for v in g.vertices:
            if g.incident_count(v) == 1:
                for a, b, _ in g._sig:
                    if a == v or b == v:
                        return EdgeRef(a, b)
        return EdgeRef(*g._sig[0][:2])

    def choose(self, state: tuple, g: LoopyMultigraph) -> EdgeRef:
        if g.edge_count == 0:
            raise PolicyFault(f"no legal move in {g!r}")
        if self.opening is not None and g.multiplicity(*self.opening) > 0:
            return EdgeRef(*self.opening)
        if self.forest_takeover and g.is_forest():
            # a forest is a won endgame: strip leaves and take everything
            return self._leaf_strip_move(g)
        inc = g._incident
        # a class captures when one of its endpoints has nothing else left
        captures = {(a, b) for a, b, _ in g._sig if inc[a] == 1 or inc[b] == 1}
        if captures:
            for p in state:
                if p in captures:
                    return EdgeRef(*p)
            return EdgeRef(*min(captures))
        if state:
            return EdgeRef(*state[0])
        return EdgeRef(*g._sig[0][:2])

    def observe(
        self,
        state: tuple,
        g_before: LoopyMultigraph,
        by_policy: bool,
        move: Pair,
        outcome: MoveOutcome,
    ) -> tuple:
        move = _norm(*move)
        pending = list(state)
        if by_policy:
            if move in pending:
                pending.remove(move)
        elif outcome.captured == 0:
            twin = self.pairing.get(move)
            if twin is not None:
                pending.append(twin)
        succ = outcome.successor
        return tuple(p for p in pending if succ.multiplicity(*p) > 0)


def doubled_graph(base: LoopyMultigraph, anchor: int = 0) -> tuple[LoopyMultigraph, dict[Pair, Pair], Pair]:
    """Two copies of ``base`` joined by one edge at ``anchor``.

    Returns (graph, pairing, connecting edge).  The base is relabeled to
    0..n-1 by rank; copy A keeps those ids, copy B adds n.  The pairing
    maps each copy-A edge class to its copy-B twin and back; the
    connecting edge pairs with nothing.
    """
    verts = base.vertices
    if not verts:
        raise ValueError("doubled graph needs a non-empty base")
    if anchor not in base._incident:
        raise ValueError(f"anchor {anchor} not a base vertex")
    rank = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    edges: list[Pair] = []
    pairing: dict[Pair, Pair] = {}
    for a, b, m in base._sig:
        pa = _norm(rank[a], rank[b])
        pb = _norm(rank[a] + n, rank[b] + n)
        edges.extend([pa] * m)
        edges.extend([pb] * m)
        pairing[pa] = pb
        pairing[pb] = pa
    bridge = _norm(rank[anchor], rank[anchor] + n)
    edges.append(bridge)
    return LoopyMultigraph.from_edges(edges), pairing, bridge


def mirror_policy(base: LoopyMultigraph, anchor: int = 0) -> tuple[LoopyMultigraph, PairedMirrorPolicy]:
    """Doubled graph plus the open-then-mirror policy for its first player."""
    g, pairing, bridge = doubled_graph(base, anchor)
    pol = PairedMirrorPolicy(pairing, opening=bridge, name="mirror")
    return g, pol


def balloon_mirror(n: int) -> tuple[LoopyMultigraph, PairedMirrorPolicy]:
    """Even balloon path as a doubled half, opened at the center edge."""
    if n < 2 or n % 2 != 0:
        raise ValueError("balloon mirror needs an even path length >= 2")
    from .families import make

    half = make("balloon_path", n // 2)
    # anchoring at the path's far end makes the bridge the center edge
    return mirror_policy(half, anchor=n // 2 - 1)


def quadrant_pairing(n: int) -> dict[Pair, Pair]:
    """Edge involution on the complete graph over 4n vertices.

    Vertices split into quadrants A, B, C, D of size n by id range, with
    id = quadrant * n + index.  An edge inside one quadrant pairs with
    the same-index edge inside the diagonal quadrant (A with D, B with
    C).  An edge between two quadrants pairs with the same-index edge
    between the complementary two (AB with CD, AC with BD, AD with BC).
    """
    diag = {0: 3, 1: 2, 2: 1, 3: 0}
    cross = {
        (0, 1): (2, 3),
        (0, 2): (1, 3),
        (0, 3): (1, 2),
        (1, 2): (0, 3),
        (1, 3): (0, 2),
        (2, 3): (0, 1),
    }
    pairing: dict[Pair, Pair] = {}
    total = 4 * n
    for a in range(total):
        for b in range(a + 1, total):
            qa, ia = divmod(a, n)
            qb, ib = divmod(b, n)
            if qa == qb:
                q = diag[qa]
                twin = _norm(q * n + ia, q * n + ib)
            else:
                qx, qy = cross[(qa, qb)]
                twin = _norm(qx * n + ia, qy * n + ib)
            pairing[(a, b)] = twin
    return pairing


def quadrant_mirror_policy(n: int) -> PairedMirrorPolicy:
    """Second-player quadrant mirror for the complete graph on 4n vertices.

    Experimental: answers each move with its quadrant twin, takes
    available captures first, and takes everything once the position is
    a forest.  Its guarantee is checked empirically, not assumed.
    """
    if n < 1:
        raise ValueError("quadrant mirror needs n >= 1")
    return PairedMirrorPolicy(
        quadrant_pairing(n), opening=None, forest_takeover=True, name=f"quadrant-mirror-{n}"
    )


def best_response_value(
    g: LoopyMultigraph,
    policy,
    controlled: str = "P1",
) -> int:
    """Exact differential (player 1's view) with ``controlled`` locked to
    ``policy`` and the other side playing perfectly against it.

    Positions are memoized together with the policy state and the player
    to move, so the adversary's exhaustive search shares work across
    transpositions.  It recurses once per cut string, and a policy may
    search below that, so a position too deep for ``solve`` raises
    ``solver.DepthLimitError`` here too, before any move is played.
    """
    if controlled not in ("P1", "P2"):
        raise ValueError("controlled must be 'P1' or 'P2'")
    check_depth(g)
    memo: dict = {}

    def val(g: LoopyMultigraph, state: tuple, to_move: str) -> int:
        if g.edge_count == 0:
            return 0
        key = (g.signature(), state, to_move)
        hit = memo.get(key)
        if hit is not None:
            return hit
        sign = 1 if to_move == "P1" else -1
        other = "P2" if to_move == "P1" else "P1"
        if to_move == controlled:
            ref = policy.choose(state, g)
            if ref is None or g.multiplicity(ref.u, ref.v) == 0:
                raise PolicyFault(f"{policy.name} chose illegal {ref} in {g!r}")
            out = g.remove_edge(ref)
            st = policy.observe(state, g, True, (ref.u, ref.v), out)
            nxt = to_move if out.mover_moves_again else other
            v = sign * out.captured + val(out.successor, st, nxt)
        else:
            r = g.vertex_count
            best = None
            for ref in g.distinct_moves():
                out = g.remove_edge(ref)
                st = policy.observe(state, g, False, (ref.u, ref.v), out)
                nxt = to_move if out.mover_moves_again else other
                cand = sign * out.captured + val(out.successor, st, nxt)
                if best is None or (cand > best if sign > 0 else cand < best):
                    best = cand
                    if best == sign * r:
                        break  # adversary already takes every remaining vertex
            v = best
        memo[key] = v
        return v

    try:
        return val(g, policy.initial_state(g), "P1")
    finally:
        del val  # it holds itself through its closure: a cycle for the collector
