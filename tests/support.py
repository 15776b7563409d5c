"""Shared test fixtures: a blind reference solver and graph corpora.

The oracle here deliberately knows nothing about canonical forms,
pruning, symmetry, or even parallel-edge deduplication: it recurses over
raw edge instances, remembering only the values of labelled positions it
has already met.  Anything the real solver gets right must agree with it
on small positions.

Expensive corpus evaluations are computed once per test session and
shared between the unit suites and the acceptance suite.
"""

from __future__ import annotations

import random
from functools import lru_cache

from strings_and_coins.canonical import key_fields
from strings_and_coins.graph import EdgeRef, LoopyMultigraph
from strings_and_coins.families import make
from strings_and_coins.solver import SolveOptions, TranspositionTable, best_move


def brute_value(g: LoopyMultigraph) -> int:
    """Blind negamax over raw edge instances, memoised within this call on
    the labelled signature, which the value of a position is a pure
    function of.  No canonical keys, no pruning, no dedup, no symmetry."""
    memo: dict[tuple, int] = {}

    def value(h: LoopyMultigraph) -> int:
        sig = h.signature()
        v = memo.get(sig)
        if v is None:
            v = memo[sig] = _negamax(h, value)
        return v

    return value(g)


def plain_brute_value(g: LoopyMultigraph) -> int:
    """``brute_value`` without its memo: the check of the memo itself."""
    return _negamax(g, plain_brute_value)


def _negamax(g: LoopyMultigraph, value) -> int:
    """Best over every edge instance of ``g`` of what cutting it is worth
    to the mover, with ``value`` valuing each successor."""
    if g.edge_count == 0:
        return 0
    best = None
    for a, b, mult in g.signature():
        # each instance of a parallel class is explored separately on purpose
        for _ in range(mult):
            out = g.remove_edge((a, b))
            if out.captured:
                v = out.captured + value(out.successor)
            else:
                v = -value(out.successor)
            if best is None or v > best:
                best = v
    return best


class OptimalPolicy:
    """Plays a solver-optimal move; the baseline every policy is judged
    against.  Its ``choose`` calls share one table, and with it the
    keying caches, so each position is keyed once per policy."""

    name = "optimal"

    def __init__(self) -> None:
        self._opts = SolveOptions(table=TranspositionTable())

    def initial_state(self, g: LoopyMultigraph) -> tuple:
        return ()

    def choose(self, state: tuple, g: LoopyMultigraph) -> EdgeRef:
        ref, _ = best_move(g, self._opts)
        return ref

    def observe(self, state, g_before, by_policy, move, outcome) -> tuple:
        return ()


def unpack_key(key: bytes) -> tuple[int, list[tuple[int, int, int]]]:
    """Inverse of the key layout: (vertex count, sorted edge triples)."""
    if len(key) % 6 != 2:
        raise ValueError("malformed canonical key")
    f = key_fields(len(key)).unpack(key)
    return f[0], list(zip(f[1::3], f[2::3], f[3::3]))


def graph_from_key(key: bytes) -> LoopyMultigraph:
    """A position whose canonical key is ``key``, on the key's own labels."""
    _, triples = unpack_key(key)
    return LoopyMultigraph.from_edges([(a, b) for a, b, m in triples for _ in range(m)])


def write_edge_list(g: LoopyMultigraph, path: str) -> None:
    """Write one line per edge instance, sorted, parallel edges repeated."""
    with open(path, "w", encoding="utf-8") as fh:
        for ref, m in g.edge_pairs():
            for _ in range(m):
                fh.write(f"{ref.u} {ref.v}\n")


def components(g: LoopyMultigraph) -> list[list[int]]:
    """Connected components by breadth-first search, as sorted vertex
    lists in order of least vertex."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for ref, _ in g.edge_pairs():
        adj[ref.u].add(ref.v)
        adj[ref.v].add(ref.u)
    seen: set[int] = set()
    out = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for x in comp:  # grows while it is read: a breadth-first queue
            for y in adj[x] - seen:
                seen.add(y)
                comp.append(y)
        out.append(sorted(comp))
    return out


def random_graph(
    rng: random.Random,
    max_vertices: int = 8,
    min_edges: int = 1,
    max_edges: int = 8,
    loop_chance: float = 0.2,
) -> LoopyMultigraph:
    return LoopyMultigraph.from_edges(random_edges(rng, max_vertices, min_edges, max_edges, loop_chance))


def random_edges(
    rng: random.Random,
    max_vertices: int = 8,
    min_edges: int = 1,
    max_edges: int = 8,
    loop_chance: float = 0.2,
) -> list[tuple[int, int]]:
    """The edge instances ``random_graph`` builds its position from."""
    n = rng.randint(2, max_vertices)
    k = rng.randint(min_edges, max_edges)
    edges = []
    for _ in range(k):
        a = rng.randrange(n)
        if rng.random() < loop_chance:
            edges.append((a, a))
        else:
            b = rng.randrange(n)
            while b == a:
                b = rng.randrange(n)
            edges.append((a, b))
    return edges


def multipede(m: int, seed: int) -> LoopyMultigraph:
    """A graph that refinement cannot split, CFI-style (a multipede; see
    Neuen & Schweitzer, *Benchmark graphs for practical graph
    isomorphism*, 2017).

    A random 3-regular bipartite graph joins parts V and W of size m.
    Each w in W becomes a foot pair 2w, 2w + 1; each v in V becomes four
    vertices, one per even subset S of its three neighbours w1 < w2 < w3,
    joined to foot 2wi + [wi in S] of each.  Every foot has 6 strings and
    every other vertex 3, and refinement splits no foot pair, so keying
    branches on foot pairs.  ``multipede(40, 1)`` has no automorphism but
    the identity, so nothing prunes: it keys through about 5,000 leaves.
    """
    rng = random.Random(seed)
    while True:
        nbrs: list[set[int]] = [set() for _ in range(m)]
        for _ in range(3):
            for v, w in enumerate(rng.sample(range(m), m)):
                nbrs[v].add(w)
        if all(len(ws) == 3 for ws in nbrs):
            break
    edges = []
    for v, ws in enumerate(nbrs):
        for k, subset in enumerate((0b000, 0b011, 0b101, 0b110)):
            mid = 2 * m + 4 * v + k
            edges += [(mid, 2 * w + (subset >> i & 1)) for i, w in enumerate(sorted(ws))]
    return LoopyMultigraph.from_edges(edges)


def relabel(g: LoopyMultigraph, rng: random.Random) -> LoopyMultigraph:
    """Rebuild g under a random injective renaming of its vertices."""
    verts = g.vertices
    fresh = rng.sample(range(0, 4 * len(verts) + 8), len(verts))
    mapping = dict(zip(verts, fresh))
    edges = []
    for ref, mult in g.edge_pairs():
        edges.extend([(mapping[ref.u], mapping[ref.v])] * mult)
    rng.shuffle(edges)
    return LoopyMultigraph.from_edges(edges)


def _family_corpus() -> list[LoopyMultigraph]:
    """Small family members, every one with at most 7 edge instances."""
    gs = [
        make("path", 2),
        make("path", 4),
        make("path", 6),
        make("cycle", 1),
        make("cycle", 2),
        make("cycle", 3),
        make("cycle", 5),
        make("cycle", 7),
        make("complete", 2),
        make("complete", 3),
        make("complete", 4),
        make("complete_bipartite", 1, 4),
        make("complete_bipartite", 2, 2),
        make("complete_bipartite", 2, 3),
        make("loopy_star", 1),
        make("loopy_star", 2),
        make("loopy_star", 3),
        make("generalized_loopy_star", 1, 1),
        make("generalized_loopy_star", 1, 2),
        make("generalized_loopy_star", 2, 2),
        make("generalized_loopy_star", 1, 3),
        make("friendship", 1),
        make("friendship", 2),
        make("balloon_path", 2),
        make("balloon_path", 3),
        make("loopy_cycle", 3, 1),
        make("loopy_cycle", 3, 3),
        make("loopy_cycle", 4, 2),
        make("wheel", 3),
        make("ferris_wheel", 3),
        make("loopy_starlike", 2, 1, 2),
        make("loopy_starlike", 1, 2, 3),
        make("hypercube", 1),
        make("hypercube", 2),
        make("tree", 0, 1, 1, 2, 1, 3, 3, 4, 3, 5),
    ]
    # hand-built corners: loops, parallels, disconnection
    extra = [
        [(0, 0)],
        [(0, 0), (0, 0)],
        [(0, 0), (0, 1)],
        [(0, 1), (0, 1)],
        [(0, 1), (0, 1), (0, 1)],
        [(0, 1), (1, 2), (0, 2), (0, 1)],
        [(0, 1), (2, 3)],
        [(0, 1), (1, 2), (0, 2), (3, 3)],
        [(0, 1), (0, 1), (2, 2), (2, 3)],
        [(0, 0), (1, 1), (2, 2)],
    ]
    gs.extend(LoopyMultigraph.from_edges(e) for e in extra)
    assert all(g.edge_count <= 7 for g in gs)
    return gs


def small_corpus() -> list[LoopyMultigraph]:
    """Deterministic corpus, every graph with at most 7 edges."""
    gs = _family_corpus()
    rng = random.Random(20260816)
    while len(gs) < 100:
        gs.append(random_graph(rng, max_vertices=7, max_edges=7))
    return gs


def random_suite() -> list[LoopyMultigraph]:
    """200 seeded random graphs with at most 10 edges.

    Sizes skew small so the blind oracle stays tractable; the tail is
    loop-heavy, which keeps 9- and 10-edge positions capture-rich.
    """
    rng = random.Random(99)
    gs = []
    for i in range(200):
        if i < 140:
            gs.append(random_graph(rng, max_vertices=8, max_edges=8))
        elif i < 180:
            gs.append(random_graph(rng, max_vertices=6, max_edges=9, loop_chance=0.45))
        else:
            gs.append(random_graph(rng, max_vertices=5, max_edges=10, loop_chance=0.55))
    assert all(g.edge_count <= 10 for g in gs)
    return gs


@lru_cache(maxsize=1)
def oracle_results() -> list[tuple[LoopyMultigraph, int]]:
    """Oracle values over small_corpus() + random_suite(), computed once."""
    return [(g, brute_value(g)) for g in small_corpus() + random_suite()]
