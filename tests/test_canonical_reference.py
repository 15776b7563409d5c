"""Differential test of canonical keying against the refinement it replaced.

The reference functions below are kept verbatim from that keying, with a
``ref_`` prefix: ``_refine``, which rebuilt every non-singleton vertex's
sorted neighbour row in every round and recoloured by dense ranks,
``_serialize`` and ``_canon_search``.  The refinement that only examines
the cells a split can reach must give the same colourings, so
``_canon_search`` must return the same serialization on every connected
multigraph: random ones with loops and parallel strings, circulants,
glued blocks and graphs full of twins.
"""

import random

from strings_and_coins import canonical
from strings_and_coins.families import make
from strings_and_coins.graph import LoopyMultigraph

import support


# -- reference: the previous refinement and search, verbatim -------------------


def ref_refine(n: int, adj: list[dict[int, int]], colors: list[int]) -> list[int]:
    """Iterate multiplicity-aware neighborhood hashing to a fixpoint.

    Colors are dense ranks whose order is determined by sorted signatures,
    so the resulting partition is canonical given the input coloring (which
    must itself be dense ranks 0..k-1).  A vertex alone in its cell gets the
    signature (color, ()) without building its neighbor row: its color
    already ranks it uniquely, so the ranks are the same either way.
    """
    ncells = len(set(colors))
    while True:
        size = [0] * ncells
        for c in colors:
            size[c] += 1
        sigs = [
            (c, ()) if size[c] == 1 else (c, tuple(sorted([(colors[j], m) for j, m in adj[i].items()])))
            for i, c in enumerate(colors)
        ]
        order = sorted(set(sigs))
        if len(order) == ncells:
            return colors
        rank = {s: r for r, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        ncells = len(order)



# -- per-component canonical search ------------------------------------------


def ref_serialize(n: int, adj: list[dict[int, int]], loops: list[int], label: list[int]) -> tuple:
    out = []
    for i in range(n):
        li = label[i]
        if loops[i]:
            out.append((li, li, loops[i]))
        for j, m in adj[i].items():
            if i < j:
                la, lb = label[i], label[j]
                out.append((la, lb, m) if la < lb else ((lb, la, m)))
    out.sort()
    return tuple(out)


def ref_canon_search(n: int, triples: tuple[tuple[int, int, int], ...]) -> tuple:
    """Lex-least serialization of one connected component (local labels 0..n-1)."""
    if n == 1:
        return triples  # a single vertex carries only loops, already canonical
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    loops = [0] * n
    for a, b, m in triples:
        if a == b:
            loops[a] = m
        else:
            adj[a][b] = m
            adj[b][a] = m
    init = [(sum(adj[i].values()) + loops[i], loops[i]) for i in range(n)]
    order = sorted(set(init))
    rank = {s: r for r, s in enumerate(order)}
    colors = ref_refine(n, adj, [rank[s] for s in init])

    best_serial: list = [None]
    inv_best: list = [None]
    # automorphisms found so far, each as (bitmask of the vertices it moves,
    # its moved (vertex, image) pairs)
    autos: list[tuple[int, list[tuple[int, int]]]] = []

    def individualize(cols: list[int], v: int) -> list[int]:
        # v's cell has other members, so v keeps its color and every color
        # from v's cell up shifts by one: the dense ranks of (color, v-or-not)
        cv = cols[v]
        new = [c if c < cv else c + 1 for c in cols]
        new[v] = cv
        return ref_refine(n, adj, new)

    def at_leaf(cols: list[int]) -> None:
        serial = ref_serialize(n, adj, loops, cols)
        bs = best_serial[0]
        if bs is None or serial < bs:
            best_serial[0] = serial
            inv = [0] * n
            for i, c in enumerate(cols):
                inv[c] = i
            inv_best[0] = inv
        elif serial == bs and len(autos) < 64:
            inv = inv_best[0]
            # maps this labeling onto best
            pairs = [(i, inv[c]) for i, c in enumerate(cols) if inv[c] != i]
            if pairs:
                autos.append((sum(1 << i for i, _ in pairs), pairs))

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rec(cols: list[int], prefix: int) -> None:
        """Search below the node whose individualized vertices form the
        bitmask ``prefix``; ``cols`` is its equitable coloring."""
        ncells = max(cols) + 1
        if ncells == n:
            at_leaf(cols)
            return
        size = [0] * ncells
        for c in cols:
            size[c] += 1
        # first largest non-singleton cell: max size, ties to lowest color
        target = max(range(ncells), key=size.__getitem__)
        members = [i for i, c in enumerate(cols) if c == target]
        # Orbits of the automorphisms found so far that fix ``prefix``
        # pointwise, as a union-find that only ever merges: ``parent`` is
        # made on first use and ``seen`` counts the entries of ``autos``
        # already merged in, so each automorphism is read once per node.
        parent: list[int] | None = None
        seen = 0
        tried: list[int] = []
        for v in members:
            if seen < len(autos):
                for moves, pairs in autos[seen:]:
                    if moves & prefix:
                        continue
                    if parent is None:
                        parent = list(range(n))
                    for a, b in pairs:
                        ra, rb = find(parent, a), find(parent, b)
                        if ra != rb:
                            parent[ra] = rb
                seen = len(autos)
            if parent is not None:
                rv = find(parent, v)
                if any(find(parent, w) == rv for w in tried):
                    continue
            tried.append(v)
            rec(individualize(cols, v), prefix | 1 << v)

    rec(colors, 0)
    return best_serial[0]


# -- seeded connected multigraphs ----------------------------------------------


def edges_of(g):
    return [(ref.u, ref.v) for ref, m in g.edge_pairs() for _ in range(m)]


def decorate(rng, edges, chance):
    """``edges`` plus, each with probability ``chance``, a loop or two on a
    vertex and one more instance of a string."""
    out = list(edges)
    for v in sorted({x for e in edges for x in e}):
        if rng.random() < chance:
            out += [(v, v)] * rng.randint(1, 2)
    for a, b in edges:
        if a != b and rng.random() < chance:
            out.append((a, b))
    return out


def random_connected(rng):
    """A random tree plus random strings, loops and parallel strings."""
    n = rng.randint(2, 10)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((a, b))
    return decorate(rng, edges, 0.2)


def circulant(rng):
    """C_n(S) with jump 1 in S, a multiplicity per jump and as many loops
    on every vertex; sometimes a few decorations break the symmetry."""
    n = rng.randint(3, 12)
    jumps = set(rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))) | {1}
    edges = []
    for s in sorted(jumps):
        mult = rng.choice((1, 1, 2))
        for i in range(n):
            j = (i + s) % n
            if 2 * s != n or i < j:  # a half-turn jump joins each pair once
                edges += [(i, j)] * mult
    edges += [(i, i) for i in range(n)] * rng.choice((0, 0, 1, 2))
    return decorate(rng, edges, rng.choice((0.0, 0.0, 0.05)))


def glued_blocks(rng):
    """Friendship, pinwheel and wheel shapes, bare or lightly decorated."""
    shape = rng.choice(("friendship", "pinwheel", "wheel"))
    k = rng.randint(3, 8) if shape == "wheel" else rng.randint(1, 7)
    return decorate(rng, edges_of(make(shape, k)), rng.choice((0.0, 0.0, 0.1)))


def twin_heavy(rng):
    """K_{2,n} and stars with looped leaves, n <= 10: large twin classes."""
    n = rng.randint(1, 10)
    if rng.random() < 0.5:
        edges = edges_of(make("complete_bipartite", 2, n))
    else:
        looped = rng.choice((0.5, 1.0))
        edges = [(0, i) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            if rng.random() < looped:
                edges += [(i, i)] * rng.randint(1, 2)
    return decorate(rng, edges, rng.choice((0.0, 0.0, 0.05)))


def component(rng, edges):
    """``edges`` relabelled at random, as the (size, local triples) that
    ``_canon_search`` receives."""
    g = support.relabel(LoopyMultigraph.from_edges(edges), rng)
    ((n, triples, _),) = canonical._component_local_triples(g)
    return n, triples


def test_refinement_matches_reference_on_seeded_multigraphs():
    """10,000 connected multigraphs, 2,500 of each kind, each keyed to
    the same serialization as by the reference."""
    rng = random.Random(8)
    count = 0
    for make_edges in (random_connected, circulant, glued_blocks, twin_heavy):
        for _ in range(2500):
            n, triples = component(rng, make_edges(rng))
            assert canonical._canon_search(n, triples)[0] == ref_canon_search(n, triples), (n, triples)
            count += 1
    assert count >= 10_000
