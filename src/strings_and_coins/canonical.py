"""Canonical forms for positions and isomorphism testing.

Two positions that differ only by vertex relabeling are the same game, so
search memoizes on a canonical key: a byte string that is identical for
isomorphic graphs and distinct otherwise.

The key is computed per connected component by individualization and
refinement.  Color refinement (degree/multiplicity-aware, loops folded
into the initial colors) partitions the vertices; while some cell has
more than one vertex, the first largest such cell is split by trying each
member in front, and the lexicographically least serialization over all
resulting discrete labelings wins.  Automorphisms discovered along the
way (two labelings with equal serializations) prune branches that can
only repeat earlier work, which is what keeps highly symmetric graphs
like complete graphs tractable: at a search node, a candidate is skipped
when it shares an orbit with an already tried one under the automorphisms
that fix the individualized prefix pointwise.  Each node keeps those
orbits as a union-find that only ever merges, reading each newly found
automorphism once, as nauty and Traces do.

Components are split off in one pass over the signature.  Component
forms are combined by sorting them and relabeling into one vertex range,
so a disjoint union's key is a pure function of the component keys; each
form's triples are sorted and its labels lie above those of every earlier
form, so the combined triples need no sort.  Two content-addressed caches
make repeated positions cheap during search: whole-graph keys by labelled
signature, and component forms by local triples.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain

from .graph import LoopyMultigraph

_COMP_CACHE_CAP = 1 << 21
_GRAPH_CACHE_CAP = 1 << 21

_comp_cache: dict[tuple, tuple] = {}
_graph_cache: dict[tuple, bytes] = {}

_U16_MAX = 0xFFFF  # widest vertex count, label or multiplicity a key can hold


class KeyLimitError(ValueError):
    """Position too large for the u16 fields of the canonical key layout."""


def clear_caches() -> None:
    _comp_cache.clear()
    _graph_cache.clear()


# -- color refinement --------------------------------------------------------


def _refine(n: int, adj: list[dict[int, int]], colors: list[int]) -> list[int]:
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


def _serialize(n: int, adj: list[dict[int, int]], loops: list[int], label: list[int]) -> tuple:
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


def _canon_search(n: int, triples: tuple[tuple[int, int, int], ...]) -> tuple:
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
    colors = _refine(n, adj, [rank[s] for s in init])

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
        return _refine(n, adj, new)

    def at_leaf(cols: list[int]) -> None:
        serial = _serialize(n, adj, loops, cols)
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


def _component_form(n: int, triples: tuple) -> tuple[int, tuple]:
    key = (n, triples)
    r = _comp_cache.get(key)
    if r is None:
        r = _canon_search(n, triples)
        if len(_comp_cache) >= _COMP_CACHE_CAP:
            _comp_cache.clear()
        _comp_cache[key] = r
    return (n, r)


# -- whole-graph keys ----------------------------------------------------------


def _component_local_triples(g: LoopyMultigraph) -> list[tuple[int, tuple]]:
    """Each component as (size, sorted local (a, b, mult) triples), in
    order of least vertex; local labels rank a component's vertices.

    One pass over the signature joins endpoints in a union-find whose root
    is always the least vertex of its set.  Ranking is monotone, so triples
    taken in signature order stay sorted in every component and need no
    sort; a connected position is the signature relabelled, or the
    signature itself when its vertices are already 0..n-1.
    """
    sig = g.signature()
    verts = sorted(g._incident)
    n = len(verts)
    parent = {v: v for v in verts}
    merges = 0
    for a, b, _ in sig:
        if a == b:
            continue
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            merges += 1
    if merges == n - 1:
        if verts[-1] == n - 1:
            return [(n, sig)]
        local = {v: i for i, v in enumerate(verts)}
        return [(n, tuple([(local[a], local[b], m) for a, b, m in sig]))]
    which: dict[int, int] = {}
    local = {}
    sizes: list[int] = []
    for v in verts:
        r = v
        while parent[r] != r:
            r = parent[r]
        if r == v:  # a root is its set's least vertex, so it comes first
            which[v] = len(sizes)
            sizes.append(0)
        ci = which[v] = which[r]
        local[v] = sizes[ci]
        sizes[ci] += 1
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in sizes]
    for a, b, m in sig:
        buckets[which[a]].append((local[a], local[b], m))
    return [(size, tuple(bucket)) for size, bucket in zip(sizes, buckets)]


def _check_key_limits(vertices: int, multiplicity: int) -> None:
    if vertices > _U16_MAX:
        raise KeyLimitError(f"position has {vertices} vertices; canonical keys hold at most {_U16_MAX}")
    if multiplicity > _U16_MAX:
        raise KeyLimitError(
            f"a string has multiplicity {multiplicity}; canonical keys hold at most {_U16_MAX}"
        )


def check_key_limits(g: LoopyMultigraph) -> None:
    """Raise ``KeyLimitError`` when ``g`` does not fit the key layout."""
    _check_key_limits(g.vertex_count, max(g._mult.values(), default=0))


def _combine_forms(forms: list[tuple[int, tuple]]) -> bytes:
    forms = sorted(forms)
    total = sum(n for n, _ in forms)
    _check_key_limits(total, 0)
    # each form's triples are sorted and its shifted labels lie above every
    # earlier form's, so the concatenation is already sorted
    fields = [total]
    offset = 0
    for n, triples in forms:
        if offset:
            fields.extend([x for a, b, m in triples for x in (a + offset, b + offset, m)])
        else:
            fields.extend(chain.from_iterable(triples))
        offset += n
    return key_fields(2 * len(fields)).pack(*fields)


def canonical_key(g: LoopyMultigraph) -> bytes:
    """Byte key equal for isomorphic positions, distinct otherwise.

    Layout: little-endian u16 vertex count, then sorted (u16 u, u16 v,
    u16 multiplicity) triples over canonical labels; loops appear as
    (v, v, multiplicity).  Raises ``KeyLimitError`` when the vertex count
    or a multiplicity does not fit in a u16 field.
    """
    sig = g.signature()
    key = _graph_cache.get(sig)
    if key is None:
        check_key_limits(g)
        forms = [_component_form(n, t) for n, t in _component_local_triples(g)]
        key = _combine_forms(forms)
        if len(_graph_cache) >= _GRAPH_CACHE_CAP:
            _graph_cache.clear()
        _graph_cache[sig] = key
    return key


@lru_cache(maxsize=256)
def key_fields(length: int) -> struct.Struct:
    """Decoder of every u16 field of a ``length``-byte key: the vertex
    count, then (u, v, multiplicity) per triple.  ``length % 6 == 2``."""
    return struct.Struct(f"<{length // 2}H")


def unpack_key(key: bytes) -> tuple[int, list[tuple[int, int, int]]]:
    """Inverse of the key layout: (vertex count, sorted edge triples)."""
    if len(key) % 6 != 2:
        raise ValueError("malformed canonical key")
    f = key_fields(len(key)).unpack(key)
    return f[0], list(zip(f[1::3], f[2::3], f[3::3]))


# -- independent isomorphism oracle --------------------------------------------


def are_isomorphic(g1: LoopyMultigraph, g2: LoopyMultigraph) -> bool:
    """Backtracking vertex-map search, written independently of the
    canonical-form machinery so the two can cross-check each other."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False

    def profile(g: LoopyMultigraph, v: int) -> tuple[int, int]:
        return (g.incident_count(v), g.loop_multiplicity(v))

    v1 = g1.vertices
    v2 = g2.vertices
    p1 = sorted(profile(g1, v) for v in v1)
    p2 = sorted(profile(g2, v) for v in v2)
    if p1 != p2:
        return False

    # most-constrained-first: rare profiles then high degree
    freq: dict[tuple[int, int], int] = {}
    for v in v1:
        pr = profile(g1, v)
        freq[pr] = freq.get(pr, 0) + 1
    order = sorted(v1, key=lambda v: (freq[profile(g1, v)], -g1.incident_count(v), v))
    cands = {v: [w for w in v2 if profile(g2, w) == profile(g1, v)] for v in order}

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def place(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in cands[v]:
            if w in used:
                continue
            ok = True
            for x, y in mapping.items():
                if g1.multiplicity(v, x) != g2.multiplicity(w, y):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if place(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return place(0)
