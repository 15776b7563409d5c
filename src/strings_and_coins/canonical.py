"""Canonical forms for positions and isomorphism testing.

Two positions that differ only by vertex relabeling are the same game, so
search memoizes on a canonical key: a byte string that is identical for
isomorphic graphs and distinct otherwise.

The key is computed per connected component by individualization and
refinement.  Color refinement (degree/multiplicity-aware, loops folded
into the initial colors) partitions the vertices; while some cell has
more than one vertex, the first largest such cell is split by trying each
member in front, and the lexicographically least serialization over all
resulting discrete labelings wins.  Three rules skip branches that can
only repeat earlier work, which is what keeps symmetric graphs tractable
(``_canon_search`` gives the proofs):

* at a search node, a candidate is skipped when it shares an orbit with
  an already tried one under the found automorphisms (two labelings with
  equal serializations) that fix the individualized prefix pointwise.
  Each node keeps those orbits as a union-find that only ever merges,
  reading each newly found automorphism once, as nauty and Traces do;
  at most 64 automorphisms are stored;
* a candidate is skipped when it is a twin of an already tried one:
  twins have equal loops and equal multiplicities to every other vertex,
  so swapping them is an automorphism that fixes the prefix.  This prunes
  stars, K2,n, friendship petals and loopy-star leaves, whose symmetric
  groups 64 stored automorphisms cannot;
* when a leaf serializes exactly as the best one, the search jumps back
  to the deepest node the two leaves' paths share, as nauty does: the
  automorphism between them maps the rest of the current subtree onto
  part of a finished one (McKay & Piperno, *Practical graph isomorphism
  II*, 2014).

A partition is ordered, and a vertex's colour is the first position of
its cell, as in nauty: a split relabels only the members of the cell
that split, and a discrete partition labels its vertices 0..n-1.
Refinement runs in synchronous rounds, each splitting every cell by the
neighbour colours of the round before, but it examines only the cells
next to a part that the last round split off (McKay & Piperno,
*Practical graph isomorphism II*, 2014; Junttila & Kaski, 2007).  Its
partitions are those of recomputing every vertex's row every round, and
every choice of the search reads only the order of the colours, so the
keys are the same bytes as with the full recompute.

Components are split off in one pass over the signature.  Component
forms are combined by sorting them and relabeling into one vertex range,
so a disjoint union's key is a pure function of the component keys; each
form's triples are sorted and its labels lie above those of every earlier
form, so the combined triples need no sort.  A ``KeyCache`` holds two
content-addressed caches, one entry per key, that make repeated positions
cheap during search: by labelled signature, a position's key and move
classes; by local triples, a component's form and orbit representatives.
Each ``solver.TranspositionTable`` owns one, so a solve's keying state
lives and dies with its table; calls that pass no cache share one module
cache, which ``clear_caches`` empties.

The automorphisms the search finds serve a fourth use, move classes.
With the twin transpositions they generate a group of the component,
whose orbits on its edge classes one union-find reads
(``_class_orbit_reps``).  ``move_classes`` keeps the least class of each
orbit and drops every class of a component isomorphic to an earlier one,
so the game search cuts one class per orbit and never builds or keys a
child isomorphic to a sibling's.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, compress

from .graph import LoopyMultigraph

_CACHE_CAP = 1 << 21  # entries per cache; a full cache is cleared

_U16_MAX = 0xFFFF  # widest vertex count, label or multiplicity a key can hold


class KeyLimitError(ValueError):
    """Position too large for the u16 fields of the canonical key layout."""


class KeyCache:
    """The two keying caches, one entry per key, each cleared when it
    reaches ``_CACHE_CAP`` entries: by labelled signature, a position's
    (key, move classes); by (vertex count, local triples), a component's
    (serialisation, orbit representatives)."""

    __slots__ = ("graphs", "comps")

    def __init__(self) -> None:
        self.graphs: dict[tuple, tuple] = {}
        self.comps: dict[tuple, tuple] = {}

    def clear(self) -> None:
        self.graphs.clear()
        self.comps.clear()


_default_cache = KeyCache()  # for calls that pass no cache


def clear_caches() -> None:
    """Empty the cache that calls passing no ``KeyCache`` share."""
    _default_cache.clear()


# -- color refinement --------------------------------------------------------


def _cells_by_key(keys: list) -> tuple[list[int], dict[int, list[int]]]:
    """The ordered partition of ``range(len(keys))`` into cells of equal
    key, cells in key order: (colour of each vertex, first position ->
    ascending members), a colour being its cell's first position."""
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    cols = [0] * len(keys)
    cells: dict[int, list[int]] = {}
    pos = 0
    for k in sorted(groups):
        members = groups[k]
        cells[pos] = members
        for i in members:
            cols[i] = pos
        pos += len(members)
    return cols, cells


def _touched_by(adj: list[dict[int, int]], cols: list[int], cells: dict[int, list[int]], active) -> dict:
    """The members next to an ``active`` vertex, by the first position of
    their cell, in cells with more than one member."""
    touched: dict[int, set[int]] = {}
    for a in active:
        for j in adj[a]:
            c = cols[j]
            if len(cells[c]) > 1:
                hit = touched.get(c)
                if hit is None:
                    touched[c] = {j}
                else:
                    hit.add(j)
    return touched


def _refine(adj: list[dict[int, int]], cols: list[int], cells: dict[int, list[int]], active=None) -> None:
    """Refine the ordered partition ``cols``/``cells`` in place until it is
    equitable.

    Each round reads every vertex's sorted row of (colour, multiplicity)
    over its neighbours under the colours of the round before, and splits
    every cell by row at once, parts in row order; a part's colour is its
    first position, so a split relabels only the members of the cell that
    split.  A cell's members had equal rows a round earlier, so their rows
    can differ only in neighbours inside parts that the last round split
    off, and only in parts other than one largest part of each split,
    which the old row and the other parts fix.  Those parts are the active
    vertices.  A cell can split only if a member is next to an active
    vertex; then rows are read for its touched members and for one
    untouched member, which stands for all the others.  The partitions are
    those of reading every row every round, so the colours keep their
    order, and a discrete partition gets the same labels.

    ``active`` holds the vertex just individualised in a partition that
    was equitable before it; by default the partition is fresh, and the
    first round reads every row.
    """
    if active is None:
        touched: dict = {c: members for c, members in cells.items() if len(members) > 1}
    else:
        touched = _touched_by(adj, cols, cells, active)
    while touched:
        splits = []
        for c, hit in touched.items():
            members = cells[c]
            if len(hit) == len(members):
                rows = [tuple(sorted([(cols[j], m) for j, m in adj[i].items()])) for i in members]
            else:
                untouched = None
                rows = []
                for i in members:
                    if i in hit:
                        rows.append(tuple(sorted([(cols[j], m) for j, m in adj[i].items()])))
                    else:
                        if untouched is None:
                            untouched = tuple(sorted([(cols[j], m) for j, m in adj[i].items()]))
                        rows.append(untouched)
            if rows.count(rows[0]) == len(rows):
                continue
            order = sorted(set(rows))
            rank = {r: k for k, r in enumerate(order)}
            parts: list[list[int]] = [[] for _ in order]
            for i, r in zip(members, rows):
                parts[rank[r]].append(i)
            splits.append((c, parts))
        active = []
        for c, parts in splits:
            big = max(parts, key=len)
            pos = c
            for part in parts:
                cells[pos] = part
                if pos != c:
                    for i in part:
                        cols[i] = pos
                if part is not big:
                    active.extend(part)
                pos += len(part)
        touched = _touched_by(adj, cols, cells, active)


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


def _twin_roots(adj: list[dict[int, int]], cols: list[int], cells: dict[int, list[int]]) -> list[int]:
    """The least vertex of each vertex's twin class, by vertex.

    Twins have equal loops and equal multiplicities to every other vertex;
    they may be joined to each other, as two petal coins of a friendship
    graph are, or not, as the leaves of a star are.  Being twins is an
    equivalence, and within a class every two members are joined by the
    same multiplicity, so a class is either pairwise apart, with equal rows,
    or pairwise joined, with rows equal but for each other.  Swapping two
    twins is an automorphism, so twins share a cell of every equitable
    partition that ``_refine`` computes from the graph alone, and the
    members of a cell of ``cols``/``cells`` already have equal loops.
    """
    twin = list(range(len(cols)))
    for members in cells.values():
        if len(members) == 1:
            continue
        apart: dict[frozenset, int] = {}
        for v in members:
            if twin[v] != v:
                continue  # joined to a lesser twin already
            row = adj[v]
            u = apart.setdefault(frozenset(row.items()), v)
            if u != v:
                twin[v] = u
                continue
            c = cols[v]
            for w in row:
                if (
                    w > v
                    and cols[w] == c
                    and len(adj[w]) == len(row)
                    and all(x == w or adj[w].get(x) == m for x, m in row.items())
                ):
                    twin[w] = v
    return twin


def _find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _canon_search(n: int, triples: tuple[tuple[int, int, int], ...], deadline: float | None = None) -> tuple:
    """Lex-least serialization of one connected component (local labels
    0..n-1), and the least class of each orbit of the automorphisms the
    search found, as ``_class_orbit_reps`` gives it.  Raises
    ``SolveBudgetExceeded`` once ``time.monotonic()`` passes ``deadline``,
    when one is given.

    The search is depth-first over the individualisation tree: a node is
    the equitable partition reached by individualising the vertices on its
    path, one per level, each from the first largest cell.  Three rules
    skip subtrees whose leaves serialise exactly as leaves of subtrees
    already searched, so the least serialisation never changes:

    * **Orbit pruning.**  At a node, a vertex in the same orbit as an
      already tried one, under the found automorphisms that fix the node's
      path pointwise, is skipped: such an automorphism maps the tried
      vertex's subtree onto the skipped one's.  At most 64 automorphisms
      are stored, which bounds the memory of one search.
    * **Twin pruning.**  At a node, a twin of an already tried vertex is
      skipped (see ``_twin_roots``).  Swapping the two is an automorphism
      and fixes the node's path pointwise, as neither twin is on it, so
      the two vertices share an orbit of the path's stabiliser.  This
      needs no stored automorphism, so it prunes the symmetric groups of
      twins, which 64 stored automorphisms cannot.
    * **Backjump on an automorphism.**  When a leaf serialises exactly as
      the best leaf, the search returns straight to the deepest node the
      two leaves' paths share, abandoning the rest of the current subtree.
      Let g map this leaf's labelling onto the best one's.  The refinement,
      the choice of target cell (by size, then colour) and the split of an
      individualised vertex (it keeps its cell's first position as colour,
      and so as its final label) read only the graph and the order of the
      colours, so g maps each node on this leaf's path onto the node at the
      same depth on the best leaf's path, and each individualised vertex
      onto the one individualised there.  Above the deepest shared node
      both paths individualise the same vertices, so g fixes them, and
      below it g maps the subtree being searched onto a sibling subtree
      that holds the best leaf.  The search entered that sibling first and
      is done with it, so every leaf of the abandoned subtree repeats the
      serialisation of a leaf of a subtree already accounted for.  The jump needs the
      automorphism to exist, not to be stored, so it still works once the
      store is full.
    """
    if n == 1:
        return triples, None  # a single vertex carries only loops, already canonical
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    loops = [0] * n
    for a, b, m in triples:
        if a == b:
            loops[a] = m
        else:
            adj[a][b] = m
            adj[b][a] = m
    cols, cells = _cells_by_key([(sum(adj[i].values()) + loops[i], loops[i]) for i in range(n)])
    _refine(adj, cols, cells)
    twin = _twin_roots(adj, cols, cells) if len(cells) < n else []

    best_serial: tuple | None = None
    inv_best: list[int] = []
    best_path: list[int] = []
    path: list[int] = []  # the individualised vertices of the current node
    # automorphisms found so far, each as (bitmask of the vertices it moves,
    # its moved (vertex, image) pairs)
    autos: list[tuple[int, list[tuple[int, int]]]] = []

    def individualize(cols: list[int], cells: dict[int, list[int]], v: int):
        # v takes its cell's first position and its cell-mates the next one
        c = cols[v]
        cols = cols[:]
        cells = dict(cells)
        rest = [i for i in cells[c] if i != v]
        cells[c] = [v]
        cells[c + 1] = rest
        for i in rest:
            cols[i] = c + 1
        _refine(adj, cols, cells, [v])
        return cols, cells

    def at_leaf(cols: list[int]) -> int | None:
        """Score the leaf labelled by ``cols``; the depth to jump back to
        when it repeats the best serialization, else None."""
        nonlocal best_serial, inv_best, best_path
        serial = _serialize(n, adj, loops, cols)
        if best_serial is None or serial < best_serial:
            best_serial = serial
            inv_best = [0] * n
            for i, c in enumerate(cols):
                inv_best[c] = i
            best_path = path[:]
            return None
        if serial != best_serial:
            return None
        if len(autos) < 64:
            # maps this labeling onto best; a different leaf always moves
            # the vertex where the two paths part
            pairs = [(i, inv_best[c]) for i, c in enumerate(cols) if inv_best[c] != i]
            autos.append((sum(1 << i for i, _ in pairs), pairs))
        shared = 0
        while path[shared] == best_path[shared]:
            shared += 1
        return shared

    def rec(cols: list[int], cells: dict[int, list[int]], prefix: int) -> int | None:
        """Search below the node whose individualized vertices are ``path``
        and form the bitmask ``prefix``; ``cols``/``cells`` is its
        equitable partition.  Returns None once the subtree is searched,
        or the depth of the node to jump back to."""
        if deadline is not None and time.monotonic() > deadline:
            from .solver import SolveBudgetExceeded  # solver imports this module

            raise SolveBudgetExceeded("time budget exceeded while keying")
        if len(cells) == n:
            return at_leaf(cols)
        depth = len(path)
        # first largest non-singleton cell: max size, ties to lowest colour
        target = min(cells, key=lambda c: (-len(cells[c]), c))
        members = cells[target]
        # Orbits of the automorphisms found so far that fix ``prefix``
        # pointwise, as a union-find that only ever merges: ``parent`` is
        # made on first use and ``seen`` counts the entries of ``autos``
        # already merged in, so each automorphism is read once per node.
        parent: list[int] | None = None
        seen = 0
        tried: list[int] = []
        tried_twins: set[int] = set()
        for v in members:
            if twin[v] in tried_twins:
                continue
            if seen < len(autos):
                for moves, pairs in autos[seen:]:
                    if moves & prefix:
                        continue
                    if parent is None:
                        parent = list(range(n))
                    for a, b in pairs:
                        ra, rb = _find(parent, a), _find(parent, b)
                        if ra != rb:
                            parent[ra] = rb
                seen = len(autos)
            if parent is not None:
                rv = _find(parent, v)
                if any(_find(parent, w) == rv for w in tried):
                    continue
            tried.append(v)
            tried_twins.add(twin[v])
            path.append(v)
            back = rec(*individualize(cols, cells, v), prefix | 1 << v)
            path.pop()
            if back is not None and back < depth:
                return back
        return None

    try:
        rec(cols, cells, 0)
    finally:
        del rec  # it holds itself through its closure: a cycle for the collector
    return best_serial, _class_orbit_reps(triples, autos, twin)


def _class_orbit_reps(triples: tuple, autos: list, twin: list[int]) -> tuple[int, ...] | None:
    """The index into ``triples`` of the least class of each orbit of the
    group that the found automorphisms ``autos`` and the twin
    transpositions ``(v, twin[v])`` generate, ascending; None when every
    orbit holds one class.

    Each generator is an automorphism, so the classes of one orbit have
    isomorphic children; a generator left out (the store is capped) only
    leaves orbits split.  The orbits are read into a union-find whose root
    is the least member of its set.  The twin transpositions generate
    every permutation of each twin class, so they join exactly the classes
    whose ends lie in the same two twin classes, loops apart from strings;
    each automorphism then joins every class to its image.
    """
    if any(t != v for v, t in enumerate(twin)):
        first: dict[tuple[int, int, bool], int] = {}
        parent = []
        for i, (a, b, _) in enumerate(triples):
            ta, tb = twin[a], twin[b]
            parent.append(first.setdefault((ta, tb, a == b) if ta < tb else (tb, ta, a == b), i))
    elif autos:
        parent = list(range(len(triples)))
    else:
        return None
    if autos:
        for _, pairs in autos:
            perm = dict(pairs)
            for i, (a, b, _) in enumerate(triples):
                x, y = perm.get(a, a), perm.get(b, b)
                if x != a or y != b:
                    # the image class, found by bisection in the sorted triples
                    ri, rj = _find(parent, i), _find(parent, bisect_left(triples, (x, y) if x <= y else (y, x)))
                    if ri < rj:
                        parent[rj] = ri
                    elif rj < ri:
                        parent[ri] = rj
    reps = [i for i, p in enumerate(parent) if p == i]
    return None if len(reps) == len(triples) else tuple(reps)


def _component_form(n: int, triples: tuple, deadline: float | None, cache: KeyCache) -> tuple:
    """``_canon_search(n, triples)``, through ``cache``."""
    comps = cache.comps
    key = (n, triples)
    found = comps.get(key)
    if found is None:
        found = _canon_search(n, triples, deadline)
        if len(comps) >= _CACHE_CAP:
            comps.clear()
        comps[key] = found
    return found


# -- whole-graph keys ----------------------------------------------------------


def _component_local_triples(g: LoopyMultigraph) -> list[tuple[int, tuple, range | list[int]]]:
    """Each component as (size, sorted local (a, b, mult) triples, the
    indices of those triples in the signature), in order of least vertex;
    local labels rank a component's vertices.

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
            return [(n, sig, range(len(sig)))]
        local = {v: i for i, v in enumerate(verts)}
        return [(n, tuple([(local[a], local[b], m) for a, b, m in sig]), range(len(sig)))]
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
    places: list[list[int]] = [[] for _ in sizes]
    for k, (a, b, m) in enumerate(sig):
        ci = which[a]
        buckets[ci].append((local[a], local[b], m))
        places[ci].append(k)
    return [(size, tuple(bucket), where) for size, bucket, where in zip(sizes, buckets, places)]


def check_key_limits(g: LoopyMultigraph) -> None:
    """Raise ``KeyLimitError`` when ``g`` does not fit the key layout."""
    vertices = g.vertex_count
    if vertices > _U16_MAX:
        raise KeyLimitError(f"position has {vertices} vertices; canonical keys hold at most {_U16_MAX}")
    # a multiplicity above the limit needs more strings than the limit
    if g.edge_count <= _U16_MAX:
        return
    multiplicity = max((m for _, _, m in g._sig), default=0)
    if multiplicity > _U16_MAX:
        raise KeyLimitError(
            f"a string has multiplicity {multiplicity}; canonical keys hold at most {_U16_MAX}"
        )


def _combine_forms(forms: list[tuple[int, tuple]]) -> bytes:
    forms = sorted(forms)
    total = sum(n for n, _ in forms)
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


def canonical_key(g: LoopyMultigraph, deadline: float | None = None, cache: KeyCache | None = None) -> bytes:
    """Byte key equal for isomorphic positions, distinct otherwise.

    Layout: little-endian u16 vertex count, then sorted (u16 u, u16 v,
    u16 multiplicity) triples over canonical labels; loops appear as
    (v, v, multiplicity).  Raises ``KeyLimitError`` when the vertex count
    or a multiplicity does not fit in a u16 field, and
    ``solver.SolveBudgetExceeded`` when the key is not found before
    ``time.monotonic()`` passes ``deadline``, if one is given.  Keys
    through ``cache``, or the module's own cache when none is given.
    """
    return _graph_entry(g, deadline, cache)[0]


def move_classes(g: LoopyMultigraph, deadline: float | None = None, cache: KeyCache | None = None) -> tuple:
    """The signature triples of ``g`` that a search must try, in signature
    order: the least class of each orbit of the automorphisms found while
    keying ``g``, and no class of a component isomorphic to an earlier
    one.  Each class left out has an isomorphic child, with the same
    capture count, to one kept.  The signature itself when none is left
    out.  Read from the same cache entry as ``canonical_key``; raises as
    it does.
    """
    return _graph_entry(g, deadline, cache)[1]


def _graph_entry(g: LoopyMultigraph, deadline: float | None, cache: KeyCache | None) -> tuple:
    """The whole-graph cache entry of ``g``, (key, move classes), keying
    ``g`` only when ``cache`` (by default the module's) lacks it."""
    if cache is None:
        cache = _default_cache
    entry = cache.graphs.get(g.signature())
    if entry is None:
        entry = _key_graph(g, deadline, cache)
    return entry


def _key_graph(g: LoopyMultigraph, deadline: float | None, cache: KeyCache) -> tuple:
    """Key ``g``, and store and return its whole-graph entry in ``cache``:
    (key, move classes)."""
    check_key_limits(g)
    sig = g.signature()
    comps = _component_local_triples(g)
    found = [_component_form(n, t, deadline, cache) for n, t, _ in comps]
    key = _combine_forms([(n, form) for (n, _, _), (form, _) in zip(comps, found)])
    graphs = cache.graphs
    if len(graphs) >= _CACHE_CAP:
        graphs.clear()
    entry = graphs[sig] = (key, _move_classes(sig, comps, found))
    return entry


def _move_classes(sig: tuple, comps: list, found: list) -> tuple:
    """``move_classes`` from the components of ``sig`` and their
    ``_component_form`` results.  A component's local triples are its
    signature triples in signature order, so local index i is the i-th
    of its signature indices."""
    keep = bytearray(b"\x01") * len(sig)
    seen: set[tuple] = set()
    for (n, _, where), (form, reps) in zip(comps, found):
        if len(comps) > 1:
            if (n, form) in seen:
                reps = ()  # swapping it with an earlier copy is an automorphism
            else:
                seen.add((n, form))
        if reps is not None:
            for k in where:
                keep[k] = 0
            for i in reps:
                keep[where[i]] = 1
    return sig if all(keep) else tuple(compress(sig, keep))


@lru_cache(maxsize=256)
def key_fields(length: int) -> struct.Struct:
    """Decoder of every u16 field of a ``length``-byte key: the vertex
    count, then (u, v, multiplicity) per triple.  ``length % 6 == 2``."""
    return struct.Struct(f"<{length // 2}H")


# -- independent isomorphism oracle --------------------------------------------


def are_isomorphic(g1: LoopyMultigraph, g2: LoopyMultigraph) -> bool:
    """Backtracking vertex-map search, written independently of the
    canonical-form machinery so the two can cross-check each other.

    Each unmapped vertex of ``g1`` keeps the candidates in ``g2`` that
    have its (incident count, loops) profile and its multiplicity to every
    mapped vertex's image.  The search maps a vertex with fewest
    candidates next, and backs up as soon as a vertex has none left.
    """
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False

    def profile(g: LoopyMultigraph, v: int) -> tuple[int, int]:
        return (g.incident_count(v), g.loop_multiplicity(v))

    def rows(g: LoopyMultigraph) -> dict[int, dict[int, int]]:
        adj: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
        for ref, m in g.edge_pairs():
            if not ref.is_loop:
                adj[ref.u][ref.v] = m
                adj[ref.v][ref.u] = m
        return adj

    v1 = g1.vertices
    v2 = g2.vertices
    if sorted(profile(g1, v) for v in v1) != sorted(profile(g2, v) for v in v2):
        return False
    adj1, adj2 = rows(g1), rows(g2)

    def place(cands: dict[int, list[int]]) -> bool:
        if not cands:
            return True
        v = min(cands, key=lambda x: len(cands[x]))
        for w in cands[v]:
            row1, row2 = adj1[v], adj2[w]
            narrowed = {}
            for x, ys in cands.items():
                if x == v:
                    continue
                m = row1.get(x, 0)
                keep = [y for y in ys if y != w and row2.get(y, 0) == m]
                if not keep:
                    break
                narrowed[x] = keep
            else:
                if place(narrowed):
                    return True
        return False

    try:
        return place({v: [w for w in v2 if profile(g2, w) == profile(g1, v)] for v in v1})
    finally:
        del place  # it holds itself through its closure: a cycle for the collector
