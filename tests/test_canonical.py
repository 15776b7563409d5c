"""Canonical keys: refinement, soundness against a brute oracle, stability."""

import gc
import hashlib
import random
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strings_and_coins.graph import LoopyMultigraph
from strings_and_coins.canonical import (
    KeyLimitError,
    are_isomorphic,
    canonical_key,
)
from strings_and_coins import canonical
from strings_and_coins.families import make
from strings_and_coins.solver import SolveOptions, best_move, solve
from strings_and_coins.strategies import balloon_mirror, best_response_value

import support


def refined_cells(g, colors=None):
    """Cells of ``canonical._refine`` as sorted vertex lists, in colour
    order.  ``colors`` is a dense colouring of ``g.vertices``; by default
    the (degree, loops) ranks that ``_canon_search`` starts from, refined
    as a fresh partition."""
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    adj = [{} for _ in verts]
    for ref, m in g.edge_pairs():
        if not ref.is_loop:
            adj[idx[ref.u]][idx[ref.v]] = m
            adj[idx[ref.v]][idx[ref.u]] = m
    if colors is None:
        colors = [(g.incident_count(v), g.loop_multiplicity(v)) for v in verts]
    cols, cells = canonical._cells_by_key(colors)
    canonical._refine(adj, cols, cells)
    assert all(cols[i] == c for c, members in cells.items() for i in members)
    return [[verts[i] for i in cells[c]] for c in sorted(cells)]


def test_refine_vertex_transitive_cycle():
    assert refined_cells(make("cycle", 6)) == [list(range(6))]


def test_refine_star_splits_center():
    p = refined_cells(make("complete_bipartite", 1, 4))
    assert sorted(len(c) for c in p) == [1, 4]


def test_refine_balloon_path_splits_ends_from_middle():
    split = refined_cells(make("balloon_path", 3))
    assert [0, 2] in split and [1] in split


def test_refine_respects_input_partition():
    # vertex 0 individualised the way ``_canon_search`` does it: it keeps
    # colour 0 and the rest of its cell moves up to colour 1; that
    # separates its neighbours from its antipode
    assert refined_cells(make("cycle", 4), [0, 1, 1, 1]) == [[0], [1, 3], [2]]


def test_refine_reads_only_rows_a_split_can_reach():
    # a spider: centre 0, middles 1-3, tips 4-6, equitable with cells
    # tips, middles, centre; tip 4 then individualised in front of 5 and 6
    counts = {"scans": 0, "rows": 0}

    class Row(dict):
        def __iter__(self):
            counts["scans"] += 1
            return super().__iter__()

        def items(self):
            counts["rows"] += 1
            return super().items()

    adj = [Row() for _ in range(7)]
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]:
        adj[a][b] = adj[b][a] = 1
    cols, cells = canonical._cells_by_key([(len(adj[v]), v != 4) for v in range(7)])
    canonical._refine(adj, cols, cells, [4])
    assert [cells[c] for c in sorted(cells)] == [[4], [5, 6], [1], [2, 3], [0]]
    # round 1 scans tip 4 and builds the rows of middle 1, which it
    # touches, and of middle 2, standing for the untouched middles; round
    # 2 scans middle 1, the smaller part of the split, and finds no cell
    # left to split (rebuilding every row would read 9)
    assert counts == {"scans": 2, "rows": 2}


def test_key_invariant_under_relabeling():
    rng = random.Random(5)
    base = make("cycle", 5)
    ref = canonical_key(base)
    for _ in range(25):
        assert canonical_key(support.relabel(base, rng)) == ref


def test_key_identifies_bipartite_square():
    assert canonical_key(make("complete_bipartite", 2, 2)) == canonical_key(make("cycle", 4))
    assert canonical_key(make("hypercube", 2)) == canonical_key(make("cycle", 4))


def test_key_separates_path_from_cycle():
    assert canonical_key(make("path", 4)) != canonical_key(make("cycle", 4))


def test_key_empty_graph():
    key = canonical_key(LoopyMultigraph.empty())
    n, triples = support.unpack_key(key)
    assert n == 0 and triples == []


def test_are_isomorphic_examples():
    rng = random.Random(11)
    f2 = make("friendship", 2)
    assert are_isomorphic(f2, support.relabel(f2, rng))
    assert not are_isomorphic(
        make("generalized_loopy_star", 2, 2), make("generalized_loopy_star", 2, 1)
    )
    assert not are_isomorphic(
        make("cycle", 3).disjoint_union(make("cycle", 4)), make("cycle", 7)
    )


def test_soundness_against_backtracking_oracle():
    """key(g1) == key(g2) exactly when an explicit isomorphism exists."""
    rng = random.Random(2026)
    same = diff = 0
    for _ in range(400):
        g1 = support.random_graph(rng, max_vertices=8, max_edges=12)
        if rng.random() < 0.45:
            g2 = support.relabel(g1, rng)
        else:
            g2 = support.random_graph(rng, max_vertices=8, max_edges=12)
        keys_equal = canonical_key(g1) == canonical_key(g2)
        assert keys_equal == are_isomorphic(g1, g2)
        same += keys_equal
        diff += not keys_equal
    # both branches must actually be exercised
    assert same > 50 and diff > 50


def test_permutation_stability_fuzz():
    """At least 1000 relabelings all serialize to identical bytes."""
    rng = random.Random(424242)
    bases = [
        make("friendship", 3),
        make("wheel", 5),
        make("balloon_path", 5),
        make("loopy_cycle", 5, 2),
        make("complete_bipartite", 2, 3),
        make("hypercube", 3),
        LoopyMultigraph.from_edges([(0, 1), (0, 1), (1, 1), (1, 2), (3, 4)]),
        # symmetric block trees, where orbit pruning does the most work
        make("friendship", 6),
        make("pinwheel", 5),
        make("loopy_star", 9),
        make("generalized_loopy_star", 4, 2),
        make("wheel", 7),
        make("complete", 6),
        make("friendship", 8),
        make("pinwheel", 6),
        make("complete_bipartite", 2, 6),
        make("loopy_star", 10),
    ]
    extra = [support.random_graph(rng, max_vertices=8, max_edges=10) for _ in range(13)]
    total = 0
    for base in bases + extra:
        ref = canonical_key(base)
        for _ in range(52):
            assert canonical_key(support.relabel(base, rng)) == ref
            total += 1
    assert total >= 1000


def twin_edges(hubs, groups, near=None):
    """Edge instances of K_{hubs,n} whose n side falls into twin groups.

    ``groups`` holds one (size, loops, extra, joined) per group: each
    member gets ``loops`` loops, ``extra`` more strings to hub 0 and
    ``joined`` strings to every other member, so a group is a twin class.
    ``near`` makes the first two members of the first group near-twins:
    "loop" gives the first one more loop, "string" one more string to hub
    0, and "swap" one more string to hub 0 for the first and to hub 1 for
    the second, so the two keep equal degrees and the same neighbours and
    differ only in multiplicity (with no hub 1 or no second member, "swap"
    is "string").
    """
    edges = []
    leaf = hubs
    for size, loops, extra, joined in groups:
        members = range(leaf, leaf + size)
        for x in members:
            edges += [(h, x) for h in range(hubs)] + [(0, x)] * extra + [(x, x)] * loops
            edges += [(x, y) for y in members if y > x] * joined
        leaf += size
    x = hubs  # the first member of the first group
    if near == "loop":
        edges.append((x, x))
    elif near == "string" or (near == "swap" and (hubs == 1 or groups[0][0] == 1)):
        edges.append((0, x))
    elif near == "swap":
        edges += [(0, x), (1, x + 1)]
    return edges


def check_twin_case(hubs, groups, rng):
    """Relabelled copies key alike, and keys match the isomorphism oracle,
    for the twin graph and each of its near-twin variants."""
    variants = [LoopyMultigraph.from_edges(twin_edges(hubs, groups, near)) for near in (None, "loop", "string", "swap")]
    for g in variants:
        h = support.relabel(g, rng)
        assert canonical_key(h) == canonical_key(g)
        assert are_isomorphic(h, g)
    for g, h in zip(variants, variants[1:]):
        h = support.relabel(h, rng)
        assert (canonical_key(g) == canonical_key(h)) == are_isomorphic(g, h)


def test_twin_heavy_relabelling_fuzz():
    """Stars, K2,n and Km,n with loops and parallel strings on twin groups,
    and near-twins that a twin test ignoring one loop or one multiplicity
    would merge."""
    rng = random.Random(99)
    for _ in range(250):
        hubs = rng.randint(1, 3)
        groups = [
            (rng.randint(1, 4), rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1)), rng.choice((0, 0, 1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        check_twin_case(hubs, groups, rng)


def _near_twins(joined):
    """Seven leaves lean on hub 0 and seven on hub 1: each leaf has strings
    to both hubs and a second string to its own, and with ``joined`` a
    string to every other leaf.  Refinement cannot tell hub 0, over a
    looped 6-cycle, from hub 1, over two looped triangles, so all fourteen
    leaves share a cell and have the same neighbours, yet no automorphism
    swaps the hubs."""
    hexagon = [(2 + i, 2 + (i + 1) % 6) for i in range(6)]
    triangles = [(t + i, t + (i + 1) % 3) for t in (8, 11) for i in range(3)]
    spokes = [(0 if v < 8 else 1, v) for v in range(2, 14)]
    loops = [(v, v) for v in range(2, 14)]
    leaves = [(h, x) for x in range(14, 28) for h in (0, 1, 0 if x < 21 else 1)]
    if joined:
        leaves += [(x, y) for x in range(14, 28) for y in range(x + 1, 28)]
    return LoopyMultigraph.from_edges(hexagon + triangles + spokes + loops + leaves)


@pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
def test_near_twins_refinement_cannot_separate(joined):
    """On ``_near_twins`` the two halves of the leaves are not twins, and a
    twin test that ignores multiplicities would skip one half and key
    relabelled copies apart."""
    g = _near_twins(joined)
    rng = random.Random(12)
    key = canonical_key(g)
    for _ in range(40):
        assert canonical_key(support.relabel(g, rng)) == key


def _hub_over_two_orbits():
    """A hub over a 6-cycle and two triangles: refinement leaves the
    twelve rim vertices in one cell, which holds two orbits."""
    hexagon = [(1 + i, 1 + (i + 1) % 6) for i in range(6)]
    triangles = [(t + i, t + (i + 1) % 3) for t in (7, 10) for i in range(3)]
    return LoopyMultigraph.from_edges(hexagon + triangles + [(0, v) for v in range(1, 13)])


def test_keys_agree_where_a_cell_holds_two_orbits():
    """On ``_hub_over_two_orbits``, a backjump that went one node past the
    one the two paths share would skip the orbit not yet tried, and key
    relabelled copies apart."""
    g = _hub_over_two_orbits()
    rng = random.Random(3)
    key = canonical_key(g)
    for _ in range(40):
        assert canonical_key(support.relabel(g, rng)) == key


def _move_class_positions():
    """Seeded random positions with loops and parallel strings, twin-heavy
    stars and Km,n, the paper's families, disjoint unions with repeated
    components, and graphs whose refinement cells are not orbits; then a
    few positions from a random walk below each."""
    rng = random.Random(20261019)
    starts = [make(name, *params) for name, *params in _GOLDEN_FAMILIES]
    for _ in range(80):
        g = support.random_graph(rng, max_vertices=8, max_edges=11, loop_chance=0.3)
        extra = [ref for ref, _ in g.edge_pairs() if rng.random() < 0.3]
        starts.append(LoopyMultigraph.from_edges([ref for ref, m in g.edge_pairs() for _ in range(m)] + extra))
    starts += [make("complete_bipartite", a, b) for a, b in ((1, 7), (2, 5), (3, 4))]
    starts += [make("loopy_star", 7), make("generalized_loopy_star", 4, 2)]
    starts += [_near_twins(False), _near_twins(True), _hub_over_two_orbits()]
    for part in (make("path", 4), make("cycle", 5), make("friendship", 2), make("loopy_cycle", 4, 2)):
        union = part.disjoint_union(make("path", 3)).disjoint_union(part).disjoint_union(part)
        starts += [union, support.relabel(union, rng)]  # relabelled: components interleave
    positions = []
    for g in starts:
        positions.append(g)
        for _ in range(3):
            if not g.edge_count:
                break
            a, b, _ = rng.choice(g.signature())
            g = g._child(a, b)[1]
            if g.edge_count:
                positions.append(g)
    return positions


def _check_left_out_classes(g, kept):
    """Every class of ``g`` missing from ``kept`` has a kept class with the
    same capture count and a child that ``are_isomorphic`` matches to its
    own."""
    sig = g.signature()
    assert set(kept) <= set(sig) and list(kept) == sorted(set(kept))
    children = {t: g._child(t[0], t[1]) for t in sig}
    for t in sig:
        if t in kept:
            continue
        captured, succ = children[t]
        assert any(
            children[r][0] == captured and are_isomorphic(children[r][1], succ)
            for r in kept
        ), (sig, t)


def test_move_classes_leave_out_only_isomorphic_children():
    """The classes search leaves out are judged by the independent oracle:
    each repeats a kept class's capture count and child."""
    skipped = 0
    positions = _move_class_positions()
    for g in positions:
        kept = canonical.move_classes(g)
        _check_left_out_classes(g, kept)
        skipped += len(g.signature()) - len(kept)
    assert len(positions) > 300 and skipped > 1000


def _best_move_positions():
    """The golden families, seeded random positions, and disjoint unions
    of isomorphic components relabelled so that the least class of an
    orbit may lie in the later component."""
    rng = random.Random(20261020)
    gs = [make(name, *params) for name, *params in _GOLDEN_FAMILIES]
    gs += [support.random_graph(rng, max_vertices=8, max_edges=11, loop_chance=0.3) for _ in range(40)]
    # the middle strings 7-8 and 2-3 share an orbit whose least class, 2-3,
    # lies in the later component, which move classes leave out
    twin_paths = LoopyMultigraph.from_edges([(0, 7), (7, 8), (8, 9), (1, 2), (2, 3), (3, 4)])
    assert (2, 3, 1) not in canonical.move_classes(twin_paths)
    gs.append(twin_paths)
    for part in (make("path", 3), make("cycle", 4), make("friendship", 2), make("loopy_cycle", 4, 2)):
        union = part.disjoint_union(part)
        gs += [support.relabel(union, rng) for _ in range(4)]
    return [g for g in gs if g.edge_count]


def test_best_move_ignores_options():
    """``best_move`` gives the same move and differential with the table
    and pruning on or off.  The searches without the table run only where
    they are quick: pruned up to 12 strings, bare up to 8."""
    checked = 0
    for g in _best_move_positions():
        combos = [(True, True), (True, False)]
        if g.edge_count <= 12:
            combos.append((False, True))
        if g.edge_count <= 8:
            combos.append((False, False))
            checked += 1
        answers = set()
        for memo, pruning in combos:
            ref, gv = best_move(g, SolveOptions(memo=memo, pruning=pruning))
            answers.add((ref, gv.differential))
        assert len(answers) == 1, (g, answers)
    assert checked > 50


_twin_groups = st.lists(
    st.tuples(st.integers(1, 4), st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(hubs=st.integers(1, 3), groups=_twin_groups, rng=st.randoms(use_true_random=False))
def test_twin_heavy_relabelling_hypothesis(hubs, groups, rng):
    check_twin_case(hubs, groups, rng)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10),
    move=st.none() | st.tuples(st.integers(0, 9), st.integers(0, 6), st.integers(0, 6)),
    rng=st.randoms(use_true_random=False),
)
def test_general_multigraph_keys_agree_with_isomorphism(edges, move, rng):
    # a relabelled copy, and half the time one of its strings moved to a
    # drawn pair of its vertices: loops and parallel strings included
    g = LoopyMultigraph.from_edges(edges)
    h = support.relabel(g, rng)
    if move is not None:
        i, a, b = move
        vs = h.vertices
        moved = [(ref.u, ref.v) for ref, m in h.edge_pairs() for _ in range(m)]
        moved[i % len(moved)] = (vs[a % len(vs)], vs[b % len(vs)])
        h = LoopyMultigraph.from_edges(moved)
    assert (canonical_key(g) == canonical_key(h)) == are_isomorphic(g, h)


def test_twin_keying_work_is_linear(monkeypatch):
    """Keying leaves grow at most linearly in the number of twins, counted
    by ``_serialize`` calls so that a loaded machine cannot fail it."""
    leaves = 0
    serialize = canonical._serialize

    def counted(*args):
        nonlocal leaves
        leaves += 1
        return serialize(*args)

    monkeypatch.setattr(canonical, "_serialize", counted)
    rng = random.Random(20)
    for n in range(2, 21):
        for g in (make("complete_bipartite", 1, n), make("complete_bipartite", 2, n), make("loopy_star", n)):
            for h in (g, support.relabel(g, rng)):
                canonical.clear_caches()
                leaves = 0
                canonical_key(h)
                assert 1 <= leaves <= n


@pytest.mark.parametrize("hubs", [1, 2])
def test_twins_key_fast(hubs):
    g = make("complete_bipartite", hubs, 20)
    canonical.clear_caches()
    start = time.perf_counter()
    canonical_key(g)
    assert time.perf_counter() - start < 0.25


# Every family at small sizes plus seeded random positions.  The digest
# pins the key bytes: a change to it orphans every existing SNC1 cache.
_GOLDEN_FAMILIES = [
    ("complete", 3), ("complete", 5), ("complete", 6),
    ("complete_bipartite", 2, 3), ("complete_bipartite", 3, 3), ("complete_bipartite", 1, 5),
    ("cycle", 1), ("cycle", 2), ("cycle", 6),
    ("path", 2), ("path", 5), ("path", 9),
    ("tree", 0, 1, 1, 2, 1, 3, 3, 4, 3, 5), ("tree", 0, 1, 0, 2, 0, 3, 3, 4),
    ("friendship", 2), ("friendship", 4), ("friendship", 6),
    ("pinwheel", 2), ("pinwheel", 3), ("pinwheel", 5),
    ("loopy_star", 2), ("loopy_star", 5), ("loopy_star", 9),
    ("generalized_loopy_star", 2, 2), ("generalized_loopy_star", 3, 1), ("generalized_loopy_star", 4, 2),
    ("loopy_starlike", 2, 1, 2), ("loopy_starlike", 3, 2, 3),
    ("loopy_cycle", 4, 2), ("loopy_cycle", 5, 5), ("loopy_cycle", 6, 3),
    ("wheel", 3), ("wheel", 5), ("wheel", 7),
    ("ferris_wheel", 2), ("ferris_wheel", 4), ("ferris_wheel", 6),
    ("balloon_path", 2), ("balloon_path", 4), ("balloon_path", 7),
    ("hypercube", 1), ("hypercube", 2), ("hypercube", 3),
    ("prism", 3), ("prism", 4), ("prism", 6),
    ("petersen",),
    ("custom", 0, 1, 0, 1, 1, 1, 2, 3),
]
_GOLDEN_DIGEST = "b04f71a84daefef41399156edcd567461704b49dbaf9b2f5142a864eab6bf1df"


def test_golden_key_digest():
    gs = [make(name, *params) for name, *params in _GOLDEN_FAMILIES]
    rng = random.Random(20261017)
    gs.extend(support.random_graph(rng, max_vertices=9, max_edges=14) for _ in range(200))
    h = hashlib.sha256()
    for g in gs:
        key = canonical_key(g)
        h.update(len(key).to_bytes(4, "little") + key)
    assert h.hexdigest() == _GOLDEN_DIGEST


def test_no_cyclic_garbage():
    """Keying, solving, best moves, best responses and the isomorphism
    oracle leave no reference cycle behind: with the collector off, a full
    collection afterwards finds nothing unreachable.  A cycle would wait
    for a full collection, and those grow with the heap a long solve
    holds."""
    rng = random.Random(20261021)
    gs = [make(name, *params) for name, *params in _GOLDEN_FAMILIES]
    gs += [support.random_graph(rng, max_vertices=9, max_edges=14, loop_chance=0.3) for _ in range(100)]
    relabelled = [support.relabel(g, rng) for g in gs]
    searched = [make("prism", 5), make("friendship", 6), make("wheel", 7), make("complete", 6)]
    mirror = balloon_mirror(6)
    gc.collect()
    gc.disable()
    try:
        canonical.clear_caches()
        for g, h in zip(gs, relabelled):
            assert canonical_key(g) == canonical_key(h)
            assert are_isomorphic(g, h)
        for g in searched:
            solve(g)
            best_move(g)
        best_response_value(*mirror, "P1")
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def _split_by_search(g):
    """Components found by graph search, each as (size, sorted triples
    over the ranks of its vertices): what the one-pass split must return."""
    out = []
    for comp in support.components(g):
        rank = {v: i for i, v in enumerate(comp)}
        triples = sorted((rank[a], rank[b], m) for a, b, m in g.signature() if a in rank)
        out.append((len(comp), tuple(triples)))
    return out


def _walk_starts(rng):
    starts = [make(name, *params) for name, *params in _GOLDEN_FAMILIES]
    for _ in range(60):
        g = support.random_graph(rng, max_vertices=9, max_edges=12, loop_chance=0.3)
        # a few more instances of existing classes: parallel strings, stacked loops
        extra = [ref for ref, _ in g.edge_pairs() if rng.random() < 0.4]
        edges = [ref for ref, m in g.edge_pairs() for _ in range(m)]
        starts.append(LoopyMultigraph.from_edges(edges + extra * 2))
    return starts


def test_derived_signature_fuzz():
    """Walk by ``_child`` and ``remove_edge``, from derived positions and
    from positions rebuilt from their edge list; every successor must
    match the position rebuilt from its edge list in signature, component
    split and key."""
    rng = random.Random(20261018)
    steps = 0
    for start in _walk_starts(rng) * 6:
        g = start
        while g.edge_count:
            moves = [ref for ref, _ in g.edge_pairs()]
            parallel = [ref for ref, m in g.edge_pairs() if m > 1]
            a, b = rng.choice(parallel if parallel and rng.random() < 0.5 else moves)
            if rng.random() < 0.7:
                parent = g
            else:
                parent = LoopyMultigraph.from_edges([e for e, m in g.edge_pairs() for _ in range(m)])
            if rng.random() < 0.5:
                _, child = parent._child(a, b)
            else:
                child = parent.remove_edge((b, a)).successor
            ref = LoopyMultigraph.from_edges([e for e, m in child.edge_pairs() for _ in range(m)])
            assert child.signature() == ref.signature()
            split = canonical._component_local_triples(child)
            assert [(n, triples) for n, triples, _ in split] == _split_by_search(ref)
            # each component's triples sit at its signature indices, in order
            sig = child.signature()
            for comp, (_, _, where) in zip(support.components(child), split):
                assert [sig[k] for k in where] == [t for t in sig if t[0] in comp]
            # key both through the split, not a cached whole-graph entry
            key = canonical_key(child, cache=canonical.KeyCache())
            assert key == canonical_key(ref, cache=canonical.KeyCache())
            g = child
            steps += 1
    assert steps >= 5000


def test_key_limits_raise_typed_error():
    with pytest.raises(KeyLimitError, match="65536"):
        canonical_key(LoopyMultigraph.from_edges([(0, 1)] * 65536))
    with pytest.raises(KeyLimitError, match="65536"):
        canonical_key(LoopyMultigraph.from_edges([(v, v) for v in range(65536)]))
    # the widest multiplicity that fits still keys
    n, triples = support.unpack_key(canonical_key(LoopyMultigraph.from_edges([(0, 0)] * 65535)))
    assert (n, triples) == (1, [(0, 0, 65535)])


def test_union_key_matches_combined_component_keys():
    rng = random.Random(31)
    for _ in range(40):
        g1 = support.random_graph(rng, max_vertices=5, max_edges=6)
        g2 = support.random_graph(rng, max_vertices=5, max_edges=6)
        union = g1.disjoint_union(g2)
        # the union rebuilt from its parts' keys alone keys the same
        parts = [support.graph_from_key(canonical_key(g)) for g in (g1, g2)]
        assert canonical_key(union) == canonical_key(parts[0].disjoint_union(parts[1]))


def test_key_layout_is_little_endian_triples():
    g = LoopyMultigraph.from_edges([(0, 1), (0, 1), (2, 2)])
    key = canonical_key(g)
    (n,) = struct.unpack_from("<H", key, 0)
    assert n == 3
    triples = [struct.unpack_from("<HHH", key, 2 + 6 * i) for i in range(2)]
    assert triples == sorted(triples)
    assert {m for _, _, m in triples} == {1, 2}
    assert len(key) == 2 + 6 * 2


def test_key_round_trips_through_graph():
    rng = random.Random(77)
    for _ in range(60):
        g = support.random_graph(rng, max_vertices=7, max_edges=9)
        key = canonical_key(g)
        back = support.graph_from_key(key)
        assert canonical_key(back) == key
        assert are_isomorphic(back, g)


def test_unpack_key_contents():
    n, triples = support.unpack_key(canonical_key(make("cycle", 3)))
    assert n == 3
    assert len(triples) == 3
    assert all(m == 1 for _, _, m in triples)
