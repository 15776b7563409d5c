"""Canonical keys: refinement, soundness against a brute oracle, stability."""

import hashlib
import random
import struct

import pytest

from strings_and_coins.graph import LoopyMultigraph
from strings_and_coins.canonical import (
    KeyLimitError,
    are_isomorphic,
    canonical_key,
    unpack_key,
)
from strings_and_coins import canonical
from strings_and_coins.families import make

import support


def refined_cells(g, colors=None):
    """Cells of ``canonical._refine`` as sorted vertex lists, in colour
    order.  ``colors`` is a dense colouring of ``g.vertices``; by default
    the (degree, loops) ranks that ``_canon_search`` starts from."""
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    adj = [{} for _ in verts]
    for ref, m in g.edge_pairs():
        if not ref.is_loop:
            adj[idx[ref.u]][idx[ref.v]] = m
            adj[idx[ref.v]][idx[ref.u]] = m
    if colors is None:
        init = [(g.incident_count(v), g.loop_multiplicity(v)) for v in verts]
        rank = {s: r for r, s in enumerate(sorted(set(init)))}
        colors = [rank[s] for s in init]
    cells = {}
    for v, c in zip(verts, canonical._refine(len(verts), adj, colors)):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


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
    n, triples = unpack_key(key)
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
    ]
    extra = [support.random_graph(rng, max_vertices=8, max_edges=10) for _ in range(13)]
    total = 0
    for base in bases + extra:
        ref = canonical_key(base)
        for _ in range(52):
            assert canonical_key(support.relabel(base, rng)) == ref
            total += 1
    assert total >= 1000


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


def _split_by_search(g):
    """Components found by graph search, each as (size, sorted triples
    over the ranks of its vertices): what the one-pass split must return."""
    out = []
    for comp in support.components(g):
        rank = {v: i for i, v in enumerate(comp)}
        triples = sorted((rank[a], rank[b], m) for (a, b), m in g._mult.items() if a in rank)
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
    """Walk by ``_child`` and ``remove_edge``, from positions with and
    without a known signature; every successor must match the position
    rebuilt from its edge list in signature, component split and key."""
    rng = random.Random(20261018)
    steps = 0
    for start in _walk_starts(rng) * 6:
        g = start._clone()
        if rng.random() < 0.5:
            g.signature()
        while g.edge_count:
            moves = [ref for ref, _ in g.edge_pairs()]
            parallel = [ref for ref, m in g.edge_pairs() if m > 1]
            a, b = rng.choice(parallel if parallel and rng.random() < 0.5 else moves)
            parent = g if rng.random() < 0.7 else g._clone()  # a clone's signature is unset
            if rng.random() < 0.5:
                _, child = parent._child(a, b)
            else:
                child = parent.remove_edge((b, a)).successor
            ref = LoopyMultigraph.from_edges([e for e, m in child.edge_pairs() for _ in range(m)])
            assert child.signature() == ref.signature()
            assert canonical._component_local_triples(child) == _split_by_search(ref)
            canonical._graph_cache.clear()  # key both through the split, not the cache
            key = canonical_key(child)
            canonical._graph_cache.clear()
            assert key == canonical_key(ref)
            g = child
            steps += 1
    assert steps >= 5000


def test_key_limits_raise_typed_error():
    with pytest.raises(KeyLimitError, match="65536"):
        canonical_key(LoopyMultigraph.from_edges([(0, 1)] * 65536))
    with pytest.raises(KeyLimitError, match="65536"):
        canonical_key(LoopyMultigraph.from_edges([(v, v) for v in range(65536)]))
    # the widest multiplicity that fits still keys
    n, triples = unpack_key(canonical_key(LoopyMultigraph.from_edges([(0, 0)] * 65535)))
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
    n, triples = unpack_key(canonical_key(make("cycle", 3)))
    assert n == 3
    assert len(triples) == 3
    assert all(m == 1 for _, _, m in triples)
