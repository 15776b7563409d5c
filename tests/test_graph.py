"""Position representation and move semantics."""

import random

import pytest

from strings_and_coins.graph import EdgeRef, LoopyMultigraph, PositionError
from strings_and_coins.canonical import are_isomorphic, canonical_key
from strings_and_coins.families import make

import support


def test_add_edge_single():
    g = LoopyMultigraph.empty().add_edge(0, 1)
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.incident_count(0) == 1
    assert g.incident_count(1) == 1


def test_add_edge_loop_counts_once():
    g = LoopyMultigraph.from_edges([(2, 3)])
    before = g.incident_count(2)
    g2 = g.add_edge(2, 2)
    assert g2.incident_count(2) == before + 1
    assert g2.loop_multiplicity(2) == 1


def test_add_edge_parallel():
    g = LoopyMultigraph.empty().add_edge(0, 1).add_edge(0, 1)
    assert g.multiplicity(0, 1) == 2
    assert g.incident_count(0) == 2
    assert g.incident_count(1) == 2
    assert g.edge_count == 2


def test_remove_single_edge_captures_both():
    g = LoopyMultigraph.from_edges([(0, 1)])
    out = g.remove_edge((0, 1))
    assert out.captured == 2
    assert out.successor.vertex_count == 0
    assert out.successor.edge_count == 0
    assert not out.mover_moves_again


def test_remove_star_edge_captures_center():
    # center 0 tied to 1, loop at 1: taking the tie captures only the center
    g = make("loopy_star", 1)
    out = g.remove_edge((0, 1))
    assert out.captured == 1
    assert out.successor.vertices == [1]
    assert out.successor.loop_multiplicity(1) == 1
    assert out.mover_moves_again


def test_remove_loop_no_capture_when_edge_remains():
    g = LoopyMultigraph.from_edges([(0, 0), (0, 1)])
    out = g.remove_edge((0, 0))
    assert out.captured == 0
    assert out.successor.incident_count(0) == 1
    assert not out.mover_moves_again


def test_remove_missing_edge_rejected():
    g = LoopyMultigraph.from_edges([(0, 1)])
    with pytest.raises(PositionError):
        g.remove_edge((1, 2))
    with pytest.raises(PositionError):
        g.remove_edge((0, 0))


def test_mover_moves_again_requires_remaining_edges():
    g = LoopyMultigraph.from_edges([(0, 0), (1, 2)])
    out = g.remove_edge((0, 0))
    assert out.captured == 1
    assert out.mover_moves_again
    last = LoopyMultigraph.from_edges([(0, 0)]).remove_edge((0, 0))
    assert last.captured == 1
    assert not last.mover_moves_again


def test_distinct_moves_collapses_parallels():
    g = LoopyMultigraph.from_edges([(0, 0), (0, 0), (0, 1)])
    moves = g.distinct_moves()
    assert sorted(moves) == [EdgeRef(0, 0), EdgeRef(0, 1)]
    assert len(make("complete", 3).distinct_moves()) == 3


def test_distinct_moves_empty():
    assert LoopyMultigraph.empty().distinct_moves() == []


def test_disjoint_union_counts():
    c8 = make("cycle", 8)
    both = c8.disjoint_union(c8)
    assert both.vertex_count == 16
    assert both.edge_count == 16
    assert len(support.components(both)) == 2

    mixed = make("cycle", 3).disjoint_union(make("cycle", 4))
    assert mixed.vertex_count == 7
    assert mixed.edge_count == 7
    assert len(support.components(mixed)) == 2


def test_disjoint_union_with_empty_is_identity():
    g = make("friendship", 2)
    assert are_isomorphic(g.disjoint_union(LoopyMultigraph.empty()), g)
    assert are_isomorphic(LoopyMultigraph.empty().disjoint_union(g), g)


def test_no_isolated_vertices_after_any_move():
    rng = random.Random(7)
    for _ in range(120):
        g = support.random_graph(rng, max_vertices=7, max_edges=9)
        for ref in g.distinct_moves():
            out = g.remove_edge(ref)
            succ = out.successor
            for v in succ.vertices:
                assert succ.incident_count(v) >= 1
            assert out.captured + succ.vertex_count == g.vertex_count
            assert out.captured in (0, 1, 2)
            if ref.is_loop:
                assert out.captured <= 1


def test_parallel_instances_reach_identical_successors():
    g = LoopyMultigraph.from_edges([(0, 1), (0, 1), (1, 2), (0, 2)])
    # one move class per endpoint pair; removing either instance of the
    # doubled pair must give the same canonical successor
    succ_keys = set()
    for _ in range(2):
        out = g.remove_edge((0, 1))
        succ_keys.add(canonical_key(out.successor))
    assert len(succ_keys) == 1


def test_incident_counts_match_recount_after_random_play():
    rng = random.Random(13)
    for _ in range(60):
        g = support.random_graph(rng, max_vertices=6, max_edges=8)
        while g.edge_count:
            ref = rng.choice(g.distinct_moves())
            g = g.remove_edge(ref).successor
            recount = {v: 0 for v in g.vertices}
            for e, mult in g.edge_pairs():
                recount[e.u] += mult
                if e.u != e.v:
                    recount[e.v] += mult
            for v in g.vertices:
                assert g.incident_count(v) == recount[v]


def test_signature_equality_and_hash():
    g1 = LoopyMultigraph.from_edges([(0, 1), (1, 2)])
    g2 = LoopyMultigraph.from_edges([(1, 2), (0, 1)])
    g3 = LoopyMultigraph.from_edges([(0, 1), (1, 3)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
    assert len({g1, g2, g3}) == 2


def test_is_forest():
    assert make("path", 5).is_forest()
    assert make("tree", 0, 1, 0, 2, 2, 3).is_forest()
    assert LoopyMultigraph.from_edges([(0, 1), (2, 3)]).is_forest()
    assert not LoopyMultigraph.from_edges([(0, 0)]).is_forest()
    assert not LoopyMultigraph.from_edges([(0, 1), (0, 1)]).is_forest()
    assert not make("cycle", 3).is_forest()


def test_capture_count_preview():
    g = LoopyMultigraph.from_edges([(0, 1), (1, 2)])
    assert g.remove_edge((0, 1)).captured == 1
    assert LoopyMultigraph.from_edges([(0, 1)]).remove_edge((0, 1)).captured == 2
    assert make("cycle", 4).remove_edge((0, 1)).captured == 0


def test_edge_ref_normalizes():
    assert EdgeRef.of(3, 1) == EdgeRef(1, 3)
    assert EdgeRef.of(2, 2).is_loop
    assert not EdgeRef.of(1, 2).is_loop
