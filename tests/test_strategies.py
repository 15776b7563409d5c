"""Deterministic policies and exact best-response evaluation."""

import random

import pytest

from strings_and_coins.graph import EdgeRef, LoopyMultigraph
from strings_and_coins.families import make
from strings_and_coins.solver import DepthLimitError, solve
from strings_and_coins.strategies import (
    PairedMirrorPolicy,
    PolicyFault,
    balloon_mirror,
    best_response_value,
    doubled_graph,
    mirror_policy,
    quadrant_mirror_policy,
    quadrant_pairing,
)

import support


class FirstMovePolicy:
    """Worst-case baseline: always plays the least available move."""

    name = "first-move"

    def initial_state(self, g):
        return ()

    def choose(self, state, g):
        return min(g.distinct_moves())

    def observe(self, state, g_before, by_policy, move, outcome):
        return ()


def small_suite(count=40, seed=99321):
    rng = random.Random(seed)
    suite = [make("cycle", 4), make("loopy_star", 2), make("balloon_path", 3)]
    while len(suite) < count:
        suite.append(support.random_graph(rng, max_vertices=6, max_edges=7))
    return suite


def test_optimal_policy_achieves_game_value_both_sides():
    for g in small_suite(25):
        expect = solve(g).differential
        assert best_response_value(g, support.OptimalPolicy(), controlled="P1") == expect
        assert best_response_value(g, support.OptimalPolicy(), controlled="P2") == expect


def test_no_policy_beats_optimal():
    pol = FirstMovePolicy()
    for g in small_suite(30, seed=777):
        expect = solve(g).differential
        # a constrained first player can only do worse for player 1
        assert best_response_value(g, pol, controlled="P1") <= expect
        # a constrained second player can only do better for player 1
        assert best_response_value(g, pol, controlled="P2") >= expect


def test_policy_fault_on_illegal_choice():
    class Broken:
        name = "broken"

        def initial_state(self, g):
            return ()

        def choose(self, state, g):
            return EdgeRef(97, 98)

        def observe(self, state, g_before, by_policy, move, outcome):
            return ()

    with pytest.raises(PolicyFault):
        best_response_value(make("cycle", 3), Broken())


def test_best_response_refuses_too_deep_position():
    # 1,401 strings: solve refuses the same position
    g, pol = mirror_policy(make("cycle", 700))
    with pytest.raises(DepthLimitError):
        solve(g)
    with pytest.raises(DepthLimitError):
        best_response_value(g, pol, "P1")


def test_doubled_graph_shape():
    g, pairing, bridge = doubled_graph(make("cycle", 3))
    assert g.vertex_count == 6
    assert g.edge_count == 7
    assert bridge == (0, 3)
    assert len(pairing) == 6
    for e, twin in pairing.items():
        assert pairing[twin] == e
        assert e != twin
    assert doubled_graph(make("cycle", 3), anchor=2)[2] == (2, 5)
    with pytest.raises(ValueError):
        doubled_graph(LoopyMultigraph.empty())
    with pytest.raises(ValueError):
        doubled_graph(make("cycle", 3), anchor=9)


def test_mirror_queues_twin_of_opponent_move():
    g, pol = mirror_policy(make("complete", 4))
    state = pol.initial_state(g)
    # policy opens with the bridge between the two copies
    first = pol.choose(state, g)
    assert (first.u, first.v) == (0, 4)
    out = g.remove_edge(first)
    state = pol.observe(state, g, True, (0, 4), out)
    g = out.successor
    # opponent breaks copy A without offering a capture; the policy
    # answers with the copy-B twin
    out = g.remove_edge((1, 2))
    state = pol.observe(state, g, False, (1, 2), out)
    g = out.successor
    answer = pol.choose(state, g)
    assert (answer.u, answer.v) == (5, 6)


def test_mirror_takes_offered_capture_before_twin():
    g, pol = mirror_policy(make("cycle", 3))
    state = pol.initial_state(g)
    out = g.remove_edge((0, 3))
    state = pol.observe(state, g, True, (0, 3), out)
    g = out.successor
    # breaking the copy-A triangle leaves vertex 0 hanging on one edge;
    # the policy grabs the coin instead of blindly mirroring
    out = g.remove_edge((0, 1))
    state = pol.observe(state, g, False, (0, 1), out)
    g = out.successor
    answer = pol.choose(state, g)
    assert g.remove_edge(answer).captured > 0


def test_mirror_capture_choice_matches_a_capture_count_scan():
    # the policy's capture pick equals a plain scan of the capture counts
    # of the sorted classes: a queued twin first, else the least capture
    rng = random.Random(4242)
    pol = PairedMirrorPolicy({})
    for _ in range(300):
        g = support.random_graph(rng, max_vertices=7, max_edges=10)
        classes = [tuple(ref) for ref, _ in g.edge_pairs()]
        state = tuple(rng.sample(classes, rng.randint(0, len(classes))))
        captures = [p for p in classes if g.remove_edge(p).captured > 0]
        if captures:
            queued = [p for p in state if p in captures]
            assert tuple(pol.choose(state, g)) == (queued or captures)[0], (g.signature(), state)


def test_mirror_forces_tie_or_better_on_doubled_bases():
    for base in [make("cycle", 3), make("cycle", 4), make("complete", 4)]:
        g, pol = mirror_policy(base)
        v = best_response_value(g, pol, controlled="P1")
        assert v >= 0, base.signature()


def test_balloon_mirror_even_cases():
    for n in (4, 6):
        g, pol = balloon_mirror(n)
        assert g.vertex_count == n
        assert g.edge_count == 2 * n - 1
        assert best_response_value(g, pol, controlled="P1") >= 0
    with pytest.raises(ValueError):
        balloon_mirror(5)
    with pytest.raises(ValueError):
        balloon_mirror(0)


def test_balloon_mirror_two_vertex_base_is_lost_but_optimal():
    # the doubled single looped vertex loses both coins no matter what;
    # the mirror concedes exactly the optimal deficit, not more
    g, pol = balloon_mirror(2)
    v = best_response_value(g, pol, controlled="P1")
    assert v == -2
    assert solve(g).differential == -2


def test_quadrant_pairing_structure():
    pairing = quadrant_pairing(1)
    assert len(pairing) == 6
    assert pairing[(0, 1)] == (2, 3)
    assert pairing[(0, 3)] == (1, 2)
    assert all(pairing[pairing[e]] == e for e in pairing)

    pairing = quadrant_pairing(2)
    assert len(pairing) == 28
    assert pairing[(0, 1)] == (6, 7)  # inside A pairs inside D, same indices
    assert pairing[(0, 2)] == (4, 6)  # A-B pairs C-D
    assert all(pairing[pairing[e]] == e for e in pairing)
    fixed = [e for e in pairing if pairing[e] == e]
    assert fixed == []


def test_quadrant_mirror_on_small_complete_graph():
    g = make("complete", 4)
    pol = quadrant_mirror_policy(1)
    v = best_response_value(g, pol, controlled="P2")
    # player 2's mirror concedes no more than optimal play allows
    assert v >= solve(g).differential
    with pytest.raises(ValueError):
        quadrant_mirror_policy(0)


def test_policy_value_never_exceeds_optimal_for_mirrors():
    g, pol = balloon_mirror(4)
    assert best_response_value(g, pol, controlled="P1") <= solve(g).differential
