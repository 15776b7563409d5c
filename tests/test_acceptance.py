"""Acceptance gate: every reference result, exact to the integer.

One test per numbered criterion; `pytest -v` prints a pass/fail line for
each.  Values are exact integers, so every comparison here is equality
with zero tolerance.  Stated budgets are desk-scale guidance; elapsed
times are printed (visible with -s or on failure) but not asserted, so a
slow machine cannot turn a correct build red.

Heavy stretch targets (K9, K10, Q4) only run when SNC_STRETCH=1: they
need minutes to hours and, for Q4, several GB of memo. Two tests are
expected failures marked strict: they pin reference rows that are
arithmetically impossible, and they must keep failing exactly as
analyzed (see the assertions' comments).
"""

import os
import time

import pytest

from strings_and_coins.claims import verify_claim
from strings_and_coins.families import make
from strings_and_coins.solver import SolveOptions, TranspositionTable, iter_table, solve
from strings_and_coins.strategies import balloon_mirror, best_response_value, mirror_policy

import support

STRETCH = os.environ.get("SNC_STRETCH") == "1"

# one transposition table shared across the whole gate: families overlap
_TABLE = TranspositionTable()


def opts():
    return SolveOptions(table=_TABLE)


def check_rows(family, expected, fixed=()):
    """expected: list of (parameter, winner, p1, p2)."""
    t0 = time.perf_counter()
    lo, hi = expected[0][0], expected[-1][0]
    rows = iter_table(family, lo, hi, opts(), fixed=fixed)
    got = [(spec.params[0], gv.winner, gv.p1_score, gv.p2_score) for spec, gv in rows]
    elapsed = time.perf_counter() - t0
    print(f"{family} {lo}..{hi}: {elapsed:.2f}s")
    assert got == expected


def test_criterion_01_friendship_table():
    check_rows("friendship", [
        (1, "P2", 0, 3),
        (2, "P1", 3, 2),
        (3, "P2", 2, 5),
        (4, "P1", 5, 4),
        (5, "P2", 4, 7),
        (6, "P1", 7, 6),
        (7, "P2", 6, 9),
        (8, "P1", 9, 8),
    ])


def test_criterion_02_pinwheel_table():
    check_rows("pinwheel", [
        (1, "P2", 0, 4),
        (2, "P2", 2, 5),
        (3, "P2", 4, 6),
        (4, "P2", 6, 7),
        (5, "P2", 7, 9),
        (6, "P2", 9, 10),
        (7, "P2", 10, 12),
        (8, "P2", 12, 13),
    ])


def test_criterion_03_loopy_star_table():
    check_rows("loopy_star", [
        (1, "P1", 2, 0),
        (2, "P2", 0, 3),
        (3, "P1", 3, 1),
        (4, "P2", 1, 4),
        (5, "P1", 4, 2),
        (6, "P2", 2, 5),
        (7, "P1", 5, 3),
        (8, "P2", 3, 6),
        (9, "P1", 6, 4),
        (10, "P2", 4, 7),
        (11, "P1", 7, 5),
        (12, "P2", 5, 8),
    ])


def test_criterion_04_double_loopy_star_table():
    check_rows("generalized_loopy_star", [
        (1, "Tie", 1, 1),
        (2, "P2", 1, 2),
        (3, "P2", 1, 3),
        (4, "P2", 1, 4),
        (5, "P2", 2, 4),
        (6, "P2", 2, 5),
        (7, "P2", 3, 5),
        (8, "P2", 3, 6),
        (9, "P2", 4, 6),
        (10, "P2", 4, 7),
        (11, "P2", 5, 7),
        (12, "P2", 5, 8),
    ], fixed=(2,))


def test_criterion_05_wheel_table():
    check_rows("wheel", [
        (3, "P2", 0, 4),
        (4, "P1", 4, 1),
        (5, "P2", 2, 4),
        (6, "P1", 5, 2),
        (7, "P2", 2, 6),
        (8, "P1", 5, 4),
        (9, "P2", 4, 6),
        (10, "P1", 6, 5),
    ])


def test_criterion_05_wheel_extended():
    check_rows("wheel", [
        (11, "P2", 5, 7),
        (12, "P1", 7, 6),
    ])


def test_criterion_06_ferris_wheel_table():
    check_rows("ferris_wheel", [
        (3, "P2", 0, 3),
        (4, "P1", 3, 1),
        (5, "P2", 2, 3),
        (6, "P1", 4, 2),
        (7, "P2", 2, 5),
        (8, "Tie", 4, 4),
        (9, "P2", 4, 5),
        (10, "Tie", 5, 5),
        (11, "P2", 5, 6),
    ])


def test_criterion_07_balloon_path_table():
    check_rows("balloon_path", [
        (3, "P1", 3, 0),
        (4, "Tie", 2, 2),
        (5, "P1", 3, 2),
        (6, "Tie", 3, 3),
        (7, "P1", 5, 2),
        (8, "Tie", 4, 4),
        (9, "P1", 5, 4),
        (10, "Tie", 5, 5),
        (11, "P1", 6, 5),
        (12, "Tie", 6, 6),
        (13, "P1", 7, 6),
    ])


@pytest.mark.xfail(
    strict=True,
    reason="the reference row for the one-vertex complete graph states scores"
    " (2-0), but the two scores must sum to the single available coin;"
    " no game on one vertex can realize it",
)
def test_criterion_08_complete_k1_row():
    gv = solve(make("complete", 1), opts())
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("P1", 2, 0)


def test_criterion_08_complete_table():
    check_rows("complete", [
        (2, "P1", 2, 0),
        (3, "P2", 0, 3),
        (4, "P2", 0, 4),
        (5, "P1", 4, 1),
        (6, "P1", 5, 1),
        (7, "P2", 2, 5),
    ])


def test_criterion_08_complete_k8_extended():
    check_rows("complete", [(8, "P2", 2, 6)])


@pytest.mark.skipif(not STRETCH, reason="stretch target; set SNC_STRETCH=1")
def test_criterion_08_complete_k9_stretch():
    check_rows("complete", [(9, "P1", 7, 2)])


@pytest.mark.skipif(not STRETCH, reason="stretch target; set SNC_STRETCH=1")
def test_criterion_08_complete_k10_stretch():
    check_rows("complete", [(10, "P1", 7, 3)])


def test_criterion_09_hypercube_table():
    check_rows("hypercube", [
        (1, "P1", 2, 0),
        (2, "P2", 0, 4),
        (3, "P2", 2, 6),
    ])


@pytest.mark.skipif(not STRETCH, reason="stretch target; set SNC_STRETCH=1")
def test_criterion_09_hypercube_q4_stretch():
    gv = solve(make("hypercube", 4))
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("P2", 6, 10)


def test_criterion_10_prism_table():
    check_rows("prism", [
        (3, "P1", 5, 1),
        (4, "P2", 2, 6),
        (5, "P1", 8, 2),
        (6, "P2", 4, 8),
        (7, "P1", 8, 6),
    ])


def test_criterion_10_prism_extended():
    check_rows("prism", [
        (8, "P2", 7, 9),
        (9, "Tie", 9, 9),
        (10, "P2", 9, 11),
    ])


def test_criterion_11_petersen():
    t0 = time.perf_counter()
    gv = solve(make("petersen"), opts())
    print(f"petersen: {time.perf_counter() - t0:.2f}s")
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("P1", 9, 1)


def test_criterion_12_claim_suite():
    t0 = time.perf_counter()
    for claim_id in [
        "bipartite_star_p1",
        "bipartite_two_parity",
        "tree_p1",
        "cycle_p2",
        "cycle_union_ge8",
        "c5_loop_counterexample",
        "starlike_obs1",
        "starlike_obs2",
        "starlike_obs3",
    ]:
        rep = verify_claim(claim_id)
        assert rep.passed, (claim_id, rep.lines, rep.witness)
    print(f"claim suite: {time.perf_counter() - t0:.2f}s")


def test_criterion_13_mirror_on_even_balloon_paths():
    for n in (4, 6, 8, 10):
        g, pol = balloon_mirror(n)
        assert best_response_value(g, pol, controlled="P1") >= 0, n


@pytest.mark.xfail(
    strict=True,
    reason="on the two-vertex balloon path the mirroring side is lost"
    " outright: exhaustive search puts the position at -2, so no policy"
    " reaches a tie; the mirror still matches that optimum",
)
def test_criterion_13_mirror_on_two_vertex_balloon_path():
    g, pol = balloon_mirror(2)
    # the value really is -2, for any strategy
    assert solve(g).differential == -2
    assert best_response_value(g, pol, controlled="P1") == -2
    # the criterion's literal bar, unreachable here
    assert best_response_value(g, pol, controlled="P1") >= 0


def test_criterion_13_mirror_on_doubled_graphs():
    for name, params in [("cycle", (3,)), ("cycle", (4,)), ("cycle", (5,)), ("complete", (4,))]:
        g, pol = mirror_policy(make(name, *params))
        v = best_response_value(g, pol, controlled="P1")
        assert v >= 0, (name, params, v)


def test_criterion_13_quadrant_mirror_report():
    rep = verify_claim("quadrant_mirror")
    assert rep.passed, (rep.lines, rep.witness)
    # the report must include both complete-graph cases
    text = "\n".join(rep.lines)
    assert "K4" in text.replace("complete(4)", "K4") or "complete(4)" in text
    assert "K8" in text.replace("complete(8)", "K8") or "complete(8)" in text


def test_criterion_14_oracle_equivalence():
    t0 = time.perf_counter()
    for g, expect in support.oracle_results():
        assert solve(g).differential == expect, g.signature()
    print(f"oracle equivalence: {time.perf_counter() - t0:.2f}s")


def test_criterion_14_option_invariance():
    variants = [
        SolveOptions(pruning=False),
        SolveOptions(memo=False),
    ]
    for g, expect in support.oracle_results():
        for v in variants:
            assert solve(g, v).differential == expect, (g.signature(), v)


def test_criterion_14_canonical_soundness_and_stability():
    # the detailed suites live in test_canonical.py; this runs them as
    # one gate entry so the criterion has its own pass/fail line
    import test_canonical

    test_canonical.test_soundness_against_backtracking_oracle()
    test_canonical.test_permutation_stability_fuzz()


def test_criterion_14_cache_round_trip(tmp_path):
    import test_io_cache

    test_io_cache.test_cache_round_trip(tmp_path)
    test_io_cache.test_warm_start_consistency(tmp_path)
