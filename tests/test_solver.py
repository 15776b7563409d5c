"""Solver correctness: oracle agreement, option invariance, search plumbing."""

import random

import pytest

from strings_and_coins.graph import EdgeRef, LoopyMultigraph
from strings_and_coins.canonical import canonical_key, clear_caches, unpack_key
from strings_and_coins.families import make
from strings_and_coins.solver import (
    DepthLimitError,
    EmptyPositionError,
    SolveBudgetExceeded,
    SolveOptions,
    TranspositionTable,
    ValueConsistencyError,
    _check_searchable,
    best_move,
    iter_table,
    scores_from_value,
    solve,
)

import support


def test_known_positions():
    assert solve(make("cycle", 4)).winner == "P2"
    assert (solve(make("cycle", 4)).p1_score, solve(make("cycle", 4)).p2_score) == (0, 4)
    gv = solve(make("friendship", 2))
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("P1", 3, 2)
    gv = solve(make("complete", 2))
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("P1", 2, 0)
    gv = solve(make("generalized_loopy_star", 1, 2))
    assert (gv.winner, gv.p1_score, gv.p2_score) == ("Tie", 1, 1)
    gv = solve(LoopyMultigraph.from_edges([(0, 0)]))
    assert (gv.differential, gv.p1_score, gv.p2_score) == (1, 1, 0)


def test_empty_position_value():
    gv = solve(LoopyMultigraph.empty())
    assert (gv.differential, gv.winner) == (0, "Tie")
    assert gv.stats.nodes == 0


def test_scores_from_value():
    assert scores_from_value(10, 8) == (9, 1)
    assert scores_from_value(4, -4) == (0, 4)
    assert scores_from_value(5, 1) == (3, 2)
    with pytest.raises(ValueConsistencyError):
        scores_from_value(4, 1)  # parity
    with pytest.raises(ValueConsistencyError):
        scores_from_value(3, 5)  # bound


def test_oracle_equivalence():
    """Memoized, pruned search equals the blind instance-level recursion."""
    for g, expect in support.oracle_results():
        assert solve(g).differential == expect, g.signature()


def test_option_invariance():
    """Every search feature is a pure optimization."""
    rng = random.Random(555)
    suite = support.small_corpus() + support.random_suite()
    variants = [
        SolveOptions(pruning=False, memo=True),
        SolveOptions(pruning=True, memo=False),
    ]
    for g in suite:
        base = solve(g).differential
        for opts in variants:
            assert solve(g, opts).differential == base, (g.signature(), opts)
        if g.edge_count <= 7 and rng.random() < 0.3:
            bare = SolveOptions(pruning=False, memo=False)
            assert solve(g, bare).differential == base


def test_no_memo_leaves_a_given_table_alone():
    # memo=False searches without a table even when one is passed in
    table = TranspositionTable()
    table.seed({canonical_key(make("path", 5)): 5})
    gv = solve(make("cycle", 5), SolveOptions(memo=False, table=table))
    assert (gv.differential, gv.stats.nodes, gv.stats.memo_hits) == (-5, 21, 0)
    assert len(table) == 1


def test_isomorphism_invariance():
    rng = random.Random(321)
    for _ in range(80):
        g = support.random_graph(rng, max_vertices=7, max_edges=9)
        assert solve(g).differential == solve(support.relabel(g, rng)).differential


def test_loop_addition_flips_second_player_wins():
    rng = random.Random(888)
    suite = [make("cycle", n) for n in (3, 4, 5, 6)]
    suite += [support.random_graph(rng, max_vertices=6, max_edges=8) for _ in range(60)]
    flipped = 0
    for g in suite:
        if solve(g).differential >= 0:
            continue
        for v in g.vertices:
            assert solve(g.add_edge(v, v)).differential > 0, (g.signature(), v)
            flipped += 1
    assert flipped > 20


def test_parity_and_bound_invariants_in_memo():
    table = TranspositionTable()
    solve(make("wheel", 5), SolveOptions(table=table))
    checked = 0
    for key, value in table.fresh_exact_items():
        n, _ = unpack_key(key)
        assert abs(value) <= n
        assert (value - n) % 2 == 0
        checked += 1
    assert checked > 0


def test_memo_reuse_across_solves():
    table = TranspositionTable()
    opts = SolveOptions(table=table)
    cold = solve(make("wheel", 6), opts)
    warm = solve(make("wheel", 6), opts)
    assert warm.differential == cold.differential
    assert warm.stats.memo_hits >= 1
    assert warm.stats.nodes <= 1


def test_memo_capacity_lru_still_exact():
    unbounded = solve(make("ferris_wheel", 5)).differential
    gv = solve(make("ferris_wheel", 5), SolveOptions(memo_capacity=64))
    assert gv.differential == unbounded
    table = TranspositionTable(capacity=32)
    solve(make("ferris_wheel", 5), SolveOptions(table=table))
    assert len(table) <= 32


def test_seeded_entries_pin_and_survive():
    table = TranspositionTable(capacity=8)
    table.seed({b"\x01\x00" + b"\x00" * 6: 1})
    for i in range(50):
        table.put(bytes([i]), 0, 0)
    assert table.get(b"\x01\x00" + b"\x00" * 6) is not None
    assert all(k != b"\x01\x00" + b"\x00" * 6 for k, _ in table.fresh_exact_items())


def test_time_budget_abort():
    with pytest.raises(SolveBudgetExceeded):
        solve(make("complete", 9), SolveOptions(time_budget=0.05))


def test_iter_table_rows_and_shared_progress():
    rows = [(spec.params[0], gv) for spec, gv in iter_table("friendship", 1, 3)]
    assert [(p, gv.winner, gv.p1_score, gv.p2_score) for p, gv in rows] == [
        (1, "P2", 0, 3),
        (2, "P1", 3, 2),
        (3, "P2", 2, 5),
    ]
    assert all(rows[i][0] < rows[i + 1][0] for i in range(len(rows) - 1))


def test_iter_table_fixed_parameters():
    rows = list(iter_table("complete_bipartite", 1, 3, fixed=(2,)))
    # varies the first slot: K(1,2), K(2,2), K(3,2)
    assert [spec.params for spec, _ in rows] == [(1, 2), (2, 2), (3, 2)]
    assert [gv.p1_score + gv.p2_score for _, gv in rows] == [3, 4, 5]


def test_iter_table_abort_keeps_completed_rows():
    rows = []
    with pytest.raises(SolveBudgetExceeded) as exc:
        for spec, gv in iter_table("complete", 2, 10, SolveOptions(time_budget=0.5)):
            rows.append((spec.params[0], gv))
    err = exc.value
    assert err.parameter is not None and err.parameter >= 3
    assert [p for p, _ in rows] == list(range(2, err.parameter))
    for p, gv in rows:
        assert gv.p1_score + gv.p2_score == p


def test_best_move_forced_and_examples():
    ref, gv = best_move(LoopyMultigraph.from_edges([(0, 1)]))
    assert ref == EdgeRef(0, 1)
    assert gv.differential == 2

    # a lone loop on a long tail: the loop is an optimal opener
    ref, gv = best_move(make("loopy_cycle", 6, 1))
    assert ref.is_loop
    assert gv.winner == "P1"

    ref, gv = best_move(make("friendship", 2))
    assert 0 not in (ref.u, ref.v)  # optimal play avoids the hub edges
    assert gv.differential == solve(make("friendship", 2)).differential


def test_best_move_empty_position():
    with pytest.raises(EmptyPositionError):
        best_move(LoopyMultigraph.empty())


def test_best_move_deterministic_tiebreak():
    g = make("cycle", 4)
    first = best_move(g)
    for _ in range(3):
        again = best_move(make("cycle", 4))
        assert again[0] == first[0]
        assert again[1].differential == first[1].differential


def test_too_deep_positions_raise_typed_error():
    deep = LoopyMultigraph.from_edges([(0, 1)] * 1500)
    with pytest.raises(DepthLimitError):
        solve(deep)
    with pytest.raises(DepthLimitError):
        best_move(deep)
    assert solve(LoopyMultigraph.from_edges([(0, 1)] * 500)).differential == -2
    # keying a star individualises one leaf per level, so its coins count too
    star = LoopyMultigraph.from_edges([(0, i) for i in range(1, 500)])
    with pytest.raises(DepthLimitError):
        solve(star)


def test_deepest_admitted_position_solves():
    def parallel(k):
        return LoopyMultigraph.from_edges([(0, 1)] * k)

    k = 1
    while True:
        try:
            _check_searchable(parallel(k + 1))
        except DepthLimitError:
            break
        k += 1
    with pytest.raises(DepthLimitError):
        solve(parallel(k + 1))
    assert solve(parallel(k)).differential == (2 if k % 2 else -2)
    assert best_move(parallel(k))[1].differential == (2 if k % 2 else -2)


def test_stats_populated():
    gv = solve(make("wheel", 4))
    assert gv.stats.nodes > 0
    assert gv.stats.elapsed >= 0.0


# (family, parameter, options) -> (differential, nodes, memo hits).  Move
# order decides both counts, so any change to the order in which search
# tries moves, or to where it cuts off, shows up here.
_SEARCH_TRACE = [
    ("complete", 6, SolveOptions(), (4, 182, 568)),
    ("prism", 5, SolveOptions(), (6, 468, 1109)),
    ("wheel", 7, SolveOptions(), (-4, 527, 1047)),
    ("balloon_path", 8, SolveOptions(), (0, 888, 1687)),
    ("ferris_wheel", 7, SolveOptions(), (-3, 514, 985)),
    ("friendship", 5, SolveOptions(), (-3, 44, 129)),
    ("ferris_wheel", 4, SolveOptions(memo=False), (2, 1028, 0)),
    ("prism", 3, SolveOptions(pruning=False), (4, 47, 193)),
]
_TRACE_IDS = [f"{f}{p}" + ("" if o == SolveOptions() else "-options") for f, p, o, _ in _SEARCH_TRACE]


@pytest.mark.parametrize("family,param,opts,expect", _SEARCH_TRACE, ids=_TRACE_IDS)
def test_search_trace_is_pinned(family, param, opts, expect):
    clear_caches()
    gv = solve(make(family, param), opts)
    assert (gv.differential, gv.stats.nodes, gv.stats.memo_hits) == expect


def test_best_move_is_pinned():
    expect = {
        ("complete", 6): (EdgeRef(0, 1), 4, 181, 568),
        ("wheel", 7): (EdgeRef(0, 1), -4, 534, 1081),
        ("balloon_path", 8): (EdgeRef(3, 4), 0, 1088, 2445),
        ("friendship", 5): (EdgeRef(0, 1), -3, 44, 142),
    }
    for (family, param), want in expect.items():
        clear_caches()
        ref, gv = best_move(make(family, param))
        assert (ref, gv.differential, gv.stats.nodes, gv.stats.memo_hits) == want
