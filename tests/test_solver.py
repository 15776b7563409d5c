"""Solver correctness: oracle agreement, option invariance, search plumbing."""

import random
import time

import pytest

from strings_and_coins.graph import EdgeRef, LoopyMultigraph
from strings_and_coins import canonical
from strings_and_coins.canonical import canonical_key, clear_caches
from strings_and_coins.families import make
from strings_and_coins.solver import (
    DepthLimitError,
    EmptyPositionError,
    SolveBudgetExceeded,
    SolveOptions,
    TranspositionTable,
    ValueConsistencyError,
    _Searcher,
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


def test_memoised_oracle_matches_plain_recursion():
    """The oracle's memo changes no value: the unmemoised recursion agrees
    on every corpus graph below 9 strings."""
    checked = 0
    for g, expect in support.oracle_results():
        if g.edge_count < 9:
            assert support.plain_brute_value(g) == expect, g.signature()
            checked += 1
    assert checked == 293


@pytest.mark.parametrize("order", ["signature", "reversed", "shuffled"])
def test_move_order_never_changes_a_value(monkeypatch, order):
    """Null windows and two-bound table entries are sound under any move
    order, not only the one the search uses."""
    rng = random.Random(2012)
    reorder = {
        "signature": list,
        "reversed": lambda moves: list(reversed(moves)),
        "shuffled": lambda moves: rng.sample(moves, len(moves)),
    }[order]
    monkeypatch.setattr(_Searcher, "_move_order", lambda self, g, moves: reorder(moves))
    for g, expect in support.oracle_results():
        assert solve(g).differential == expect, (order, g.signature())


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
    assert (gv.differential, gv.stats.nodes, gv.stats.memo_hits) == (-5, 16, 0)
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
        n, _ = support.unpack_key(key)
        assert abs(value) <= n
        assert (value - n) % 2 == 0
        checked += 1
    assert checked > 0


def test_table_bounds_hold_the_blind_value(monkeypatch):
    """Pruned, null-window search through one shared table stores bounds
    that bracket each position's blind value, and exact entries equal it."""
    # memoise the blind recursion on labelled signatures, which keeps it
    # blind to canonical keys and makes one call per decoded entry cheap
    blind = support.brute_value
    memo = {}

    def brute(g):
        sig = g.signature()
        if sig not in memo:
            memo[sig] = blind(g)
        return memo[sig]

    monkeypatch.setattr(support, "brute_value", brute)
    table = TranspositionTable()
    opts = SolveOptions(table=table)
    golden = [("complete", 5), ("wheel", 6), ("friendship", 4), ("prism", 4), ("ferris_wheel", 4)]
    for g in support.random_suite() + [make(f, p) for f, p in golden]:
        solve(g, opts)
    exact = set()
    for key, (lo, hi) in table._store.items():
        assert lo <= hi, key
        v = support.brute_value(support.graph_from_key(key))
        assert lo <= v <= hi, (key, lo, hi, v)
        if lo == hi:
            exact.add(key)
    assert {k for k, _ in table.fresh_exact_items()} == exact
    assert 0 < len(exact) < len(table._store)


def test_memo_reuse_across_solves():
    table = TranspositionTable()
    opts = SolveOptions(table=table)
    cold = solve(make("wheel", 6), opts)
    warm = solve(make("wheel", 6), opts)
    assert warm.differential == cold.differential
    assert warm.stats.memo_hits >= 1
    assert warm.stats.nodes <= 1


def test_seeded_entries_pin_and_survive():
    table = TranspositionTable()
    table.seed({b"\x01\x00" + b"\x00" * 6: 1})
    for i in range(50):
        table.put(bytes([i]), 0, 0)
    assert table.get(b"\x01\x00" + b"\x00" * 6) is not None
    assert all(k != b"\x01\x00" + b"\x00" * 6 for k, _ in table.fresh_exact_items())


@pytest.mark.parametrize("search", [solve, best_move], ids=["solve", "best_move"])
def test_nan_time_budget_is_refused(search):
    # ``time.monotonic() > nan`` is never true: such a budget would never run out
    with pytest.raises(ValueError, match="nan"):
        search(make("complete", 4), SolveOptions(time_budget=float("nan")))
    with pytest.raises(ValueError, match="nan"):
        list(iter_table("complete", 2, 4, SolveOptions(time_budget=float("nan"))))


def test_time_budget_abort():
    with pytest.raises(SolveBudgetExceeded):
        solve(make("complete", 9), SolveOptions(time_budget=0.05))


@pytest.mark.parametrize("search", [solve, best_move], ids=["solve", "best_move"])
def test_time_budget_covers_keying(search):
    # keying the rigid multipede alone takes many seconds: only a clock
    # read inside the keying search can stop it
    start = time.monotonic()
    with pytest.raises(SolveBudgetExceeded):
        search(support.multipede(40, 1), SolveOptions(time_budget=0.2))
    assert time.monotonic() - start < 2


def test_budgeted_abort_does_not_depend_on_earlier_solves():
    # a solve keys through its own table, so a warm solve of the same
    # position earlier in the process cannot speed a later budgeted one
    budget = SolveOptions(time_budget=0.5)
    with pytest.raises(SolveBudgetExceeded):
        solve(make("complete", 8), budget)
    solve(make("complete", 8))
    with pytest.raises(SolveBudgetExceeded):
        solve(make("complete", 8), budget)


def test_solves_leave_the_module_key_cache_empty():
    clear_caches()
    g = make("wheel", 6)
    solve(g)
    solve(g, SolveOptions(memo=False))
    best_move(g)
    best_move(g, SolveOptions(memo=False))
    list(iter_table("friendship", 1, 3))
    assert not canonical._default_cache.graphs
    assert not canonical._default_cache.comps


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


def test_symmetric_skips(monkeypatch):
    # without the table nothing is keyed, so every class is tried
    assert solve(make("complete", 4), SolveOptions(memo=False)).stats.symmetric_skips == 0
    assert solve(make("complete", 4)).stats.symmetric_skips > 0
    # every edge of K6 lies in one orbit: a cold solve cuts one of the 15
    g = make("complete", 6)
    tried = []
    child = LoopyMultigraph._child

    def spy(self, a, b):
        if self is g:
            tried.append((a, b))
        return child(self, a, b)

    monkeypatch.setattr(LoopyMultigraph, "_child", spy)
    gv = solve(g)
    assert len(g.signature()) == 15 and tried == [(0, 1)]
    assert gv.stats.symmetric_skips >= 14


def test_stats_populated():
    gv = solve(make("wheel", 4))
    assert gv.stats.nodes > 0
    assert gv.stats.elapsed >= 0.0


# (family, parameter, options) -> (differential, nodes, memo hits).  Move
# order decides both counts, so any change to the order in which search
# tries moves, to the moves it tries, or to where it cuts off, shows up
# here.
_SEARCH_TRACE = [
    ("complete", 6, SolveOptions(), (4, 82, 79)),
    ("prism", 5, SolveOptions(), (6, 126, 109)),
    ("wheel", 7, SolveOptions(), (-4, 104, 69)),
    ("balloon_path", 8, SolveOptions(), (0, 217, 233)),
    ("ferris_wheel", 7, SolveOptions(), (-3, 143, 106)),
    ("friendship", 5, SolveOptions(), (-3, 6, 0)),
    ("ferris_wheel", 4, SolveOptions(memo=False), (2, 191, 0)),
    ("prism", 3, SolveOptions(pruning=False), (4, 47, 83)),
]
_TRACE_IDS = [f"{f}{p}" + ("" if o == SolveOptions() else "-options") for f, p, o, _ in _SEARCH_TRACE]


@pytest.mark.parametrize("family,param,opts,expect", _SEARCH_TRACE, ids=_TRACE_IDS)
def test_search_trace_is_pinned(family, param, opts, expect):
    gv = solve(make(family, param), opts)
    assert (gv.differential, gv.stats.nodes, gv.stats.memo_hits) == expect


_PRUNING_CASES = [
    ("complete", (5,)),
    ("complete", (6,)),
    ("complete", (7,)),
    ("prism", (5,)),
    ("petersen", ()),
    ("wheel", (7,)),
    ("wheel", (8,)),
    ("balloon_path", (8,)),
    ("ferris_wheel", (7,)),
    ("ferris_wheel", (8,)),
]


@pytest.mark.parametrize("family,params", _PRUNING_CASES, ids=[f + "".join(map(str, p)) for f, p in _PRUNING_CASES])
def test_pruning_expands_no_more_nodes(family, params):
    g = make(family, *params)
    pruned = solve(g)
    plain = solve(g, SolveOptions(pruning=False))
    assert pruned.differential == plain.differential
    assert pruned.stats.nodes <= plain.stats.nodes


def test_best_move_is_pinned():
    expect = {
        ("complete", 6): (EdgeRef(0, 1), 4, 81, 93),
        ("wheel", 7): (EdgeRef(0, 1), -4, 130, 164),
        ("balloon_path", 8): (EdgeRef(3, 4), 0, 254, 357),
        ("friendship", 5): (EdgeRef(0, 1), -3, 6, 15),
    }
    for (family, param), want in expect.items():
        ref, gv = best_move(make(family, param))
        assert (ref, gv.differential, gv.stats.nodes, gv.stats.memo_hits) == want


def test_skip_counters_are_pinned():
    """(symmetric_skips, forced_captures, dominated_skips) on the pinned
    searches and ``best_move`` roots above: a change to which classes the
    orbits and the move rules leave out shows up here."""
    solves = [(374, 46, 21), (569, 130, 273), (328, 112, 190), (510, 254, 791),
              (340, 136, 388), (37, 9, 4), (0, 71, 197), (110, 0, 0)]
    for (family, param, opts, _), want in zip(_SEARCH_TRACE, solves, strict=True):
        s = solve(make(family, param), opts).stats
        assert (s.symmetric_skips, s.forced_captures, s.dominated_skips) == want, (family, param, opts)
    roots = {
        ("complete", 6): (360, 46, 21),
        ("wheel", 7): (367, 178, 253),
        ("balloon_path", 8): (623, 336, 889),
        ("friendship", 5): (34, 19, 5),
    }
    for (family, param), want in roots.items():
        s = best_move(make(family, param))[1].stats
        assert (s.symmetric_skips, s.forced_captures, s.dominated_skips) == want, (family, param)


def _safe_capture_positions(count: int) -> list[LoopyMultigraph]:
    """Small random positions, each with a coin that a safe capture takes:
    in turn a lone loop coin, a lone string, and a pendant coin on a coin
    that also holds a loop and two parallel strings."""
    rng = random.Random(2000)
    out = []
    for i in range(count):
        edges = support.random_edges(rng, max_vertices=5, max_edges=6, loop_chance=0.3)
        v = 1 + max(max(e) for e in edges)
        if i % 3 == 0:
            edges.append((v, v))
        elif i % 3 == 1:
            edges.append((v, v + 1))
        else:
            w = rng.choice(edges)[0]
            edges += [(v, v + 1), (v + 1, v + 1), (v + 1, w), (v + 1, w)]
        out.append(LoopyMultigraph.from_edges(edges))
    return out


def _forced(g: LoopyMultigraph) -> tuple | None:
    """(t, None) for the safe capture t of ``g``, (e, f) for its decline,
    else None."""
    t, f = _Searcher._verdict(g)[:2]
    return None if t is None else (t, f)


def test_safe_captures_keep_the_blind_value():
    """Positions where the rule fires solve to the blind oracle's value,
    with and without the table."""
    for g in _safe_capture_positions(60):
        forced = _forced(g)
        assert forced is not None and forced[1] is None, g.signature()
        expect = support.brute_value(g)
        gv = solve(g)
        assert gv.differential == expect, g.signature()
        assert gv.stats.forced_captures > 0
        assert solve(g, SolveOptions(memo=False)).differential == expect, g.signature()


def test_capture_next_to_a_coin_with_two_strings_is_not_safe():
    # coin 3 hangs on coin 4, which holds its string and a loop: taking
    # coin 3 first loses by one, while the position wins by one
    g = LoopyMultigraph.from_edges([(0, 1), (0, 2), (1, 2), (3, 4), (4, 4)])
    assert _forced(g) == ((3, 4, 1), (4, 4, 1))
    captured, succ = g._child(3, 4)
    assert captured + solve(succ).differential == -1
    for opts in (SolveOptions(), SolveOptions(pruning=False)):
        gv = solve(g, opts)
        assert (gv.differential, gv.winner, gv.p1_score, gv.p2_score) == (1, "P1", 3, 2)


def test_no_keyed_position_holds_a_safe_capture(monkeypatch):
    keyed = []
    key_graph = canonical._key_graph

    def spy(g, deadline, cache):
        keyed.append(g)
        return key_graph(g, deadline, cache)

    monkeypatch.setattr(canonical, "_key_graph", spy)
    solve(make("balloon_path", 8))
    assert keyed and not any(f is not None and f[1] is None for f in map(_forced, keyed))
    keyed.clear()
    solve(make("balloon_path", 8), SolveOptions(pruning=False))
    assert any(f is not None and f[1] is None for f in map(_forced, keyed))


def test_forced_captures_are_counted_only_with_pruning():
    g = make("balloon_path", 8)
    assert solve(g).stats.forced_captures > 0
    assert solve(g, SolveOptions(pruning=False)).stats.forced_captures == 0


def _decline_positions(count: int) -> list[LoopyMultigraph]:
    """Small random positions with no safe capture whose first coin on
    its last string hangs on a coin u with two strings, e = (v, u).  In
    turn u's other string f is a loop at u; f ends at a second coin on its
    last string; f goes into the random part and a second such coin hangs
    there too; and the coin's component sits beside a separate triangle
    with a loop."""
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        edges = support.random_edges(rng, max_vertices=4, max_edges=5, loop_chance=0.3)
        v = 1 + max(max(e) for e in edges)
        w = rng.choice(edges)[0]
        if kind == 0:
            gadget, f = [(v, v + 1), (v + 1, v + 1)], (v + 1, v + 1, 1)
        elif kind == 1:
            gadget, f = [(v, v + 1), (v + 1, v + 2)], (v + 1, v + 2, 1)
        elif kind == 2:
            gadget, f = [(v, v + 1), (v + 1, w), (v + 2, v + 3), (v + 3, rng.choice(edges)[1])], (w, v + 1, 1)
        else:
            gadget, f = [(v, v + 1), (v + 1, w), (v + 2, v + 3), (v + 3, v + 4), (v + 2, v + 4), (v + 4, v + 4)], (w, v + 1, 1)
        g = LoopyMultigraph.from_edges(edges + gadget)
        if _forced(g) == ((v, v + 1, 1), f):
            out.append(g)
    return out


def test_capture_or_decline_keeps_the_blind_value():
    """Positions where the root searches only its captures and the
    decline solve to the blind oracle's value, with and without the
    table, and the root leaves classes out."""
    for g in _decline_positions(40):
        expect = support.brute_value(g)
        gv = solve(g)
        assert gv.differential == expect, g.signature()
        assert gv.stats.dominated_skips > 0, g.signature()
        assert solve(g, SolveOptions(memo=False)).differential == expect, g.signature()


def test_classes_the_rule_leaves_out_are_two_below_the_capture():
    """On small random positions where the rule fires, a plain memoised
    negamax values every class left out at least 2 below the capture e,
    and the best kept class at the position's value."""
    rng = random.Random(177)
    searcher = _Searcher(SolveOptions(), None)
    checked = 0
    while checked < 150:
        g = support.random_graph(rng, max_vertices=6, max_edges=8)
        forced = _forced(g)
        if forced is None or forced[1] is None:
            continue
        e, f = forced

        def worth(t):
            captured, succ = g._child(t[0], t[1])
            return captured + support.brute_value(succ) if captured else -support.brute_value(succ)

        kept = searcher._tried(g, g.signature(), *_Searcher._verdict(g)[1:])
        assert e in kept and f in kept
        for t in g.signature():
            if t not in kept:
                assert worth(t) <= worth(e) - 2, (g.signature(), e, t)
        assert max(map(worth, kept)) == support.brute_value(g), g.signature()
        checked += 1


def test_best_move_skips_only_classes_that_are_never_optimal():
    """A root where the rule fires names the move and value that trying
    every class names."""
    for g in _decline_positions(24):
        want, plain = best_move(g, SolveOptions(pruning=False))
        assert plain.stats.dominated_skips == 0
        for memo in (True, False):
            ref, gv = best_move(g, SolveOptions(memo=memo))
            assert (ref, gv.differential) == (want, plain.differential), (g.signature(), memo)
            assert gv.stats.dominated_skips > 0


def test_dominated_skips_are_counted_apart_from_symmetric_skips():
    g = make("balloon_path", 8)
    assert solve(g).stats.dominated_skips > 0
    # nothing is keyed without the table, so no orbit is skipped
    bare = solve(g, SolveOptions(memo=False)).stats
    assert bare.dominated_skips > 0 and bare.symmetric_skips == 0
    assert solve(g, SolveOptions(pruning=False)).stats.dominated_skips == 0


def _left_out(g: LoopyMultigraph) -> set:
    """The classes of ``g`` that a hard-hearted handout leaves out: what
    the filter leaves out of its signature, less the chain rule's links."""
    sig = g.signature()
    tried = _Searcher(SolveOptions(), None)._tried(g, sig, *_Searcher._verdict(g)[1:])
    return set(sig) - set(tried) - _chain_left_out(g)


def _no_single_strings(rng: random.Random, edges: list) -> list:
    """``edges`` with a loop, or a string to another coin, added at each
    coin that holds a single string, so that neither a safe capture nor a
    decline is found."""
    inc = {}
    for a, b in edges:
        inc[a] = inc.get(a, 0) + 1
        if a != b:
            inc[b] = inc.get(b, 0) + 1
    coins = sorted(inc)
    for v in coins:
        if inc[v] == 1:
            u = rng.choice(coins)
            edges.append((v, u))
            inc[v] += 1
            if u != v:
                inc[u] += 1
    return edges


_HANDOUT_KINDS = ["loop", "chain_end", "between_joints", "parallel_pair", "components"]


def _handout_positions(count: int) -> list[tuple[str, LoopyMultigraph, list]]:
    """Small random positions in which no coin holds a single string, as
    (kind, position, the gadget's strings).  In turn the gadget is a coin v
    holding a loop and a string into the random part; a chain w - v - v+1 - y
    between coins of the random part, whose end strings are chain ends
    beside a joint; coins v and v+1 each between the same two joints of
    the random part, where nothing of the gadget may be left out; a coin
    holding two parallel strings to the random part; and a separate
    balloon path of 3 beside a triangle with a loop."""
    rng = random.Random(2025)
    out = []
    while len(out) < count:
        kind = _HANDOUT_KINDS[len(out) % len(_HANDOUT_KINDS)]
        edges = _no_single_strings(rng, support.random_edges(rng, max_vertices=4, max_edges=4, loop_chance=0.3))
        coins = sorted({c for e in edges for c in e})
        v = 1 + coins[-1]
        w, y = rng.choice(coins), rng.choice(coins)
        if kind == "loop":
            gadget = [(v, v), (v, w)]
        elif kind == "chain_end":
            gadget = [(w, v), (v, v + 1), (v + 1, y)]
        elif kind == "between_joints":
            if w == y:
                continue
            gadget = [(w, v), (v, y), (w, v + 1), (v + 1, y)]
        elif kind == "parallel_pair":
            gadget = [(v, w), (v, w)]
        else:
            gadget = [(v, v), (v, v + 1), (v + 1, v + 1), (v + 1, v + 2), (v + 2, v + 2)]
            gadget += [(v + 3, v + 4), (v + 4, v + 5), (v + 3, v + 5), (v + 5, v + 5)]
        g = LoopyMultigraph.from_edges(edges + gadget)
        if g.edge_count <= 12:
            assert _forced(g) is None, g.signature()
            out.append((kind, g, [(min(e), max(e)) for e in gadget]))
    return out


def test_hard_hearted_handout_keeps_the_blind_value():
    """Positions with no coin on a single string solve to the blind
    oracle's value, with and without the table.  The rule leaves a
    string of the gadget out, except at a coin between two joints or on
    a parallel pair, where it leaves out none."""
    for kind, g, gadget in _handout_positions(60):
        left_out = {t[:2] for t in _left_out(g)}
        if kind in ("between_joints", "parallel_pair"):
            assert not left_out & set(gadget), (kind, g.signature())
        else:
            assert left_out & set(gadget), (kind, g.signature())
        expect = support.brute_value(g)
        assert solve(g).differential == expect, (kind, g.signature())
        assert solve(g, SolveOptions(memo=False)).differential == expect, (kind, g.signature())


def test_classes_a_handout_leaves_out_are_worth_no_more_than_their_dominator():
    """On small random positions where the rule fires, a plain memoised
    negamax values every class left out at most at a kept dominator, the
    other string of a coin holding two, and the best kept class at the
    position's value."""
    rng = random.Random(1995)
    checked = 0
    while checked < 150:
        edges = support.random_edges(rng, max_vertices=6, max_edges=7, loop_chance=0.3)
        g = LoopyMultigraph.from_edges(_no_single_strings(rng, edges))
        left_out = _left_out(g)
        if not left_out or g.edge_count > 10:
            continue
        sig = g.signature()
        worth = {}
        for t in sig:
            captured, succ = g._child(t[0], t[1])
            worth[t] = captured + support.brute_value(succ) if captured else -support.brute_value(succ)
        for t in left_out:
            others = [s for v in t[:2] if g.incident_count(v) == 2 for s in sig if s != t and v in s[:2]]
            assert any(s not in left_out and worth[t] <= worth[s] for s in others), (sig, t)
        assert max(worth[t] for t in sig if t not in left_out) == support.brute_value(g), sig
        checked += 1


def test_best_move_keeps_the_classes_a_handout_leaves_out():
    """A root where the rule fires names the move and value that trying
    every class names, with and without the table, and on some such roots
    that move is a class the rule leaves out."""
    picked = 0
    for _, g, _ in _handout_positions(40):
        left_out = _left_out(g)
        if not left_out:
            continue
        want, plain = best_move(g, SolveOptions(pruning=False))
        for memo in (True, False):
            ref, gv = best_move(g, SolveOptions(memo=memo))
            assert (ref, gv.differential) == (want, plain.differential), (g.signature(), memo)
        picked += any(t[:2] == want for t in left_out)
    assert picked > 0


def test_handout_skips_count_as_dominated_skips():
    # balloon_path(3) holds no coin on a single string, so at its root only
    # the handout rule fires: it leaves out the loops at both ends
    g = make("balloon_path", 3)
    assert _forced(g) is None and _left_out(g) == {(0, 0, 1), (2, 2, 1)}
    assert not _chain_left_out(g)
    searcher = _Searcher(SolveOptions(), None)
    searcher._tried(g, g.signature(), *_Searcher._verdict(g)[1:])
    assert searcher.stats.dominated_skips == 2
    assert solve(g).stats.dominated_skips > 0
    assert solve(g, SolveOptions(memo=False)).stats.dominated_skips > 0
    assert solve(g, SolveOptions(pruning=False)).stats.dominated_skips == 0


def _chains(g: LoopyMultigraph) -> list[list]:
    """The links of each chain of three or more coins in ``g``, each list
    in signature order: a link is a string of multiplicity 1 between two
    coins that each hold exactly two strings of multiplicity 1, and the
    links of a chain form a path of two or more.  A jointless cycle is no
    chain."""
    sig = g.signature()
    two = {v for v in g.vertices if g.incident_count(v) == 2 and all(t[2] == 1 for t in sig if v in t[:2])}
    links = [t for t in sig if t[0] != t[1] and t[0] in two and t[1] in two]
    out = []
    left = set(links)
    while left:
        run = [min(left)]
        left.remove(run[0])
        for s in run:  # grows while it is read
            for t in sorted(left):
                if set(t[:2]) & set(s[:2]):
                    left.remove(t)
                    run.append(t)
        coins = {v for t in run for v in t[:2]}
        if len(run) >= 2 and len(coins) == len(run) + 1:
            out.append(sorted(run))
    return out


def _chain_left_out(g: LoopyMultigraph) -> set:
    """The classes of ``g`` that the chain rule leaves out."""
    return _Searcher._chain_skips(_Searcher._verdict(g)[2], g.signature())


_CHAIN_KINDS = ["ground_ground", "joint_joint", "joint_ground", "own_joint", "two_coin", "cycle", "two_components"]


def _chain_positions(count: int) -> list[tuple[str, LoopyMultigraph, list, int]]:
    """Small random positions in which no coin holds a single string, as
    (kind, position, the gadget's strings, how many of them the chain rule
    leaves out).  In turn the gadget is a chain of 3 or 4 coins v, v+1, ...
    with a loop at each end; one between two coins of the random part; one
    from such a coin to a loop; one that returns to the coin it leaves; a
    two-coin chain between two coins of the random part and a jointless
    cycle of 3 or 4 coins, where nothing may be left out; and two chains of
    three coins in separate components, one ending in loops and one
    between coins of the random part."""
    rng = random.Random(2026)
    out = []
    while len(out) < count:
        kind = _CHAIN_KINDS[len(out) % len(_CHAIN_KINDS)]
        edges = _no_single_strings(rng, support.random_edges(rng, max_vertices=4, max_edges=3, loop_chance=0.3))
        coins = sorted({c for e in edges for c in e})
        v = 1 + coins[-1]
        w, y = rng.choice(coins), rng.choice(coins)
        k = rng.choice((3, 4))
        path = [(v + i, v + i + 1) for i in range(k - 1)]
        last = v + k - 1
        if kind == "ground_ground":
            gadget, skips = [(v, v)] + path + [(last, last)], k - 2
        elif kind == "joint_joint":
            if w == y:
                continue
            gadget, skips = [(w, v)] + path + [(last, y)], k - 2
        elif kind == "joint_ground":
            gadget, skips = [(w, v)] + path + [(last, last)], k - 2
        elif kind == "own_joint":
            gadget, skips = [(w, v)] + path + [(last, w)], k - 2
        elif kind == "two_coin":
            gadget, skips = [(w, v), (v, v + 1), (v + 1, y)], 0
        elif kind == "cycle":
            gadget, skips = path + [(v, last)], 0
        else:
            gadget = [(v, v), (v, v + 1), (v + 1, v + 2), (v + 2, v + 2)]
            gadget += [(w, v + 3), (v + 3, v + 4), (v + 4, v + 5), (v + 5, y)]
            skips = 2
        g = LoopyMultigraph.from_edges(edges + gadget)
        if g.edge_count <= 12:
            assert _forced(g) is None, g.signature()
            out.append((kind, g, [(min(e), max(e), 1) for e in gadget], skips))
    return out


def test_chain_rule_keeps_the_blind_value():
    """Positions with chains solve to the blind oracle's value, with and
    without the table.  The rule leaves out every link of a chain of three
    or more coins but its first, and nothing on a two-coin chain or a
    jointless cycle."""
    for kind, g, gadget, skips in _chain_positions(63):
        left_out = _chain_left_out(g)
        assert len(left_out & set(gadget)) == skips, (kind, g.signature())
        assert left_out == {t for links in _chains(g) for t in links[1:]}, (kind, g.signature())
        expect = support.brute_value(g)
        assert solve(g).differential == expect, (kind, g.signature())
        assert solve(g, SolveOptions(memo=False)).differential == expect, (kind, g.signature())


def test_links_a_chain_leaves_out_are_worth_its_kept_link():
    """A plain memoised negamax values every link the chain rule leaves
    out exactly at the link kept on its chain, and the best class that
    neither the handout nor the chain rule leaves out at the position's
    value."""
    checked = 0
    for kind, g, _, skips in _chain_positions(42):
        if not skips:
            continue
        handouts, chains = _left_out(g), _chain_left_out(g)
        worth = {}
        for t in g.signature():
            captured, succ = g._child(t[0], t[1])
            worth[t] = captured + support.brute_value(succ) if captured else -support.brute_value(succ)
        for links in _chains(g):
            kept = links[0]
            assert kept not in chains | handouts, (kind, g.signature())
            for t in links[1:]:
                assert t in chains and worth[t] == worth[kept], (kind, g.signature(), t)
        assert max(w for t, w in worth.items() if t not in chains | handouts) == support.brute_value(g), g.signature()
        checked += 1
    assert checked == 30


def test_best_move_keeps_the_links_a_chain_leaves_out():
    """A root where the chain rule fires names the move and value that
    trying every class names, with and without the table, and on some such
    roots that move is a link the rule leaves out."""
    picked = 0
    for kind, g, _, skips in _chain_positions(42):
        if not skips:
            continue
        want, plain = best_move(g, SolveOptions(pruning=False))
        for memo in (True, False):
            ref, gv = best_move(g, SolveOptions(memo=memo))
            assert (ref, gv.differential) == (want, plain.differential), (kind, g.signature(), memo)
        picked += any(t[:2] == want for t in _chain_left_out(g))
    assert picked > 0


_AUDIT_FAMILIES = [("prism", 6), ("wheel", 9), ("balloon_path", 9), ("ferris_wheel", 8)]


def test_pruning_rules_keep_their_margins_on_real_search_trees(monkeypatch):
    """At nodes that cold solves of four families reach, every class is
    valued by searches that apply none of the rules.  A safe capture is
    worth the best class of all, and each class the decline, handout or
    chain rule leaves out keeps that rule's margin: at least 2 below the
    capture, at most a kept string beside it, exactly the link kept on
    its chain; and the best class tried is worth the best class of all.
    The nodes are sampled evenly from each rule's firings."""
    fired = {"capture": [], "decline": [], "handout": [], "chain": []}
    verdict_of, tried_of = _Searcher._verdict, _Searcher._tried

    def spy_verdict(g):
        verdict = verdict_of(g)
        t = verdict[0]
        if t is not None and verdict[1] is None:
            fired["capture"].append((g, g.signature(), set(g.signature()) - {t}, [t]))
        return verdict

    def spy_tried(self, g, moves, f, links):
        tried = tried_of(self, g, moves, f, links)
        left_out = set(moves) - set(tried)
        if f is not None:
            if left_out:
                fired["decline"].append((g, moves, left_out, tried))
            return tried
        chains = _Searcher._chain_skips(links, moves)
        if left_out - chains:
            fired["handout"].append((g, moves, left_out - chains, tried))
        if chains:
            fired["chain"].append((g, moves, chains, tried))
        return tried

    monkeypatch.setattr(_Searcher, "_verdict", staticmethod(spy_verdict))
    monkeypatch.setattr(_Searcher, "_tried", spy_tried)
    for family, param in _AUDIT_FAMILIES:
        solve(make(family, param))
    monkeypatch.undo()

    plain = SolveOptions(pruning=False, table=TranspositionTable())
    for rule, found in fired.items():
        sample = found[:: max(1, len(found) // 50)]
        assert len(sample) >= 50, (rule, len(found))
        for g, moves, left_out, tried in sample:
            sig = g.signature()
            worth = {}
            for t in sig:
                captured, succ = g._child(t[0], t[1])
                v = solve(succ, plain).differential
                worth[t] = captured + v if captured else -v
            assert max(worth[t] for t in tried) == max(worth.values()), (rule, sig)
            if rule == "decline":
                e = _forced(g)[0]
                for t in left_out:
                    assert worth[t] <= worth[e] - 2, (sig, e, t)
            elif rule == "handout":
                for t in left_out:
                    others = [s for v in t[:2] if g.incident_count(v) == 2 for s in sig if s != t and v in s[:2]]
                    assert any(worth[t] <= worth[s] for s in others), (sig, t)
            elif rule == "chain":
                on_chains = 0
                for links in _chains(g):
                    offered = [t for t in moves if t in links]
                    for t in offered[1:]:
                        assert t in left_out and worth[t] == worth[offered[0]], (sig, t)
                    on_chains += len(offered[1:])
                assert on_chains == len(left_out), sig
