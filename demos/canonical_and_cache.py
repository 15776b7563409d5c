"""How canonical keys collapse the search, and how values persist.

Run:  python3 demos/canonical_and_cache.py
"""

import os
import random
import tempfile

from strings_and_coins import (
    LoopyMultigraph,
    SolveOptions,
    TranspositionTable,
    canonical_key,
    load_cache,
    make,
    save_cache,
    solve,
)
from strings_and_coins.canonical import are_isomorphic, move_classes


def relabeled(g, rng):
    mapping = dict(zip(g.vertices, rng.sample(range(100), g.vertex_count)))
    edges = []
    for ref, mult in g.edge_pairs():
        edges.extend([(mapping[ref.u], mapping[ref.v])] * mult)
    return LoopyMultigraph.from_edges(edges)


def main():
    rng = random.Random(1)

    print("== One key per isomorphism class ==")
    g = make("friendship", 3)
    key = canonical_key(g)
    print(f"friendship(3) key: {key.hex()[:36]}... ({len(key)} bytes)")
    for i in range(3):
        h = relabeled(g, rng)
        print(f"  relabeling {i + 1}: same key? {canonical_key(h) == key}")
    square, grid = make("cycle", 4), make("complete_bipartite", 2, 2)
    print(f"C4 vs K(2,2): isomorphic? {are_isomorphic(square, grid)},"
          f" keys equal? {canonical_key(square) == canonical_key(grid)}")
    print()

    print("== Move classes; options change the work, not the value ==")
    g = LoopyMultigraph.from_edges([(0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 2)])
    print(f"  {g!r}: {g.edge_count} strings -> {len(g.distinct_moves())} move classes")
    k6 = make("complete", 6)
    tried = move_classes(k6)
    print(f"  complete(6): {len(k6.distinct_moves())} move classes, one orbit;"
          f" search tries {len(tried)}: {', '.join(f'{a}-{b}' for a, b, _ in tried)}")
    for label, opts in [("default", SolveOptions()), ("no pruning", SolveOptions(pruning=False))]:
        gv = solve(make("complete", 6), opts)
        print(f"  solving complete(6), {label:10s}: {gv.stats.nodes} nodes,"
              f" {gv.stats.symmetric_skips} classes skipped by symmetry, value {gv.differential:+d}")
    print()

    print("== Persisting proven values ==")
    with tempfile.TemporaryDirectory() as tmp:  # also holds the save's lock and index files
        path = os.path.join(tmp, "values.snc")
        table = TranspositionTable()
        cold = solve(make("complete", 7), SolveOptions(table=table))
        n = save_cache(path, dict(table.fresh_exact_items()))
        print(f"cold solve of complete(7): {cold.stats.nodes} nodes; {n} record(s) saved")

        warm_table = TranspositionTable()
        warm_table.seed(load_cache(path).entries)
        warm = solve(make("complete", 7), SolveOptions(table=warm_table))
        print(f"warm solve from {os.path.basename(path)}: {warm.stats.nodes} nodes,"
              f" {warm.stats.memo_hits} memo hit(s), same score ({warm.p1_score}-{warm.p2_score})")


if __name__ == "__main__":
    main()
