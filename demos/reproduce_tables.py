"""Regenerate the bundled reference tables for every graph family.

Run:  python3 demos/reproduce_tables.py            (desk-scale set, ~1 min)
      python3 demos/reproduce_tables.py --extended (adds the slow rows)
"""

import argparse
import time

from strings_and_coins import SolveOptions, TranspositionTable, iter_table

TABLES = [
    ("friendship graphs", "friendship", 1, 8, ()),
    ("pinwheel graphs", "pinwheel", 1, 8, ()),
    ("loopy stars", "loopy_star", 1, 12, ()),
    ("double loopy stars", "generalized_loopy_star", 1, 12, (2,)),
    ("wheels", "wheel", 3, 10, ()),
    ("ferris wheels", "ferris_wheel", 3, 11, ()),
    ("balloon paths", "balloon_path", 3, 13, ()),
    ("complete graphs", "complete", 2, 8, ()),
    ("hypercubes", "hypercube", 1, 3, ()),
    ("prisms", "prism", 3, 8, ()),
    ("petersen graph", "petersen", 0, 0, None),
]

EXTENDED = [
    ("wheels (extended)", "wheel", 11, 12, ()),
    ("prisms (extended)", "prism", 9, 10, ()),
]


def print_table(title, family, lo, hi, fixed, opts):
    print(f"-- {title} --")
    t0 = time.perf_counter()
    if fixed is None:  # parameterless family
        from strings_and_coins import make, solve

        gv = solve(make(family), opts)
        print(f"  {family:12s} {gv.winner:3s} ({gv.p1_score}-{gv.p2_score})")
    else:
        for spec, gv in iter_table(family, lo, hi, opts, fixed=fixed):
            label = f"{family}({spec.params[0]})"
            print(f"  {label:12s} {gv.winner:3s} ({gv.p1_score}-{gv.p2_score})")
    print(f"  [{time.perf_counter() - t0:.2f}s]")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--extended", action="store_true", help="include the slow rows")
    args = ap.parse_args()

    opts = SolveOptions(table=TranspositionTable())
    jobs = TABLES + (EXTENDED if args.extended else [])
    for title, family, lo, hi, fixed in jobs:
        print_table(title, family, lo, hi, fixed, opts)


if __name__ == "__main__":
    main()
