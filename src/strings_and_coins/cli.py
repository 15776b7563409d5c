"""Command-line front door: solve positions, build tables, verify claims.

Results go to standard output (JSON object per row, or TSV with a fixed
header); diagnostics go to standard error.  Exit codes: 0 success,
1 failed verification, 2 usage error or a position too large to key or
too deep to search, 3 time-budget abort.  The value cache defaults to
the path in ``SNC_CACHE`` when set; ``--no-memo`` neither reads nor
writes it.  ``solve``, ``bestmove`` and ``table`` append the values they
proved to the cache on every exit, a budget abort included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io_cache
from .canonical import KeyLimitError
from .claims import UnknownClaimError, claim_ids, verify_all, verify_claim
from .families import ParameterError, family_names, generate, parse_family
from .graph import LoopyMultigraph
from .solver import (
    DepthLimitError,
    GameValue,
    SolveBudgetExceeded,
    SolveOptions,
    TranspositionTable,
    best_move,
    iter_table,
    solve,
)

CACHE_ENV = "SNC_CACHE"

_FIELDS = ("family", "parameters", "winner", "p1", "p2", "differential", "nodes", "memo_hits", "elapsed_ms")


def _row(family: str, params: tuple[int, ...], gv: GameValue, extra: dict | None = None) -> dict:
    row = {
        "family": family,
        "parameters": ",".join(map(str, params)),
        "winner": gv.winner,
        "p1": gv.p1_score,
        "p2": gv.p2_score,
        "differential": gv.differential,
        "nodes": gv.stats.nodes,
        "memo_hits": gv.stats.memo_hits,
        "elapsed_ms": int(gv.stats.elapsed * 1000 + 0.5),
    }
    if extra:
        row = {**{k: row[k] for k in ("family", "parameters")}, **extra, **{k: row[k] for k in _FIELDS[2:]}}
    return row


class _Emitter:
    """Streams rows as JSON lines or TSV with one header."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self._header_done = False

    def emit(self, row: dict) -> None:
        if self.fmt == "json":
            self.out.write(json.dumps(row) + "\n")
        else:
            if not self._header_done:
                self.out.write("\t".join(row) + "\n")
                self._header_done = True
            self.out.write("\t".join(str(v) for v in row.values()) + "\n")
        self.out.flush()


def _load_position(args: argparse.Namespace) -> tuple[str, tuple[int, ...], LoopyMultigraph]:
    if args.family:
        name, raw = args.family[0], args.family[1:]
        try:
            params = tuple(int(p) for p in raw)
        except ValueError:
            raise ParameterError(f"family parameters must be integers, got {raw}")
        spec = parse_family(name, params)
        return spec.family, spec.params, generate(spec)
    g = io_cache.read_edge_list(args.edges)
    return "custom", (), g


def _solver_options(args: argparse.Namespace, err) -> tuple[str | None, SolveOptions]:
    """The value-cache path, or None, and the options for one solver
    command; with a path, the table is seeded from the cache file."""
    path = None if args.no_memo else args.cache or os.environ.get(CACHE_ENV) or None
    table = None
    if path is not None:
        table = TranspositionTable()
        if os.path.exists(path):
            loaded = io_cache.load_cache(path)
            table.seed(loaded.entries)
            if loaded.skipped:
                print(f"warning: {path}: skipped {loaded.skipped} corrupt record(s)", file=err)
    opts = SolveOptions(pruning=not args.no_prune, memo=not args.no_memo, table=table, time_budget=args.time_budget)
    return path, opts


def _flush_cache(path: str | None, table: TranspositionTable | None, err) -> None:
    if path is None or table is None:
        return
    fresh = table.fresh_exact_items()
    if fresh:
        io_cache.save_cache(path, fresh, append=True)
        print(f"cache: appended {len(fresh)} record(s) to {path}", file=err)


def _cmd_solve(args, out, err) -> int:
    family, params, g = _load_position(args)
    path, opts = _solver_options(args, err)
    try:
        gv = solve(g, opts)
        _Emitter(args.format, out).emit(_row(family, params, gv))
    except SolveBudgetExceeded as exc:
        print(f"aborted: {exc}", file=err)
        return 3
    finally:
        _flush_cache(path, opts.table, err)
    return 0


def _cmd_bestmove(args, out, err) -> int:
    family, params, g = _load_position(args)
    if g.edge_count == 0:
        print("error: position has no edges, no move to pick", file=err)
        return 2
    path, opts = _solver_options(args, err)
    try:
        ref, gv = best_move(g, opts)
        _Emitter(args.format, out).emit(_row(family, params, gv, extra={"move": f"{ref.u}-{ref.v}"}))
    except SolveBudgetExceeded as exc:
        print(f"aborted: {exc}", file=err)
        return 3
    finally:
        _flush_cache(path, opts.table, err)
    return 0


def _cmd_table(args, out, err) -> int:
    name, raw = args.family[0], args.family[1:]
    try:
        fixed = tuple(int(p) for p in raw)
    except ValueError:
        print(f"error: family parameters must be integers, got {raw}", file=err)
        return 2
    if args.start > args.stop:
        print(f"error: --from {args.start} exceeds --to {args.stop}", file=err)
        return 2
    path, opts = _solver_options(args, err)
    emitter = _Emitter(args.format, out)
    try:
        for spec, gv in iter_table(name, args.start, args.stop, opts, fixed):
            emitter.emit(_row(spec.family, spec.params, gv))
    except SolveBudgetExceeded as exc:
        p = exc.parameter
        label = parse_family(name, (p,) + fixed).label()
        print(f"aborted at {label}: {exc}; rows up to {p - 1} are complete", file=err)
        return 3
    finally:
        _flush_cache(path, opts.table, err)
    return 0


def _cmd_verify(args, out, err) -> int:
    reports = verify_all() if args.all else [verify_claim(args.claim)]
    failed = 0
    for rep in reports:
        print(f"{rep.claim_id}: {'PASS' if rep.passed else 'FAIL'}", file=out)
        for line in rep.lines:
            print(f"  {line}", file=out)
        if not rep.passed:
            failed += 1
            if rep.witness:
                print(f"  witness: {rep.witness}", file=out)
    if failed:
        print(f"{failed} claim(s) failed", file=err)
        return 1
    return 0


def _cmd_cache(args, out, err) -> int:
    try:
        before, after = io_cache.compact_cache(args.compact)
    except (OSError, io_cache.CacheFormatError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    print(f"compacted {args.compact}: {before} -> {after} record(s)", file=out)
    return 0


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--tsv", dest="format", action="store_const", const="tsv")
    p.set_defaults(format="tsv")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", metavar="PATH", help=f"value cache file (default: ${CACHE_ENV})")
    p.add_argument("--no-prune", action="store_true", help="disable alpha-beta windows")
    p.add_argument("--no-memo", action="store_true", help="disable the transposition table and the value cache")
    p.add_argument("--time-budget", type=float, metavar="SECONDS", help="abort after this long")


def _add_position_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--family",
        nargs="+",
        metavar=("NAME", "PARAM"),
        help="family token followed by its integer parameters",
    )
    src.add_argument("--edges", metavar="FILE", help="edge-list file, one 'u v' pair per line")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snc",
        description="Exact strings-and-coins solving on loopy multigraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one position")
    _add_position_flags(p)
    _add_format_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("table", help="solve a family over a parameter range")
    p.add_argument(
        "--family",
        nargs="+",
        required=True,
        metavar=("NAME", "FIXED"),
        help="family token; extra integers fill the non-varying parameters",
    )
    p.add_argument("--from", dest="start", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="stop", type=int, required=True, metavar="B")
    _add_format_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("bestmove", help="report an optimal move for a position")
    _add_position_flags(p)
    _add_format_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_bestmove)

    p = sub.add_parser("verify", help="run registered claims")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--claim", metavar="ID", help="one claim id")
    which.add_argument("--all", action="store_true", help="every registered claim")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cache", help="maintain a value-cache file")
    p.add_argument("--compact", required=True, metavar="PATH", help="drop duplicate and corrupt records")
    p.set_defaults(fn=_cmd_cache)

    return ap


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out, err)
    except UnknownClaimError as exc:
        print(f"error: {exc}", file=err)
        print(f"claims: {', '.join(claim_ids())}", file=err)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=err)
        if "available:" not in str(exc):
            print(f"families: {', '.join(family_names())}", file=err)
        return 2
    except (
        OSError,
        io_cache.EdgeListFormatError,
        io_cache.CacheFormatError,
        KeyLimitError,
        DepthLimitError,
    ) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run())
