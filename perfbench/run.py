#!/usr/bin/env python3
"""Solver benchmark: four workloads that load different layers of the package.

Run from the repository root:

    python3 perfbench/run.py --workload keying_blocks --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``keying_blocks``  cold solves of block trees with few search nodes
                     (canonical keying dominates);
* ``dense_search``   cold solves of dense symmetric graphs (negamax,
                     transposition table and keying per node);
* ``loopy_chains``   cold solves of loopy chains and cycles plus a mirror
                     best-response check (child generation, edge removal);
* ``cache_session``  ``snc solve --edges F --cache C --json`` over a seeded
                     corpus sharing one growing value cache (io_cache, cli).

One pass runs every operation of the workload once, each from a cold
start.  The run repeats passes until the next one would end after
``--seconds`` (at least two) and reports, per operation, the median over
passes.  Every operation's result is checked; the last stdout line is one
JSON object.  With ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "strings_and_coins"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2027

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_PROBES = 7

# (family, parameter, winner, P1 score, P2 score): rows of the paper's
# acceptance tables.  Sizes are scaled down from the sizes first proposed
# for these workloads, so that one pass takes a few seconds and a run
# holds several.
FAMILY_ROWS = {
    "keying_blocks": [
        ("pinwheel", 7, "P2", 10, 12),
        ("friendship", 7, "P2", 6, 9),
        ("loopy_star", 12, "P2", 5, 8),
    ],
    "dense_search": [
        ("complete", 7, "P2", 2, 5),
        ("prism", 6, "P2", 4, 8),
        ("wheel", 9, "P2", 4, 6),
    ],
    "loopy_chains": [
        ("balloon_path", 11, "P1", 6, 5),
        ("ferris_wheel", 10, "Tie", 5, 5),
    ],
}
# best_response_value(*balloon_mirror(12), "P1") in loopy_chains must be at
# least 0 (the balloon_even_tie claim) and at most the exact value of
# balloon_path(12), which is 0 (Tie 6-6 in the acceptance table).
MIRROR_LENGTH = 12
MIRROR_RANGE = (0, 0)

CORPUS_SIZE = 500

WORKLOADS = ("keying_blocks", "dense_search", "loopy_chains", "cache_session")

# counts that must repeat exactly for a fixed seed and source
DETERMINISTIC = (
    "solver.nodes",
    "solver.table_puts",
    "canonical.key_calls",
    "graph.child_calls",
    "io_cache.records_loaded",
    "io_cache.records_saved",
)

# cold canonical_key micro-benchmarks: (metric suffix, family, parameter)
COLD_KEYS = (
    ("friendship_10", "friendship", 10),
    ("loopy_star_12", "loopy_star", 12),
    ("complete_10", "complete", 10),
    ("hypercube_4", "hypercube", 4),
)
COLD_KEY_REPEATS = 5

# Machine-speed calibration.  On a shared machine the speed a Python loop
# gets drifts by tens of percent within seconds to minutes, and every
# workload drifts with it.  Around operations, at most every CAL_EVERY_S,
# a run times a fixed loop that never touches the package; each operation's
# time is also reported rescaled, by the mean of the loop times just before
# and just after it, to the speed at which the loop takes CAL_REF_S.  A
# change to the program moves the rescaled time by the same factor as the
# raw time.
CAL_REF_S = 0.04
CAL_EVERY_S = 0.5


def load_package() -> types.SimpleNamespace:
    """Import the package from ``src``.  Callers look functions up on these
    modules at call time, so traced wrappers installed later are used."""
    sys.path.insert(0, str(SRC))
    import strings_and_coins  # noqa: F401
    from strings_and_coins import canonical, cli, families, graph, io_cache, solver, strategies

    return types.SimpleNamespace(
        canonical=canonical,
        cli=cli,
        families=families,
        graph=graph,
        io_cache=io_cache,
        solver=solver,
        strategies=strategies,
    )


def fresh_copy(pkg, g):
    """The same labelled position as a new object, with no cached key."""
    edges = [(ref.u, ref.v) for ref, m in g.edge_pairs() for _ in range(m)]
    return pkg.graph.LoopyMultigraph.from_edges(edges)


# -- operations ---------------------------------------------------------------


class SolveOp:
    def __init__(self, pkg, family, param, winner, p1, p2):
        self.pkg = pkg
        self.label = f"{family}({param})"
        self.position = pkg.families.generate(pkg.families.parse_family(family, (param,)))
        self.expected = (winner, p1, p2)

    def prepare(self):
        self.pkg.canonical.clear_caches()
        self.arg = fresh_copy(self.pkg, self.position)

    def call(self):
        return self.pkg.solver.solve(self.arg)

    def check(self, gv):
        got = (gv.winner, gv.p1_score, gv.p2_score)
        return None if got == self.expected else f"solve {self.label}: got {got}, want {self.expected}"


class MirrorOp:
    def __init__(self, pkg, n):
        self.pkg = pkg
        self.label = f"balloon_mirror({n})"
        self.position, self.policy = pkg.strategies.balloon_mirror(n)

    def prepare(self):
        self.pkg.canonical.clear_caches()
        self.arg = fresh_copy(self.pkg, self.position)

    def call(self):
        return self.pkg.strategies.best_response_value(self.arg, self.policy, "P1")

    def check(self, value):
        lo, hi = MIRROR_RANGE
        return None if lo <= value <= hi else f"{self.label}: best response {value} outside [{lo}, {hi}]"


class CliOp:
    """One ``snc solve`` call in process, sharing one cache file with the other calls."""

    def __init__(self, pkg, path, cache, expected):
        self.pkg = pkg
        self.label = Path(path).name
        self.argv = ["solve", "--edges", str(path), "--cache", str(cache), "--json"]
        self.vertices = pkg.io_cache.read_edge_list(str(path)).vertex_count
        self.expected = expected

    def prepare(self):
        # each call behaves like a separate snc process
        self.pkg.canonical.clear_caches()
        self.out, self.err = io.StringIO(), io.StringIO()

    def call(self):
        return self.pkg.cli.run(self.argv, self.out, self.err)

    def check(self, code):
        if code != 0:
            return f"{self.label}: exit code {code}: {self.err.getvalue().strip()}"
        if "skipped" in self.err.getvalue():
            return f"{self.label}: cache load skipped records: {self.err.getvalue().strip()}"
        row = json.loads(self.out.getvalue())
        got = (row["differential"], row["p1"] + row["p2"])
        want = (self.expected, self.vertices)
        return None if got == want else f"{self.label}: (differential, coins) {got}, want {want}"


class Workload:
    def __init__(self, ops, cache=None):
        self.ops = ops
        self.cache = cache

    def begin_pass(self):
        if self.cache is not None and self.cache.exists():
            self.cache.unlink()

    def cache_bytes(self):
        return self.cache.stat().st_size if self.cache is not None and self.cache.exists() else 0


def write_fixtures(name, seed, tmp):
    """cache_session's edge files; None for the family workloads."""
    if name != "cache_session":
        return None
    from corpus import edge_file_text, random_corpus

    fixtures = []
    for i, edges in enumerate(random_corpus(seed, CORPUS_SIZE)):
        path = tmp / f"g{i:04d}.edges"
        path.write_text(edge_file_text(edges), encoding="utf-8")
        fixtures.append((path, edges))
    return fixtures


def build_workload(pkg, name, tmp, fixtures, expected):
    """The set-up that setup_s times: build every position of the workload
    with ``families.generate`` or the edge-list parser."""
    if name == "cache_session":
        cache = tmp / "values.snc"
        ops = [CliOp(pkg, path, cache, want) for (path, _), want in zip(fixtures, expected)]
        return Workload(ops, cache)
    ops = [SolveOp(pkg, *row) for row in FAMILY_ROWS[name]]
    if name == "loopy_chains":
        ops.append(MirrorOp(pkg, MIRROR_LENGTH))
    return Workload(ops)


def reference_values(fixtures):
    if fixtures is None:
        return None
    from corpus import reference_value

    return [reference_value(edges) for _, edges in fixtures]


# -- measurement ---------------------------------------------------------------


def calibration_loop():
    """Dict, tuple, sort and recursive list-copy traffic like the solver's,
    on fixed data."""
    acc = 0
    for r in range(160):
        adj = [{(i * 7 + j * 3 + r) % 50: j + 1 for j in range(4)} for i in range(50)]
        colors = [i % 5 for i in range(50)]
        sigs = [(colors[i], tuple(sorted((colors[j], m) for j, m in adj[i].items()))) for i in range(50)]
        acc += len(sorted(set(sigs)))

    def branch(cols, depth):
        if depth == 0:
            return len(tuple(sorted(cols)))
        total = 0
        for v in range(3):
            child = cols[:]
            child[v] = (child[v] * 31 + depth) % 97
            total += branch(child, depth - 1)
        return total

    for r in range(6):
        acc += branch(list(range(r, r + 12)), 6)
    return acc


class Calibration:
    def __init__(self):
        self.latest = CAL_REF_S
        self._due = 0.0

    def maybe_sample(self):
        if time.perf_counter() >= self._due:
            t0 = time.perf_counter()
            calibration_loop()
            self.latest = time.perf_counter() - t0
            self._due = time.perf_counter() + CAL_EVERY_S

    def normalise(self, seconds, before):
        """``seconds`` at the reference speed, given the loop time
        ``before`` the operation and the latest one after it."""
        self.maybe_sample()
        return seconds * CAL_REF_S / ((before + self.latest) / 2)


def run_pass(workload, errors, calibration, tracer=None):
    """Run every operation once; returns the seconds each took, the same
    rescaled to the reference machine speed, and the number that failed."""
    workload.begin_pass()
    times, normalised = [], []
    failed = 0
    for op in workload.ops:
        calibration.maybe_sample()
        before = calibration.latest
        op.prepare()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            result = None
            failed += 1
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        normalised.append(calibration.normalise(elapsed, before))
        if result is not None:
            problem = op.check(result)
            if problem:
                failed += 1
                errors.append(problem)
        if tracer is not None:
            tracer.counts["solver.table_entries"] += tracer.table_entries()
    return times, normalised, failed


def run_passes(workload, seconds, min_passes, errors, tracer=None, on_pass=None):
    """Repeat passes, at least ``min_passes``, until the next one would end
    after ``seconds``.  Returns (wall_s, wall_norm_s, passes, attempted,
    failed).  Each time is a sum over operations of the operation's median
    over the passes, so a burst of load elsewhere on the machine moves it
    less than it moves a pass total."""
    calibration = Calibration()
    raw, norm = [], []
    failed = 0
    start = time.perf_counter()
    while True:
        times, normalised, f = run_pass(workload, errors, calibration, tracer)
        raw.append(times)
        norm.append(normalised)
        failed += f
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        if len(raw) >= min_passes and elapsed + statistics.median(map(sum, raw)) > seconds:
            break

    def per_op_median_sum(passes):
        return sum(statistics.median(op_times) for op_times in zip(*passes))

    return per_op_median_sum(raw), per_op_median_sum(norm), len(raw), len(raw) * len(workload.ops), failed


def setup_seconds(name, seed, fixtures_dir):
    """Median time from launching a fresh interpreter to the end of the
    workload's set-up, over ``SETUP_PROBES`` launches."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--setup-probe", str(fixtures_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def cold_key_ms(pkg):
    out = {}
    for suffix, family, param in COLD_KEYS:
        samples = []
        for _ in range(COLD_KEY_REPEATS):
            g = pkg.families.generate(pkg.families.parse_family(family, (param,)))
            pkg.canonical.clear_caches()
            t0 = time.perf_counter()
            pkg.canonical.canonical_key(g)
            samples.append((time.perf_counter() - t0) * 1000)
        out[f"canonical.cold_key_ms.{suffix}"] = statistics.median(samples)
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_across_runs(name, seed, counts, errors):
    """Compare with the counts an earlier run of the same source and seed
    recorded in this checkout; record them if none did."""
    folder = WORK / "counts"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{name}-seed{seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        for k, v in counts.items():
            if before.get(k) != v:
                errors.append(f"count drift across runs: {k} {before.get(k)} -> {v}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def measure_untraced(pkg, args, workload, tmp, errors):
    """End-to-end metrics, plus the raw wall time, which is printed but not
    reported: on a shared machine it drifts too much to hold a bound."""
    setup_s = setup_seconds(args.workload, args.seed, tmp)
    wall, wall_norm, passes, attempted, failed = run_passes(workload, args.seconds, MIN_PASSES, errors)
    metrics = {
        "wall_norm_s": (wall_norm, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"wall_s": (wall, "s")}, attempted, failed, passes


def measure_traced(pkg, args, workload_args, errors):
    import tracing

    _, untraced_wall, _, attempted, failed = run_passes(
        build_workload(pkg, *workload_args), 0, MIN_TRACED_PASSES, errors)
    micro = cold_key_ms(pkg)

    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    layers = []

    def on_pass():
        layer = tracing.layer_metrics(tracer)
        layer["io_cache.file_bytes"] = workload.cache_bytes()
        layers.append(layer)
        tracer.reset()

    try:
        workload = build_workload(pkg, *workload_args)
        generate_s = tracer.total["families.generate"]
        tracer.reset()
        _, traced_wall, passes, n, f = run_passes(
            workload, args.seconds, MIN_TRACED_PASSES, errors, tracer, on_pass)
        attempted += n
        failed += f
    finally:
        tracer.uninstall()
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")

    first = layers[0]
    counts = {k: first[k] for k in DETERMINISTIC}
    for i, layer in enumerate(layers[1:], 2):
        for k in DETERMINISTIC:
            if layer[k] != first[k]:
                errors.append(f"count drift between passes: {k} pass 1 {first[k]}, pass {i} {layer[k]}")
    check_counts_across_runs(args.workload, args.seed, counts, errors)

    metrics = {}
    for k, v in first.items():
        if isinstance(v, float):
            v = statistics.median(layer[k] for layer in layers)
        metrics[k] = v
    metrics.update(micro)
    metrics["families.generate_s"] = generate_s
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, {}, attempted, failed, passes


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("canonical.cold_key_ms."):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "io_cache.file_bytes":
        return "bytes"
    return "count"


def setup_probe(args):
    """Child of ``setup_seconds``: set up, then print the monotonic clock."""
    pkg = load_package()
    fixtures_dir = Path(args.setup_probe)
    fixtures = None
    if args.workload == "cache_session":
        fixtures = [(p, None) for p in sorted(fixtures_dir.glob("g*.edges"))]
    build_workload(pkg, args.workload, fixtures_dir, fixtures, [None] * CORPUS_SIZE)
    print(time.monotonic())
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"corpus seed for cache_session (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        pkg = load_package()
        fixtures = write_fixtures(args.workload, args.seed, tmp)
        expected = reference_values(fixtures)
        errors: list[str] = []
        if args.trace:
            metrics, printed, attempted, failed, passes = measure_traced(
                pkg, args, (args.workload, tmp, fixtures, expected), errors)
        else:
            workload = build_workload(pkg, args.workload, tmp, fixtures, expected)
            metrics, printed, attempted, failed, passes = measure_untraced(pkg, args, workload, tmp, errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in errors[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in {**printed, **metrics}.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={passes}: {shown} "
          f"failed_share={failed / attempted:.6g} ratio ({failed}/{attempted})")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
