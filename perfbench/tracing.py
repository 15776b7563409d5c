"""Spans around the package's layer boundaries, for traced runs only.

``install`` replaces module and class attributes of the imported package
with timing wrappers; no source file is touched.  A name bound with
``from .x import y`` is replaced where its caller looks it up too (``cli``
binds ``solve``, ``generate`` and ``io_cache`` functions that way or by
module attribute).

Every wrapped call opens a span (name, start, end, parent span).  The first
``SPAN_CAP`` spans are kept in memory and written out when the run ends;
beyond that only the per-boundary aggregates grow.  A span's self time is
its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN_CAP = 50_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.dropped = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start new aggregates; recorded spans are kept."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: set[bytes] = set()
        self.tables: list = []

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None, also=()) -> None:
        """Replace ``owner.attr`` (and the same name on each of ``also``)
        with one traced wrapper."""
        wrapped = self.wrap(name, getattr(owner, attr), on_result)
        for target in (owner, *also):
            self._undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def table_entries(self) -> int:
        """Entries in the tables created since the last call; drops them."""
        n = sum(len(t) for t in self.tables)
        self.tables.clear()
        return n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans, "dropped": self.dropped}, fh)


def install(tracer: Tracer, pkg) -> None:
    """Wrap the boundaries of the solver, canonical, graph, io_cache, cli,
    strategies and families layers of the package namespace ``pkg``."""
    solver, canonical, graph, io_cache = pkg.solver, pkg.canonical, pkg.graph, pkg.io_cache

    def on_solve(_args, gv):
        tracer.counts["solver.nodes"] += gv.stats.nodes
        tracer.counts["solver.memo_hits"] += gv.stats.memo_hits

    def on_get(_args, hit):
        if hit is not None:
            tracer.counts["solver.table_hits"] += 1

    def on_key(_args, key):
        tracer.keys.add(key)

    def on_load(_args, loaded):
        tracer.counts["io_cache.records_loaded"] += len(loaded.entries)
        tracer.counts["io_cache.records_skipped"] += loaded.skipped

    def on_save(_args, written):
        tracer.counts["io_cache.records_saved"] += written

    table_cls = solver.TranspositionTable
    table_init = table_cls.__init__

    def init(table, *args, **kwargs):
        table_init(table, *args, **kwargs)
        tracer.tables.append(table)

    tracer._undo.append((table_cls, "__init__", table_init))
    table_cls.__init__ = init

    tracer.patch(solver, "solve", "solver.solve", on_solve, also=(pkg.cli,))
    tracer.patch(table_cls, "get", "solver.table_get", on_get)
    tracer.patch(table_cls, "put", "solver.table_put")
    tracer.patch(canonical, "canonical_key", "canonical.key", on_key)
    tracer.patch(graph.LoopyMultigraph, "_child", "graph.child")
    tracer.patch(graph.LoopyMultigraph, "remove_edge", "graph.remove")
    tracer.patch(pkg.strategies, "best_response_value", "strategies.best_response")
    tracer.patch(io_cache, "load_cache", "io_cache.load", on_load)
    tracer.patch(io_cache, "save_cache", "io_cache.save", on_save)
    tracer.patch(io_cache, "read_edge_list", "io_cache.read")
    tracer.patch(io_cache, "parse_edge_list", "io_cache.parse")
    tracer.patch(pkg.cli, "run", "cli.run")
    tracer.patch(pkg.families, "generate", "families.generate", also=(pkg.cli,))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the aggregates since the last ``reset``."""
    calls, total, self_time, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    gets = calls["solver.table_get"]
    key_calls = calls["canonical.key"]
    return {
        "solver.nodes": counts["solver.nodes"],
        "solver.memo_hits": counts["solver.memo_hits"],
        "solver.self_s": self_time["solver.solve"],
        "solver.table_gets": gets,
        "solver.table_hits": counts["solver.table_hits"],
        "solver.table_hit_ratio": counts["solver.table_hits"] / gets if gets else 0.0,
        "solver.table_puts": calls["solver.table_put"],
        "solver.table_entries": counts["solver.table_entries"],
        "canonical.key_calls": key_calls,
        "canonical.key_s": total["canonical.key"],
        "canonical.key_distinct": len(tracer.keys),
        "canonical.key_reuse_ratio": 1 - len(tracer.keys) / key_calls if key_calls else 0.0,
        "graph.child_calls": calls["graph.child"],
        "graph.child_s": total["graph.child"],
        "graph.remove_calls": calls["graph.remove"],
        "graph.remove_s": total["graph.remove"],
        "strategies.best_response_s": total["strategies.best_response"],
        "io_cache.load_calls": calls["io_cache.load"],
        "io_cache.load_s": total["io_cache.load"],
        "io_cache.records_loaded": counts["io_cache.records_loaded"],
        "io_cache.records_skipped": counts["io_cache.records_skipped"],
        "io_cache.save_s": total["io_cache.save"],
        "io_cache.records_saved": counts["io_cache.records_saved"],
        "io_cache.parse_s": total["io_cache.parse"],
        "cli.calls": calls["cli.run"],
        "cli.run_s": total["cli.run"],
        # cli.run's own time: everything but io_cache reads/loads/saves and solve
        "cli.other_s": self_time["cli.run"],
    }
