"""Seeded random positions for the cache_session workload, and an
independent reference solver that checks the values the program reports.

The reference knows nothing about canonical keys, transposition tables or
pruning: it is a plain negamax memoised on the labelled position, kept as
a tuple of multiplicities over the position's fixed list of edge classes.
"""

from __future__ import annotations

import random
from collections import Counter

LOOP_CHANCE = 0.15


def random_corpus(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """``count`` edge lists of loopy multigraphs: 6-8 vertex ids, 8-11 edge
    instances, each a loop with probability ``LOOP_CHANCE``.  Parallel
    edges arise whenever a pair is drawn twice."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(6, 8)
        edges = []
        for _ in range(rng.randint(8, 11)):
            a = rng.randrange(n)
            if rng.random() < LOOP_CHANCE:
                edges.append((a, a))
            else:
                b = rng.randrange(n - 1)
                b += b >= a
                edges.append((min(a, b), max(a, b)))
        graphs.append(edges)
    return graphs


def edge_file_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{a} {b}\n" for a, b in edges)


def reference_value(edges: list[tuple[int, int]]) -> int:
    """Exact differential for the player to move: cutting a string that
    leaves a coin with no strings captures it and keeps the turn."""
    counts = Counter((min(a, b), max(a, b)) for a, b in edges)
    classes = sorted(counts)
    incident: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(classes):
        incident.setdefault(a, []).append(i)
        if a != b:
            incident.setdefault(b, []).append(i)
    ends = [(incident[a], incident[b] if a != b else None) for a, b in classes]
    memo: dict[tuple[int, ...], int] = {}

    def value(state: tuple[int, ...]) -> int:
        hit = memo.get(state)
        if hit is not None:
            return hit
        best = 0
        first = True
        for i, c in enumerate(state):
            if not c:
                continue
            nxt = list(state)
            nxt[i] = c - 1
            nxt = tuple(nxt)
            at_a, at_b = ends[i]
            captured = not any(nxt[j] for j in at_a)
            if at_b is not None and not any(nxt[j] for j in at_b):
                captured += 1
            v = captured + value(nxt) if captured else -value(nxt)
            if first or v > best:
                best = v
                first = False
        memo[state] = best
        return best

    return value(tuple(counts[c] for c in classes))
