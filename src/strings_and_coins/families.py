"""Named graph families used throughout the toolkit.

Every family builds a concrete ``LoopyMultigraph`` on the vertex ids
0..n-1 with a fixed, documented layout, so results are reproducible and
positions can be cross-referenced by label.  ``parse_family`` validates
a (name, parameters) pair into a ``FamilySpec``; ``generate`` builds the
graph, and ``counts`` gives its string and coin counts without building it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import LoopyMultigraph


class ParameterError(ValueError):
    """Family parameters outside the family's domain."""


@dataclass(frozen=True)
class FamilySpec:
    """A validated family instance: token plus integer parameters."""

    family: str
    params: tuple[int, ...]

    def label(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({', '.join(map(str, self.params))})"


def _complete(n: int) -> list[tuple[int, int]]:
    """K_n: all pairs among 0..n-1.  K_1 has no edges, hence no position."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    """K_{a,b}: parts 0..a-1 and a..a+b-1."""
    return [(i, a + j) for i in range(a) for j in range(b)]


def _cycle(n: int) -> list[tuple[int, int]]:
    """C_n: ring 0..n-1.  C_1 is a single loop, C_2 a doubled edge."""
    if n == 1:
        return [(0, 0)]
    if n == 2:
        return [(0, 1), (0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n: int) -> list[tuple[int, int]]:
    """P_n on n vertices.  P_1 has no edges."""
    return [(i, i + 1) for i in range(n - 1)]


def _friendship(n: int) -> list[tuple[int, int]]:
    """F_n: n triangles sharing vertex 0; triangle i uses 2i+1, 2i+2."""
    edges = []
    for i in range(n):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return edges


def _pinwheel(n: int) -> list[tuple[int, int]]:
    """PW_n: n squares sharing vertex 0; square i runs 0, 3i+1, 3i+2, 3i+3."""
    edges = []
    for i in range(n):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (b, c), (0, c)]
    return edges


def _loopy_star(n: int) -> list[tuple[int, int]]:
    """L_n: center 0 joined to n leaves, one loop per leaf."""
    edges = []
    for i in range(1, n + 1):
        edges += [(0, i), (i, i)]
    return edges


def _generalized_loopy_star(x: int, y: int) -> list[tuple[int, int]]:
    """L(x, y): center 0 joined to x leaves, y loops per leaf."""
    edges = []
    for i in range(1, x + 1):
        edges.append((0, i))
        edges += [(i, i)] * y
    return edges


def _loopy_starlike(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """L(n, m, k): n paths of k vertices each (center included) from
    center 0, with m loops on each path's far end."""
    edges = []
    for b in range(n):
        prev = 0
        for step in range(1, k):
            v = b * (k - 1) + step
            edges.append((prev, v))
            prev = v
        edges += [(prev, prev)] * m
    return edges


def _loopy_cycle(n: int, k: int) -> list[tuple[int, int]]:
    """C(n, k): cycle 0..n-1 with one loop on each of vertices 0..k-1."""
    return _cycle(n) + [(i, i) for i in range(k)]


def _wheel(s: int) -> list[tuple[int, int]]:
    """W_s: hub 0, rim cycle 1..s, one spoke to each rim vertex."""
    edges = [(0, i) for i in range(1, s + 1)]
    edges += [(i, i + 1) for i in range(1, s)]
    edges.append((1, s))
    return edges


def _ferris_wheel(n: int) -> list[tuple[int, int]]:
    """FW_n: cycle 0..n-1 with one loop on every vertex."""
    return _loopy_cycle(n, n)


def _balloon_path(n: int) -> list[tuple[int, int]]:
    """BP_n: path 0..n-1 with one loop on every vertex."""
    return _path(n) + [(i, i) for i in range(n)]


def _hypercube(d: int) -> list[tuple[int, int]]:
    """Q_d on 0..2^d-1; edges join ids at Hamming distance one."""
    edges = []
    for x in range(1 << d):
        for bit in range(d):
            y = x ^ (1 << bit)
            if x < y:
                edges.append((x, y))
    return edges


def _prism(n: int) -> list[tuple[int, int]]:
    """Y_n: outer cycle 0..n-1, inner cycle n..2n-1, rungs (i, n+i)."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    inner = [(n + i, n + (i + 1) % n) for i in range(n)]
    rungs = [(i, n + i) for i in range(n)]
    return outer + inner + rungs


def _petersen() -> list[tuple[int, int]]:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes (i, i+5)."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return outer + inner + spokes


def _edge_list_params(params: tuple[int, ...], want_tree: bool) -> list[tuple[int, int]]:
    if len(params) < 2 or len(params) % 2 != 0:
        raise ParameterError("edge-list families take an even number of vertex ids (u1 v1 u2 v2 ...)")
    if any(p < 0 for p in params):
        raise ParameterError("vertex ids must be non-negative")
    edges = [(params[i], params[i + 1]) for i in range(0, len(params), 2)]
    if want_tree:
        g = LoopyMultigraph.from_edges(edges)
        n = g.vertex_count
        # a forest with n - 1 strings on n coins has exactly one component
        if g.edge_count != n - 1 or not g.is_forest():
            raise ParameterError("tree edge list must form a single connected acyclic graph")
    return edges


# name -> (arity, minimums per position, builder, counts); arity None =
# even-length edge list.  ``counts`` gives the (strings, coins) that the
# builder's position has, from the parameters alone
_FAMILIES: dict = {
    "complete": (1, (1,), _complete, lambda n: (n * (n - 1) // 2, n if n > 1 else 0)),
    "complete_bipartite": (2, (1, 1), _complete_bipartite, lambda a, b: (a * b, a + b)),
    "cycle": (1, (1,), _cycle, lambda n: (n, n)),
    "path": (1, (1,), _path, lambda n: (n - 1, n if n > 1 else 0)),
    "tree": (None, None, None, None),
    "friendship": (1, (1,), _friendship, lambda n: (3 * n, 2 * n + 1)),
    "pinwheel": (1, (1,), _pinwheel, lambda n: (4 * n, 3 * n + 1)),
    "loopy_star": (1, (1,), _loopy_star, lambda n: (2 * n, n + 1)),
    "generalized_loopy_star": (2, (1, 1), _generalized_loopy_star, lambda x, y: (x * (y + 1), x + 1)),
    "loopy_starlike": (3, (1, 1, 2), _loopy_starlike, lambda n, m, k: (n * (k - 1 + m), n * (k - 1) + 1)),
    "loopy_cycle": (2, (1, 1), _loopy_cycle, lambda n, k: (n + k, n)),
    "wheel": (1, (3,), _wheel, lambda s: (2 * s, s + 1)),
    "ferris_wheel": (1, (1,), _ferris_wheel, lambda n: (2 * n, n)),
    "balloon_path": (1, (1,), _balloon_path, lambda n: (2 * n - 1, n)),
    "hypercube": (1, (1,), _hypercube, lambda d: (d << (d - 1), 1 << d)),
    "prism": (1, (3,), _prism, lambda n: (3 * n, 2 * n)),
    "petersen": (0, (), _petersen, lambda: (15, 10)),
    "custom": (None, None, None, None),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def parse_family(name: str, params: list[int] | tuple[int, ...]) -> FamilySpec:
    """Validate a family token and its parameters into a ``FamilySpec``."""
    if name not in _FAMILIES:
        raise ParameterError(
            f"unknown family {name!r}; available: {', '.join(family_names())}"
        )
    params = tuple(int(p) for p in params)
    arity, mins, _, _ = _FAMILIES[name]
    if arity is None:
        _edge_list_params(params, want_tree=(name == "tree"))
        return FamilySpec(name, params)
    if len(params) != arity:
        raise ParameterError(f"{name} takes {arity} parameter(s), got {len(params)}")
    for p, lo in zip(params, mins):
        if p < lo:
            raise ParameterError(f"{name} parameter {p} below minimum {lo}")
    if name == "loopy_cycle" and params[1] > params[0]:
        raise ParameterError(f"loopy_cycle needs k <= n, got k={params[1]}, n={params[0]}")
    return FamilySpec(name, params)


def is_edge_list(spec: FamilySpec) -> bool:
    """Whether ``spec``'s parameters are vertex ids (``tree``, ``custom``)
    rather than sizes."""
    return _FAMILIES[spec.family][0] is None


def counts(spec: FamilySpec) -> tuple[int, int]:
    """The (strings, coins) of ``generate(spec)``, without building it."""
    arity, _, _, count = _FAMILIES[spec.family]
    if arity is None:
        return len(spec.params) // 2, len(set(spec.params))
    return count(*spec.params)


def generate(spec: FamilySpec) -> LoopyMultigraph:
    """Build the graph for a validated ``FamilySpec``."""
    arity, _, builder, _ = _FAMILIES[spec.family]
    if arity is None:
        edges = _edge_list_params(spec.params, want_tree=(spec.family == "tree"))
    else:
        edges = builder(*spec.params)
    return LoopyMultigraph.from_edges(edges)


def make(name: str, *params: int) -> LoopyMultigraph:
    """Shorthand: ``make("wheel", 5)`` == ``generate(parse_family("wheel", [5]))``."""
    return generate(parse_family(name, params))
