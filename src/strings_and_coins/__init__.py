"""Exact solving and strategy verification for strings-and-coins.

Strings-and-coins is dots-and-boxes played on an arbitrary multigraph:
coins are vertices, strings are edges (loops allowed), cutting the last
string on a coin pockets it and grants another cut.  This package
represents positions as immutable loopy multigraphs, solves them exactly
by negamax with canonical-form memoization, and mechanically verifies
structural claims about graph families, including constructive mirror
strategies played against an exhaustive best-response adversary.
"""

from .canonical import KeyLimitError, are_isomorphic, canonical_key
from .claims import ClaimReport, UnknownClaimError, claim_ids, verify_all, verify_claim
from .families import FamilySpec, ParameterError, family_names, generate, make, parse_family
from .graph import EdgeRef, LoopyMultigraph, MoveOutcome, PositionError
from .io_cache import (
    CacheFormatError,
    CacheLoad,
    EdgeListFormatError,
    compact_cache,
    load_cache,
    parse_edge_list,
    read_edge_list,
    save_cache,
    write_edge_list,
)
from .solver import (
    DepthLimitError,
    EmptyPositionError,
    GameValue,
    SearchStats,
    SolveBudgetExceeded,
    SolveOptions,
    TranspositionTable,
    ValueConsistencyError,
    best_move,
    iter_table,
    scores_from_value,
    solve,
)
from .strategies import (
    OptimalPolicy,
    PairedMirrorPolicy,
    PolicyFault,
    balloon_mirror,
    best_response_value,
    doubled_graph,
    mirror_policy,
    quadrant_mirror_policy,
    quadrant_pairing,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeRef",
    "LoopyMultigraph",
    "MoveOutcome",
    "PositionError",
    "KeyLimitError",
    "are_isomorphic",
    "canonical_key",
    "FamilySpec",
    "ParameterError",
    "family_names",
    "generate",
    "make",
    "parse_family",
    "GameValue",
    "SearchStats",
    "SolveOptions",
    "SolveBudgetExceeded",
    "EmptyPositionError",
    "DepthLimitError",
    "ValueConsistencyError",
    "TranspositionTable",
    "best_move",
    "iter_table",
    "scores_from_value",
    "solve",
    "OptimalPolicy",
    "PairedMirrorPolicy",
    "PolicyFault",
    "balloon_mirror",
    "best_response_value",
    "doubled_graph",
    "mirror_policy",
    "quadrant_mirror_policy",
    "quadrant_pairing",
    "ClaimReport",
    "UnknownClaimError",
    "claim_ids",
    "verify_all",
    "verify_claim",
    "CacheFormatError",
    "CacheLoad",
    "EdgeListFormatError",
    "compact_cache",
    "load_cache",
    "parse_edge_list",
    "read_edge_list",
    "save_cache",
    "write_edge_list",
]
