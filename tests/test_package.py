"""The package root exports exactly the names listed here.

A name joins this list only together with a caller in the package, a demo
or ``snc``; anything else belongs in the module that defines it or in the
tests.
"""

import strings_and_coins

PUBLIC = [
    "CacheFormatError",
    "CacheLoad",
    "ClaimReport",
    "DepthLimitError",
    "EdgeListFormatError",
    "EdgeRef",
    "EmptyPositionError",
    "FamilySpec",
    "GameValue",
    "KeyLimitError",
    "LoopyMultigraph",
    "MoveOutcome",
    "OptimalPolicy",
    "PairedMirrorPolicy",
    "ParameterError",
    "PolicyFault",
    "PositionError",
    "SearchStats",
    "SolveBudgetExceeded",
    "SolveOptions",
    "TranspositionTable",
    "UnknownClaimError",
    "ValueConsistencyError",
    "are_isomorphic",
    "balloon_mirror",
    "best_move",
    "best_response_value",
    "canonical_key",
    "claim_ids",
    "compact_cache",
    "doubled_graph",
    "family_names",
    "generate",
    "iter_table",
    "load_cache",
    "make",
    "mirror_policy",
    "parse_edge_list",
    "parse_family",
    "quadrant_mirror_policy",
    "quadrant_pairing",
    "read_edge_list",
    "save_cache",
    "scores_from_value",
    "solve",
    "verify_all",
    "verify_claim",
    "write_edge_list",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert len(strings_and_coins.__all__) == len(set(strings_and_coins.__all__))
    assert sorted(strings_and_coins.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in strings_and_coins.__all__:
        assert getattr(strings_and_coins, name) is not None, name
