"""Family generators: shapes, identities between families, validation."""

import itertools

import pytest

from strings_and_coins import families
from strings_and_coins.canonical import are_isomorphic, canonical_key
from strings_and_coins.families import (
    FamilySpec,
    ParameterError,
    family_names,
    generate,
    make,
    parse_family,
)


def counts(g):
    return g.vertex_count, g.edge_count


def test_complete_graphs():
    assert counts(make("complete", 1)) == (0, 0)  # lone vertex has no edges
    assert counts(make("complete", 4)) == (4, 6)
    assert counts(make("complete", 7)) == (7, 21)


def test_complete_bipartite():
    g = make("complete_bipartite", 2, 3)
    assert counts(g) == (5, 6)
    assert sorted(g.incident_count(v) for v in g.vertices) == [2, 2, 2, 3, 3]
    assert are_isomorphic(make("complete_bipartite", 2, 2), make("cycle", 4))
    assert are_isomorphic(make("complete_bipartite", 3, 2), make("complete_bipartite", 2, 3))


def test_cycles_small():
    assert counts(make("cycle", 3)) == (3, 3)
    one = make("cycle", 1)
    assert counts(one) == (1, 1)
    assert one.loop_multiplicity(one.vertices[0]) == 1
    two = make("cycle", 2)
    assert counts(two) == (2, 2)
    assert two.multiplicity(0, 1) == 2


def test_paths():
    assert counts(make("path", 1)) == (0, 0)
    assert counts(make("path", 5)) == (5, 4)
    assert make("path", 5).is_forest()


def test_friendship_layout():
    g = make("friendship", 3)
    assert counts(g) == (7, 9)
    assert g.incident_count(0) == 6
    assert all(g.incident_count(v) == 2 for v in g.vertices if v != 0)


def test_pinwheel_layout():
    g = make("pinwheel", 2)
    assert counts(g) == (7, 8)
    assert g.incident_count(0) == 4
    # each blade is a 4-cycle through the hub
    assert not g.is_forest()


def test_loopy_star_layout():
    g = make("loopy_star", 3)
    assert counts(g) == (4, 6)
    assert g.incident_count(0) == 3
    assert all(g.loop_multiplicity(v) == 1 for v in g.vertices if v != 0)
    assert are_isomorphic(make("generalized_loopy_star", 3, 1), make("loopy_star", 3))


def test_generalized_loopy_star_layout():
    g = make("generalized_loopy_star", 2, 3)
    assert counts(g) == (3, 8)
    assert all(g.loop_multiplicity(v) == 3 for v in g.vertices if v != 0)


def test_loopy_starlike_layout():
    # 2 branches of 3 vertices (center shared), 2 loops at each branch end
    g = make("loopy_starlike", 2, 2, 3)
    assert counts(g) == (5, 8)
    ends = [v for v in g.vertices if g.loop_multiplicity(v) == 2]
    assert len(ends) == 2
    assert g.incident_count(0) == 2


def test_loopy_cycle_layout():
    g = make("loopy_cycle", 5, 2)
    assert counts(g) == (5, 7)
    assert sum(1 for v in g.vertices if g.loop_multiplicity(v) == 1) == 2
    with pytest.raises(ParameterError):
        make("loopy_cycle", 3, 4)  # more loops than cycle vertices


def test_wheel_layout():
    g = make("wheel", 5)
    assert counts(g) == (6, 10)
    assert g.incident_count(0) == 5
    assert are_isomorphic(make("wheel", 3), make("complete", 4))


def test_ferris_wheel_is_fully_loopy_cycle():
    for n in (3, 4, 6):
        assert are_isomorphic(make("ferris_wheel", n), make("loopy_cycle", n, n))
    assert counts(make("ferris_wheel", 4)) == (4, 8)


def test_balloon_path_layout():
    g = make("balloon_path", 4)
    assert counts(g) == (4, 7)
    assert all(g.loop_multiplicity(v) == 1 for v in g.vertices)


def test_hypercubes():
    assert counts(make("hypercube", 1)) == (2, 1)
    assert are_isomorphic(make("hypercube", 2), make("cycle", 4))
    q3 = make("hypercube", 3)
    assert counts(q3) == (8, 12)
    assert all(q3.incident_count(v) == 3 for v in q3.vertices)


def test_prism_layout():
    g = make("prism", 5)
    assert counts(g) == (10, 15)
    assert all(g.incident_count(v) == 3 for v in g.vertices)
    assert are_isomorphic(make("prism", 4), make("hypercube", 3))


def test_petersen_layout():
    g = make("petersen")
    assert counts(g) == (10, 15)
    assert all(g.incident_count(v) == 3 for v in g.vertices)
    # girth 5 separates it from the prism on the same degree sequence
    assert not are_isomorphic(g, make("prism", 5))


def test_tree_and_custom_edge_lists():
    t = make("tree", 0, 1, 1, 2, 1, 3)
    assert t.is_forest() and counts(t) == (4, 3)
    c = make("custom", 0, 0, 0, 1, 0, 1)
    assert c.loop_multiplicity(0) == 1 and c.multiplicity(0, 1) == 2
    with pytest.raises(ParameterError):
        make("tree", 0, 1, 1, 2, 2, 0)  # cycle
    with pytest.raises(ParameterError):
        make("tree", 0, 1, 2, 3)  # disconnected
    with pytest.raises(ParameterError):
        make("tree", 0, 1, 2)  # odd token count


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make("prism", 2)
    with pytest.raises(ParameterError):
        make("cycle", 0)
    with pytest.raises(ParameterError):
        make("friendship", 0)
    with pytest.raises(ParameterError):
        make("loopy_starlike", 1, 1, 1)  # branches need at least 2 vertices
    with pytest.raises(ParameterError):
        make("wheel", 2)
    with pytest.raises(ParameterError):
        make("petersen", 5)  # takes no parameters
    with pytest.raises(ParameterError):
        make("hypercube", 0)


def test_parse_family_unknown_name():
    with pytest.raises(ParameterError) as exc:
        parse_family("dodecahedron", (1,))
    assert "available" in str(exc.value)


def test_family_registry_and_labels():
    names = family_names()
    assert "cycle" in names and "custom" in names
    assert names == sorted(names)
    assert parse_family("cycle", (4,)).label() == "cycle(4)"
    assert parse_family("petersen", ()).label() == "petersen"
    spec = FamilySpec("complete_bipartite", (2, 3))
    assert generate(spec).vertex_count == 5


def test_generators_are_deterministic():
    for name, params in [
        ("friendship", (4,)),
        ("pinwheel", (3,)),
        ("wheel", (6,)),
        ("prism", (4,)),
    ]:
        assert canonical_key(make(name, *params)) == canonical_key(make(name, *params))


def test_family_counts_match_the_built_position():
    # every parameter tuple from each family's minimums up to three above
    checked = set()
    for name in family_names():
        arity, mins, _, _ = families._FAMILIES[name]
        if arity is None:
            params_list = [(0, 1, 1, 2), (3, 3, 3, 4, 4, 4, 0, 3)] if name == "custom" else [(0, 1, 1, 2, 1, 3)]
        else:
            params_list = list(itertools.product(*[range(lo, lo + 4) for lo in mins]))
        for params in params_list:
            try:
                spec = parse_family(name, params)
            except ParameterError:  # loopy_cycle with k > n
                continue
            g = generate(spec)
            assert families.counts(spec) == (g.edge_count, g.vertex_count), spec.label()
            checked.add(name)
    assert checked == set(family_names())
