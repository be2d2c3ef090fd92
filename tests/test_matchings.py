import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from conftest import all_bounded_affine, plan_graphs, random_bounded_affine

from positroids import fixtures
from positroids.core import BoundedAffinePermutation, necklace_from_bases
from positroids.errors import PreconditionError
from positroids.matchings import (
    MatchingPoset,
    boundary_matrix,
    enumerate_matchings,
    extremal_matching,
    face_exponents,
    graph_positroid,
    incidence_data,
    matching_boundary,
    matching_poset,
    swivel,
)
from positroids.measurement import monomial, random_weighting
from positroids.moves import synthesize
from positroids.plabic import PlabicGraph


def test_square4_enumeration(square4):
    ms = enumerate_matchings(square4)
    assert len(ms) == 7
    counts = Counter(matching_boundary(square4, m) for m in ms)
    assert counts == {
        (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (3, 4): 1, (2, 4): 2,
    }


def test_square4_filtered(square4):
    ms = enumerate_matchings(square4, (2, 4))
    assert [sorted(m) for m in ms] == [["s12", "s34"], ["s23", "s41"]]


def test_enumeration_order_is_deterministic(schubert36):
    ms = enumerate_matchings(schubert36)
    keys = [tuple(sorted(m)) for m in ms]
    assert keys == sorted(keys)
    assert len(ms) == 35


def test_unmatchable_boundary(square4):
    assert enumerate_matchings(square4, (1,)) == []


def test_graph_positroid_square4(square4):
    pos = graph_positroid(square4)
    assert len(pos.bases) == 6 and pos.k == 2


def test_graph_positroid_schubert36(schubert36):
    pos = graph_positroid(schubert36)
    assert len(pos.bases) == 19
    assert (1, 2, 3) not in pos.bases


def test_graph_positroid_d4(d4):
    # the four excluded quadruples form one orbit of the quarter turn
    from itertools import combinations

    pos = graph_positroid(d4)
    missing = {(1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8), (1, 2, 7, 8)}
    assert pos.bases == tuple(sorted(set(combinations(range(1, 9), 4)) - missing))


def test_graph_positroid_is_the_set_of_matching_boundaries(square4):
    # the enumerative oracle: on a reduced graph graph_positroid lists no
    # matching, so its bases and forward necklace are checked against every
    # matching's boundary here, on every fixture, every cell with n <= 5,
    # seeded cells with n = 6 and 7, and two graphs that are not reduced
    rng = random.Random(61)
    graphs = [*map(fixtures.load, sorted(fixtures.NAMES)), *(square4_doubled(square4, both) for both in (False, True))]
    graphs += [synthesize(pi) for n in range(1, 6) for pi in all_bounded_affine(n)]
    graphs += [synthesize(random_bounded_affine(n, rng)) for n in (6, 7) for _ in range(40)]
    for g in graphs:
        boundaries = {matching_boundary(g, m) for m in enumerate_matchings(g)}
        pos = graph_positroid(g)
        assert pos.bases == tuple(sorted(boundaries))
        assert pos.forward_necklace() == necklace_from_bases(boundaries, g.n, "forward")


def test_incidence_square4(square4):
    data = incidence_data(square4)
    assert data.b["f1"] == 2
    assert sum(data.b.values()) == len(square4.edges)
    assert data.block_products_are_identity()


@pytest.mark.parametrize("name", ["square4", "schubert36", "d4", "chamber_graph"])
def test_incidence_identity_on_fixtures(request, name):
    g = request.getfixturevalue(name)
    data = incidence_data(g)
    assert sum(data.b.values()) == len(g.edges)
    assert data.block_products_are_identity()


def test_extremal_square4(square4):
    assert extremal_matching(square4, "f1", "min") == {"s12", "s34"}
    assert extremal_matching(square4, "f1", "max") == {"s23", "s41"}
    # boundary face: unique matching with that boundary
    m = extremal_matching(square4, "b1", "min")
    label = square4.face_labels("source")["b1"]
    assert [set(x) for x in enumerate_matchings(square4, label)] == [set(m)]


def test_extremal_matches_figure_matching(schubert36):
    # the hexagonal face's minimal matching is the one drawn with boundary 356
    src = schubert36.face_labels("source")
    hexagon = next(f for f, l in src.items() if l == (3, 5, 6))
    m = extremal_matching(schubert36, hexagon, "min")
    assert m == {"a", "d", "f", "h", "o", "p", "r", "u"}
    assert matching_boundary(schubert36, m) == (3, 5, 6)


def test_extremal_boundaries(schubert36):
    src = schubert36.face_labels("source")
    tgt = schubert36.face_labels("target")
    for f in schubert36.faces():
        m_min = extremal_matching(schubert36, f.id, "min")
        m_max = extremal_matching(schubert36, f.id, "max")
        assert matching_boundary(schubert36, m_min) == src[f.id]
        assert matching_boundary(schubert36, m_max) == tgt[f.id]


def test_extremal_partial_counts(schubert36):
    # min matching meets d_fe in B_f entries at its own face, B-1 elsewhere
    data = incidence_data(schubert36)
    for fi, fid in enumerate(data.face_order):
        m = extremal_matching(schubert36, fid, "min")
        for fj, other in enumerate(data.face_order):
            hits = sum(
                1
                for j, e in enumerate(data.edge_order)
                if e in m and data.d_fe[fj][j] == 1
            )
            assert hits == data.b[other] - (0 if other == fid else 1)


def test_face_exponents_minimal(square4):
    m = extremal_matching(square4, "f1", "min")
    exps = face_exponents(square4, m)
    assert exps["f1"] == 1
    assert all(v == 0 for f, v in exps.items() if f != "f1")


def test_face_exponents_identity(square4, schubert36):
    # z^M = prod_f (z^{min matching of f})^{exponent} for every matching
    import random

    rng = random.Random(12)
    for g in (square4, schubert36):
        z = random_weighting(g, rng)
        minimal = {
            f.id: monomial(z, extremal_matching(g, f.id, "min")) for f in g.faces()
        }
        for m in enumerate_matchings(g):
            exps = face_exponents(g, m)
            prod = Q(1)
            for fid, e in exps.items():
                prod *= minimal[fid] ** e
            assert prod == monomial(z, m)


def test_face_exponents_max_matching_square4(square4):
    exps = face_exponents(square4, frozenset({"s23", "s41"}))
    assert exps == {"f1": 1, "b2": 1, "b4": 1, "b1": -1, "b3": -1}


def dense_face_exponents(data, matching):
    """The exponents summed over the dense d_fe rows, column by column."""
    columns = [j for j, e in enumerate(data.edge_order) if e in matching]
    return {
        fid: sum(data.d_fe[i][j] for j in columns) - (data.b[fid] - 1)
        for i, fid in enumerate(data.face_order)
    }


@pytest.mark.parametrize("name", sorted(set(fixtures.NAMES) - {"tri6"}))
def test_face_exponents_match_dense_rows(name):
    g = fixtures.load(name)
    data = incidence_data(g)
    for m in enumerate_matchings(g):
        assert face_exponents(g, m) == dense_face_exponents(data, m)


def test_swivel_directions(square4):
    m_min = extremal_matching(square4, "f1", "min")
    m_max = extremal_matching(square4, "f1", "max")
    assert swivel(square4, m_min, "f1", "up") == m_max
    assert swivel(square4, m_max, "f1", "down") == m_min
    with pytest.raises(ValueError):
        swivel(square4, m_min, "f1", "down")
    with pytest.raises(ValueError):
        swivel(square4, m_max, "f1", "up")


def test_swivel_needs_half_the_edges(square4):
    other = enumerate_matchings(square4, (1, 3))[0]
    with pytest.raises(ValueError):
        swivel(square4, other, "f1", "up")


def test_poset_square4(square4):
    poset = matching_poset(square4, (2, 4))
    assert len(poset.nodes) == 2
    assert poset.minimum() == extremal_matching(square4, "f1", "min")
    assert poset.maximum() == extremal_matching(square4, "f1", "max")
    assert poset.is_lattice()


def test_poset_singleton_for_boundary_faces(square4, schubert36):
    for g in (square4, schubert36):
        for f in g.faces():
            if f.kind == "boundary":
                label = g.face_labels("source")[f.id]
                assert len(matching_poset(g, label).nodes) == 1


def test_poset_hexagon_schubert36(schubert36):
    # the figure's five-element poset, drawn for the boundary labeled 236 in
    # the figure's rotated indexing; in this fixture's labels that is 356
    poset = matching_poset(schubert36, (3, 5, 6))
    assert len(poset.nodes) == 5
    assert len(poset.covers) == 5
    src = schubert36.face_labels("source")
    hexagon = next(f for f, l in src.items() if l == (3, 5, 6))
    assert poset.minimum() == extremal_matching(schubert36, hexagon, "min")
    assert poset.is_lattice()


def test_poset_unmatchable(square4):
    with pytest.raises(PreconditionError):
        matching_poset(square4, (1, 2, 3))


def assert_up_swivels_are_acyclic(poset):
    # each cover goes strictly up: its upper end is in the lower end's
    # up-set and the lower end is not in the upper end's
    above = poset._closure
    for lo, hi, _ in poset.covers:
        assert hi in above[lo] and lo not in above[hi], (lo, hi)


def test_up_swivels_are_acyclic(schubert36, d4):
    # walking up from the minimum must terminate; heights strictly increase
    for g in (schubert36, d4):
        for boundary in sorted(graph_positroid(g).bases):
            assert_up_swivels_are_acyclic(matching_poset(g, boundary))


def test_up_swivel_check_catches_a_two_cycle():
    poset = MatchingPoset((1,), [frozenset({"x"}), frozenset({"y"})], [(0, 1, "f1"), (1, 0, "f1")])
    with pytest.raises(AssertionError):
        assert_up_swivels_are_acyclic(poset)


# matchings per boundary, as the exhaustive-rescan propagation found them;
# a subset is written as its digits
BOUNDARY_COUNTS = {
    "square4": {"12": 1, "13": 1, "14": 1, "23": 1, "24": 2, "34": 1},
    "gr36": {
        "123": 1, "124": 3, "125": 3, "126": 1, "134": 3, "135": 5, "136": 2,
        "145": 6, "146": 3, "156": 1, "234": 1, "235": 2, "236": 1, "245": 3,
        "246": 2, "256": 1, "345": 1, "346": 1, "356": 1, "456": 1,
    },
    "d4": {
        "1235": 1, "1236": 2, "1237": 1, "1238": 1, "1245": 2, "1246": 4, "1247": 2,
        "1248": 2, "1256": 1, "1257": 1, "1258": 1, "1267": 1, "1268": 1, "1345": 1,
        "1346": 2, "1347": 1, "1348": 1, "1356": 1, "1357": 2, "1358": 3, "1367": 3,
        "1368": 5, "1378": 1, "1456": 1, "1457": 3, "1458": 5, "1467": 5, "1468": 9,
        "1478": 2, "1567": 1, "1568": 2, "1578": 1, "1678": 1, "2345": 1, "2346": 2,
        "2347": 1, "2348": 1, "2356": 1, "2357": 3, "2358": 5, "2367": 5, "2368": 9,
        "2378": 2, "2456": 1, "2457": 5, "2458": 9, "2467": 9, "2468": 17, "2478": 4,
        "2567": 2, "2568": 4, "2578": 2, "2678": 2, "3457": 1, "3458": 2, "3467": 2,
        "3468": 4, "3478": 1, "3567": 1, "3568": 2, "3578": 1, "3678": 1, "4567": 1,
        "4568": 2, "4578": 1, "4678": 1,
    },
}


def graph_named(name):
    if name == "gr36":
        return synthesize(BoundedAffinePermutation((4, 5, 6, 7, 8, 9)))
    return fixtures.load(name)


@pytest.mark.parametrize("name", sorted(BOUNDARY_COUNTS))
def test_per_boundary_counts(name):
    g = graph_named(name)
    bases = graph_positroid(g).bases
    counts = {"".join(map(str, J)): len(enumerate_matchings(g, J)) for J in bases}
    assert counts == BOUNDARY_COUNTS[name]


def assert_boundary_search_matches_filter(g):
    by_boundary = {}
    for m in enumerate_matchings(g):
        by_boundary.setdefault(matching_boundary(g, m), []).append(m)
    for J, ms in by_boundary.items():
        assert enumerate_matchings(g, J) == ms


@pytest.mark.parametrize("name", sorted(set(fixtures.NAMES) - {"tri6"}))
def test_boundary_search_matches_filter_on_fixtures(name):
    assert_boundary_search_matches_filter(fixtures.load(name))


def test_boundary_search_matches_filter_on_synthesized_graphs():
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            assert_boundary_search_matches_filter(synthesize(pi))


def brute_force_matchings(graph):
    """Every edge subset that covers each internal vertex exactly once, found
    by trying all 2^|E| subsets, in the enumerator's order."""
    edges = sorted(graph.edges)
    found = []
    for picks in product((False, True), repeat=len(edges)):
        chosen = {e for e, pick in zip(edges, picks) if pick}
        if all(sum(e in chosen for e in graph.incident(v)) == 1 for v in graph.colors):
            found.append(frozenset(chosen))
    return sorted(found, key=lambda m: tuple(sorted(m)))


def square4_doubled(square4, both):
    """square4 with a parallel copy of s12 and, if both, of s34 too: graphs
    that are not reduced, on which measurement itself enumerates."""
    edges = {**square4.edges, "dup12": ("v1", "v2")}
    rotations = {
        **square4.rotations,
        "v1": ("leg1", "s12", "dup12", "s41"),
        "v2": ("dup12", "s12", "leg2", "s23"),
    }
    if both:
        edges["dup34"] = ("v3", "v4")
        rotations["v3"] = ("s34", "dup34", "s23", "leg3")
        rotations["v4"] = ("leg4", "s41", "dup34", "s34")
    return PlabicGraph(4, dict(square4.colors), edges, rotations)


def test_enumeration_matches_brute_force_on_small_graphs(square4):
    graphs = [square4_doubled(square4, both) for both in (False, True)]
    assert not any(g.is_reduced()[0] for g in graphs)
    graphs += [synthesize(pi) for n in range(1, 5) for pi in all_bounded_affine(n)]
    for g in graphs:
        everything = brute_force_matchings(g)
        assert enumerate_matchings(g) == everything
        for J in combinations(g.boundary_vertices(), g.k):
            assert enumerate_matchings(g, J) == [m for m in everything if matching_boundary(g, m) == J]


def oracle_extremal_matching(graph, face_id, direction):
    """The per-face scan: every edge whose downstream (or upstream) wedge holds the face."""
    wedge = graph.downstream if direction == "min" else graph.upstream
    return frozenset(e for e in graph.edges if face_id in wedge(e)[0])


def test_extremal_matchings_match_the_per_face_scan():
    count = 0
    for g in plan_graphs():
        for f in g.faces():
            for direction in ("min", "max"):
                assert extremal_matching(g, f.id, direction) == oracle_extremal_matching(g, f.id, direction)
        count += 1
    assert count == 6 + 414 + 5


def test_extremal_matching_check_keeps_its_message(monkeypatch):
    g = fixtures.load("square4")
    # wedge masks that hold no face leave every face without a matching; the
    # first face in face order is checked first
    monkeypatch.setattr(PlabicGraph, "_wedges", lambda self, upstream: dict.fromkeys(self.edges, 0))
    with pytest.raises(AssertionError, match="wedge edges at b1 are not a matching"):
        extremal_matching(g, "f1", "min")
    with pytest.raises(ValueError, match="bad direction"):
        extremal_matching(g, "f1", "sideways")


def oracle_inverse(graph, direction):
    """What the inverse monomial map reads, derived edge by edge: each edge's
    divisor faces (the directly-downstream one at the boundary, both faces
    beside it inside) and (f, B_f - 1) for each face with B_f != 1, in face
    order."""
    directly = graph.directly_downstream if direction == "min" else graph.directly_upstream
    dd = {e: directly(e) for e in graph.edges}
    divisors = {}
    for e, (u, w) in graph.edges.items():
        if graph.is_boundary(u) or graph.is_boundary(w):
            divisors[e] = (dd[e],)
        else:
            divisors[e] = graph.edge_faces(e)
    b = Counter(dd.values())
    return divisors, [(f.id, b[f.id] - 1) for f in graph.faces() if b[f.id] != 1]


def oracle_dense_rows(graph, direction):
    """Dense rows of ∂ over sorted edges and B_f, face against edge: a
    boundary edge's entry is 1 at its directly-downstream face, an internal
    edge's at each face beside it."""
    directly = graph.directly_downstream if direction == "min" else graph.directly_upstream
    edge_order = sorted(graph.edges)
    dd = {e: directly(e) for e in edge_order}
    d_fe = []
    for f in graph.faces():
        row = []
        for e in edge_order:
            u, w = graph.edges[e]
            if graph.is_boundary(u) or graph.is_boundary(w):
                row.append(1 if dd[e] == f.id else 0)
            else:
                row.append(1 if f.id in graph.edge_faces(e) else 0)
        d_fe.append(tuple(row))
    b = {f.id: sum(1 for e in edge_order if dd[e] == f.id) for f in graph.faces()}
    return tuple(d_fe), b


def test_every_internal_edge_has_two_faces():
    # an internal edge with one face on both sides would be a bridge to a
    # part with no boundary vertex, which a strand crosses twice: no reduced
    # graph has one, so each internal column of ∂ holds two distinct faces
    count = 0
    for g in plan_graphs():
        for e, (u, w) in g.edges.items():
            if not (g.is_boundary(u) or g.is_boundary(w)):
                assert len(g.edge_faces(e)) == 2, e
        count += 1
    assert count == 6 + 414 + 5


def test_boundary_matrix_matches_the_edge_by_edge_derivations():
    count = 0
    for g in plan_graphs():
        edge_order = sorted(g.edges)
        for direction in ("min", "max"):
            plan = boundary_matrix(g, direction)
            divisors, exponents = oracle_inverse(g, direction)
            assert plan.divisors == divisors
            assert [(fid, len(h) - 1) for fid, h in plan.halves.items() if len(h) != 1] == exponents
            d_fe, b = oracle_dense_rows(g, direction)
            assert tuple(tuple(int(f in plan.divisors[e]) for e in edge_order) for f in plan.halves) == d_fe
            assert {fid: len(h) for fid, h in plan.halves.items()} == b
            if direction == "min":
                data = incidence_data(g)
                assert (data.d_fe, data.b) == (d_fe, b)
        count += 1
    assert count == 6 + 414 + 5
