import json
import random
from fractions import Fraction as Q
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_bounded_affine, plan_graphs, random_bounded_affine
from positroids import chamber, cli, fixtures, linalg, matchings, measurement
from positroids.core import BoundedAffinePermutation, GrassmannNecklace, Positroid, gale_min, length
from positroids.errors import PreconditionError
from positroids.linalg import PlueckerVector, RationalMatrix, minor, pluecker, twist
from positroids.matchings import enumerate_matchings, extremal_matching, graph_positroid, matching_boundary
from positroids.measurement import (
    boundary_measurement_matrix,
    boundary_partial,
    face_pluecker,
    gauge_apply,
    gauge_fix,
    matrix_from_pluecker,
    measure,
    monodromy,
    monodromy_from_neighbors,
    monomial,
    monomial_map,
    random_weighting,
    twisted_pluecker_laurent,
    verify_diagram,
)
from positroids.moves import synthesize
from positroids.plabic import PlabicGraph
from test_matchings import oracle_extremal_matching, square4_doubled

LETTERS = "abcdefghijklmnopqrstu"


def eq1_matrix(w):
    a, b, c, d, e, f, g, h = (w[x] for x in "abcdefgh")
    i, j, k, l, m, n, o, p = (w[x] for x in "ijklmnop")
    q, r, s, t, u = (w[x] for x in "qrstu")
    return RationalMatrix.build(
        [
            [1, 0, -(a * e * p) / (b * k * s), 0, (f * m * o * p) / (k * l * n * s),
             (k * l * q * u + f * p * r * u) / (k * l * s * t)],
            [0, 1, (a * d * k + a * e * j) / (b * i * k), 0,
             -(f * j * m * o) / (i * k * l * n), -(f * j * r * u) / (i * k * l * t)],
            [0, 0, 0, b * c * i * k * l * n * s * t,
             b * i * k * o * s * t * (h * l + g * m), b * g * i * k * n * r * s * u],
        ]
    )


def letter_weights(rng):
    return {x: Q(rng.randint(1, 40), rng.randint(1, 40)) for x in LETTERS}


def test_measure_square4_all_ones(square4):
    p = measure(square4, {e: 1 for e in square4.edges})
    assert [p[I] for I in combinations(range(1, 5), 2)] == [1, 1, 1, 1, 2, 1]


def test_measure_square4_single_weight(square4):
    z = {e: Q(1) for e in square4.edges}
    z["s12"] = Q(3, 5)
    p = measure(square4, z)
    assert p[(2, 4)] == Q(8, 5)
    assert p[(2, 3)] == Q(3, 5)
    for I in ((1, 2), (1, 3), (1, 4), (3, 4)):
        assert p[I] == 1


def test_measure_matches_printed_matrix(schubert36):
    rng = random.Random(17)
    for _ in range(3):
        w = letter_weights(rng)
        assert measure(schubert36, w) == pluecker(eq1_matrix(w))


def test_measure_vanishing_pattern(schubert36):
    rng = random.Random(18)
    p = measure(schubert36, letter_weights(rng))
    assert p[(1, 2, 3)] == 0
    assert all(
        p[I] != 0 for I in combinations(range(1, 7), 3) if I != (1, 2, 3)
    )


def test_three_term_pluecker_relations(d4):
    rng = random.Random(19)
    p = measure(d4, random_weighting(d4, rng))
    for _ in range(30):
        S = tuple(sorted(rng.sample(range(1, 9), 2)))
        rest = [x for x in range(1, 9) if x not in S]
        a, b, c, d = sorted(rng.sample(rest, 4))

        def coord(*extra):
            return p[tuple(sorted(S + extra))]

        assert coord(a, c) * coord(b, d) == (
            coord(a, b) * coord(c, d) + coord(a, d) * coord(b, c)
        )


def test_gauge_identity_and_covariance(square4):
    rng = random.Random(20)
    z = random_weighting(square4, rng)
    p = measure(square4, z)
    assert gauge_apply(square4, z, {}) == z
    scaled = measure(square4, gauge_apply(square4, z, {"v1": Q(2)}))
    assert all(scaled[I] == 2 * p[I] for I in p.coords)
    restricted = gauge_apply(square4, z, {"v1": Q(3), "v2": Q(1, 3)})
    assert measure(square4, restricted) == p


def test_matrix_from_pluecker_round_trips(square4):
    a = RationalMatrix.build([[1, 0, -1, -2], [0, 1, 1, 1]])
    p = pluecker(a)
    assert pluecker(matrix_from_pluecker(p)) == p
    p2 = measure(square4, {e: 1 for e in square4.edges})
    m = matrix_from_pluecker(p2)
    assert minor(m, (2, 4)) == 2
    ident = RationalMatrix.build([[1, 0, 4, 7], [0, 1, 5, 8]])
    assert matrix_from_pluecker(pluecker(ident)) == ident


def test_matrix_from_pluecker_rejects_bad_vector():
    coords = {I: Q(0) for I in combinations(range(1, 7), 3)}
    coords[(1, 2, 3)] = Q(1)
    coords[(4, 5, 6)] = Q(1)
    with pytest.raises(PreconditionError):
        matrix_from_pluecker(PlueckerVector(6, 3, coords))
    with pytest.raises(PreconditionError):
        matrix_from_pluecker(PlueckerVector(6, 3, {I: Q(0) for I in coords}))
    # a support with no Gale minimum at position 1: 14 and 23 are incomparable
    coords = {I: Q(int(I in ((1, 4), (2, 3)))) for I in combinations(range(1, 5), 2)}
    with pytest.raises(PreconditionError, match="Plucker relations"):
        matrix_from_pluecker(PlueckerVector(4, 2, coords))


def test_face_pluecker_all_ones(square4):
    p = measure(square4, {e: 1 for e in square4.edges})
    tau = twist(matrix_from_pluecker(p), "right")
    values = face_pluecker(square4, tau, "source")
    assert all(v == 1 for v in values.values())


def test_face_pluecker_zero_reported(square4):
    a = RationalMatrix.build([[1, 0, 0, -1], [0, 1, 0, 1]])  # column 3 zero
    with pytest.raises(PreconditionError, match="face"):
        face_pluecker(square4, a, "source")


def test_monomial_map(square4):
    assert all(
        v == 1
        for v in monomial_map(square4, {e: 1 for e in square4.edges}, "min").values()
    )
    z = {e: Q(1) for e in square4.edges}
    z["s12"] = Q(5)
    assert monomial_map(square4, z, "min")["f1"] == Q(1, 5)


def test_monomial_map_matches_twisted_face_pluecker(schubert36):
    rng = random.Random(21)
    z = random_weighting(schubert36, rng)
    A = matrix_from_pluecker(measure(schubert36, z))
    got = face_pluecker(schubert36, twist(A, "right"), "source")
    assert got == monomial_map(schubert36, z, "min")


def test_boundary_partial_identity(square4):
    ones = {f.id: Q(1) for f in square4.faces()}
    z = boundary_partial(square4, ones, "min")
    assert all(v == 1 for v in z.values())


def test_boundary_partial_round_trip(square4, schubert36, d4):
    rng = random.Random(22)
    for g in (square4, schubert36, d4):
        x = {f.id: Q(rng.randint(1, 60), rng.randint(1, 60)) for f in g.faces()}
        for direction in ("min", "max"):
            z = boundary_partial(g, x, direction)
            assert monomial_map(g, z, direction) == x


def test_boundary_partial_square4_internal_coordinate(square4):
    x = {f.id: Q(1) for f in square4.faces()}
    x["f1"] = Q(7)
    z = boundary_partial(square4, x, "min")
    assert monomial_map(square4, z, "min") == x


def test_double_twist_on_face_vectors(square4, schubert36):
    # (Mmin of rpartial(x))_f = x_f * prod_{i in source label} x_{i-}/x_{i+}
    rng = random.Random(23)
    for g in (square4, schubert36):
        x = {f.id: Q(rng.randint(1, 50), rng.randint(1, 50)) for f in g.faces()}
        z = boundary_partial(g, x, "max")
        got = monomial_map(g, z, "min")
        src = g.face_labels("source")
        for f in g.faces():
            want = x[f.id]
            for i in src[f.id]:
                plus = g.boundary_face(i).id
                minus = g.boundary_face((i - 2) % g.n + 1).id
                want *= x[minus] / x[plus]
            assert got[f.id] == want


def test_monodromy(square4):
    z = {e: Q(1) for e in square4.edges}
    assert monodromy(square4, z, "f1") == 1
    z["s12"] = Q(3)
    alpha = monodromy(square4, z, "f1")
    assert alpha in (Q(3), Q(1, 3))
    assert alpha == monodromy_from_neighbors(square4, z, "f1")
    # gauge invariance
    gauged = gauge_apply(square4, z, {"v1": Q(5), "v3": Q(7, 2)})
    assert monodromy(square4, gauged, "f1") == alpha


def test_monodromy_neighbor_identity(schubert36, d4):
    rng = random.Random(24)
    for g in (schubert36, d4):
        z = random_weighting(g, rng)
        for f in g.faces():
            if f.kind == "internal":
                assert monodromy(g, z, f.id) == monodromy_from_neighbors(g, z, f.id)


def test_monodromy_rejects_boundary_face(square4):
    with pytest.raises(ValueError):
        monodromy(square4, {e: 1 for e in square4.edges}, "b1")


def test_laurent_term_evaluate_matches_fraction_product(d4):
    # face values of both signs, with exponents of both signs and zero
    rng = random.Random(29)
    values = {
        f.id: Q(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50)) for f in d4.faces()
    }
    for J in combinations(range(1, 9), 4):
        for term in twisted_pluecker_laurent(d4, J):
            want = Q(1)
            for fid, exp in term.exponents.items():
                want *= values[fid] ** exp
            assert term.evaluate(values) == want
            assert term.evaluate({f: str(v) for f, v in values.items()}) == want


def test_laurent_formula_square4(square4):
    rng = random.Random(25)
    z = random_weighting(square4, rng)
    p = measure(square4, z)
    source_values = face_pluecker(square4, matrix_from_pluecker(p), "source")
    left = pluecker(twist(matrix_from_pluecker(p), "left"))
    for J in combinations(range(1, 5), 2):
        terms = twisted_pluecker_laurent(square4, J)
        assert sum((t.evaluate(source_values) for t in terms), Q(0)) == left[J]
    # boundary-face label: a single term
    label = square4.face_labels("source")["b1"]
    assert len(twisted_pluecker_laurent(square4, label)) == 1


def test_laurent_unmatchable_is_empty(schubert36):
    assert twisted_pluecker_laurent(schubert36, (1, 2, 3)) == []


def test_laurent_d4_term_counts(d4):
    assert len(twisted_pluecker_laurent(d4, (4, 5, 6, 8))) == 2
    assert len(twisted_pluecker_laurent(d4, (2, 4, 6, 8))) == 17


def test_laurent_d4_recurrence_shape(d4):
    # the two-term sum is 1/x_f + x_top x_center / (x_f x_left x_right) in the
    # source labels of the figure
    src = d4.face_labels("source")
    terms = twisted_pluecker_laurent(d4, (4, 5, 6, 8))
    monomials = sorted(
        tuple(sorted((src[f], e) for f, e in t.exponents.items() if e)) for t in terms
    )
    assert monomials == sorted(
        [
            (((4, 5, 6, 8), -1),),
            tuple(sorted([
                ((4, 5, 6, 7), 1),
                ((2, 4, 6, 8), 1),
                ((4, 5, 6, 8), -1),
                ((2, 4, 5, 6), -1),
                ((4, 6, 7, 8), -1),
            ])),
        ]
    )


def test_verify_diagram_fixtures(square4, schubert36, d4, chamber_graph):
    for g in (square4, schubert36, d4, chamber_graph):
        report = verify_diagram(g, seed=7, trials=2)
        assert all(r["status"] == "pass" for r in report)


def test_random_weighting_is_seed_deterministic(square4):
    a = random_weighting(square4, random.Random(42))
    b = random_weighting(square4, random.Random(42))
    assert a == b


def test_gauge_fix(square4):
    rng = random.Random(26)
    z = random_weighting(square4, rng)
    targets = {"leg1": Q(1), "leg2": Q(1), "leg3": Q(1), "leg4": Q(1)}
    fixed = gauge_fix(square4, z, targets)
    assert all(fixed[e] == 1 for e in targets)
    # a gauge transform scales every Plucker coordinate by one factor
    before, after = measure(square4, z).coords, measure(square4, fixed).coords
    scale = after[(1, 2)] / before[(1, 2)]
    assert scale != 1
    assert after == {I: scale * v for I, v in before.items()}


def test_gauge_fix_errors(square4):
    z = random_weighting(square4, random.Random(26))
    with pytest.raises(ValueError, match=r"^gauge not determined at vertices \['v1', 'v2', 'v3', 'v4'\]$"):
        gauge_fix(square4, z, {})
    # the legs pin the gauge to 1 at every vertex, which s23's weight 2 then contradicts
    with pytest.raises(ValueError, match="^gauge constraints clash at edge 's23'$"):
        gauge_fix(square4, {**dict.fromkeys(square4.edges, 1), "s23": 2}, dict.fromkeys(square4.edges, 1))


def enumerative_measure(graph, weights):
    """The oracle: D_I as the sum of monomials over the matchings with boundary I."""
    coords = {I: Q(0) for I in combinations(range(1, graph.n + 1), graph.k)}
    for m in enumerate_matchings(graph):
        coords[matching_boundary(graph, m)] += monomial(weights, m)
    return PlueckerVector(graph.n, graph.k, coords)


def assert_measure_matches_enumeration(graph, weights):
    p = measure(graph, weights)
    assert p == enumerative_measure(graph, weights)
    if not graph.k:  # the point has no rows: measure enumerates the one matching
        with pytest.raises(PreconditionError, match="^k = 0"):
            boundary_measurement_matrix(graph, weights)
        return
    # the identity on the sources, but for D at the sources in row 1
    A = boundary_measurement_matrix(graph, weights)
    sources = gale_min(p.support(), 1, graph.n)
    for r, i in enumerate(sources):
        column = [Q(int(r == s)) for s in range(len(sources))]
        column[0] *= p[sources]
        assert [row[i - 1] for row in A.rows] == column


@pytest.mark.parametrize("name", sorted(set(fixtures.NAMES) - {"tri6"}))
def test_measure_matches_enumeration_on_fixtures(name):
    g = fixtures.load(name)
    rng = random.Random(f"oracle-{name}")
    for _ in range(3):
        assert_measure_matches_enumeration(g, random_weighting(g, rng))


def test_measure_matches_enumeration_on_small_cells():
    rng = random.Random(31)
    ks = set()
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            g = synthesize(pi)
            assert_measure_matches_enumeration(g, random_weighting(g, rng))
            ks.add((pi.k, n))
    # the k = 0 cells measure to {(): the monomial of their one matching}
    assert {(0, n) for n in range(1, 6)} | {(n, n) for n in range(1, 6)} <= ks


@pytest.mark.parametrize("n", [6, 7])
def test_measure_matches_enumeration_on_sampled_cells(n):
    rng = random.Random(f"cells-{n}")
    for pi in rng.sample(all_bounded_affine(n), 40):
        g = synthesize(pi)
        assert_measure_matches_enumeration(g, random_weighting(g, rng))


def test_measure_on_a_graph_that_is_not_reduced_merges_parallel_edges(square4):
    # a matching takes at most one of two parallel edges, so doubling an edge
    # measures as square4, by its path sums, with the two weights added
    rng = random.Random(33)
    for both in (False, True):
        g = square4_doubled(square4, both)
        assert not g.is_reduced()[0]
        z = random_weighting(g, rng)
        merged = {e: z[e] for e in square4.edges}
        merged["s12"] += z["dup12"]
        if both:
            merged["s34"] += z["dup34"]
        assert measure(g, z) == measure(square4, merged)


def first_difference(want, got):
    """The first (row, column) from 1 where two matrices differ, by rows."""
    for r, (a, b) in enumerate(zip(want.rows, got.rows), 1):
        for c, (x, y) in enumerate(zip(a, b), 1):
            if x != y:
                return [r, c]
    return None


def laurent_subset(check: str) -> tuple:
    """The subset J a ``laurent-J`` check names: bare digits, or commas once
    an element has two digits."""
    text = check.removeprefix("laurent-")
    return tuple(int(x) for x in (text.split(",") if "," in text else text))


def test_verify_diagram_reports_a_broken_inversion(monkeypatch, d4):
    def broken(graph, face_vector, direction):
        weights = boundary_partial(graph, face_vector, direction)
        # not a gauge transform: one internal edge alone doubles
        return {**weights, "bd": 2 * weights["bd"]}

    monkeypatch.setattr(measurement, "boundary_partial", broken)
    # no boundary seed 7 picks has a matching through bd; 3678 and 3468 at seed 0 do
    for seed in (7, 0):
        report = verify_diagram(d4, seed=seed, trials=2)
        inversions = [r for r in report if r["check"] == "inversion"]
        assert [r["status"] for r in inversions] == ["fail", "fail"]
        assert all(set(r["witness"]) == set(d4.edges) for r in inversions)
        for r in inversions:
            # the first entry of the point that the inverse does not recover
            z = {e: Q(v) for e, v in r["witness"].items()}
            A = boundary_measurement_matrix(d4, z)
            recovered = broken(d4, face_pluecker(d4, twist(A, "right"), "source"), "min")
            again = boundary_measurement_matrix(d4, recovered)
            r_, c_ = r["entry"]
            assert r["entry"] == first_difference(A, again)
            assert (r["expected"], r["actual"]) == (str(A.rows[r_ - 1][c_ - 1]), str(again.rows[r_ - 1][c_ - 1]))
        # the Laurent weights come from the same inverse, so a laurent-J entry
        # fails exactly when some matching with boundary J uses bd
        laurent = [r for r in report if r["check"].startswith("laurent-")]
        for r in laurent:
            J = laurent_subset(r["check"])
            uses_bd = any("bd" in m for m in enumerate_matchings(d4, J))
            assert r["status"] == ("fail" if uses_bd else "pass"), (seed, r["check"])
            if uses_bd:
                # Delta_J of the left twist, and the term sum of the broken weights
                z = {e: Q(v) for e, v in r["witness"].items()}
                A = boundary_measurement_matrix(d4, z)
                B = boundary_measurement_matrix(d4, broken(d4, face_pluecker(d4, A, "source"), "min"))
                assert r["expected"] == str(minor(twist(A, "left"), J))
                assert r["actual"] == str(minor(B, J)) != r["expected"]
            else:
                assert "expected" not in r and "witness" not in r
        assert any(r["status"] == "fail" for r in laurent) == (seed == 0)
        squares = [r for r in report if r["check"].endswith("-square")]
        assert len(squares) == 4 and all(r["status"] == "pass" for r in squares)

    # a left square whose monomial map is off at the third and the last
    # face: the entry names the third
    monkeypatch.setattr(measurement, "boundary_partial", boundary_partial)
    third, last = d4.faces()[2].id, d4.faces()[-1].id

    def off_at_two_faces(graph, weights, direction):
        values = monomial_map(graph, weights, direction)
        if direction == "max":
            values.update({f: 2 * values[f] for f in (third, last)})
        return values

    monkeypatch.setattr(measurement, "monomial_map", off_at_two_faces)
    right, left = verify_diagram(d4, seed=7, trials=1)[:2]
    assert right == {"check": "right-square", "trial": 0, "status": "pass"}
    z = {e: Q(v) for e, v in left["witness"].items()}
    value = face_pluecker(d4, twist(boundary_measurement_matrix(d4, z), "left"), "target")[third]
    assert value == monomial_map(d4, z, "max")[third]
    assert left["status"] == "fail"
    assert (left["face"], left["label"]) == (third, list(d4.face_labels("target")[third]))
    assert (left["expected"], left["actual"]) == (str(2 * value), str(value))


def spy(monkeypatch, *names):
    """Record the calls of each named function through every module that binds it."""
    calls = {name: [] for name in names}
    for module in (linalg, matchings, measurement, chamber):
        for name in names:
            original = getattr(module, name, None)
            if original is not None:

                def wrapper(*args, _original=original, _name=name, **kwargs):
                    calls[_name].append(args)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_verify_diagram_never_lists_every_matching(monkeypatch):
    # nor any matching at all: verify reads one matrix and its twists by minors
    calls = spy(
        monkeypatch,
        "enumerate_matchings",
        "twisted_pluecker_laurent",
        "matrix_from_pluecker",
        "pluecker",
        "positroid_from_necklace",
    )
    report = verify_diagram(fixtures.load("d4"), seed=7, trials=2)
    assert all(r["status"] == "pass" for r in report)
    assert calls["enumerate_matchings"] == []
    assert calls["twisted_pluecker_laurent"] == []
    assert calls["matrix_from_pluecker"] == []
    # the picks come from one positroid, built from the trip permutation, and
    # no Plucker vector is taken
    assert calls["pluecker"] == []
    assert len(calls["positroid_from_necklace"]) == 1


def test_laurent_check_names_round_trip_to_their_subsets(monkeypatch):
    # the Gr(6,12) top cell: each pick is read by two minors, at its subset
    calls = spy(monkeypatch, "minor")
    report = verify_diagram(synthesize(BoundedAffinePermutation(tuple(range(7, 19)))), seed=0, trials=2)
    names = [r["check"] for r in report if r["check"].startswith("laurent-")]
    picks = [indices for _, indices in calls["minor"][::2]]
    assert [laurent_subset(name) for name in names] == picks
    for name, J in zip(names, picks):
        assert ("," in name) == (J[-1] >= 10), name
    assert any("," in name for name in names) and not all("," in name for name in names), names


def test_verify_refuses_a_pick_whose_twisted_coordinate_vanishes(monkeypatch, capsys):
    # 123 is no basis of schubert36: its check would read 0 = 0
    only_123 = Positroid(GrassmannNecklace(((1, 2, 3),) * 6, 6))
    monkeypatch.setattr(measurement, "graph_positroid", lambda graph: only_123)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "schubert36", "--trials", "1"])
    assert exc.value.code == 3
    assert capsys.readouterr().err == "internal error: twisted Plucker coordinate at (1, 2, 3) vanishes at positive weights\n"


def test_factorization_takes_no_pluecker_vector(monkeypatch):
    calls = spy(monkeypatch, "pluecker", "matrix_from_pluecker")
    matrix = RationalMatrix.build([[2, 1, 3], [0, 1, 5], [0, 0, 7]])
    assert chamber.factorization_identity([2, 1, 2], matrix)
    assert calls == {"pluecker": [], "matrix_from_pluecker": []}


def assert_verify_identities(graph, weights, subsets=None):
    """The identities verify_diagram rests on, each against its oracle:
    (a) the point of the path sums is matrix_from_pluecker of the measurement;
    (b) face_pluecker reads the full Plucker vector at the labels, for the
    point and both twists; (c) at each J, Delta_J(B) for the point B of the
    inverse monomial map's weights is the sum of the matching terms of the
    Laurent formula and Delta_J of the left twist."""
    p = measure(graph, weights)
    A = boundary_measurement_matrix(graph, weights)
    assert A == matrix_from_pluecker(p)
    right, left = twist(A, "right"), twist(A, "left")
    for point, mode in ((A, "source"), (right, "source"), (left, "target")):
        coords = pluecker(point)
        labels = graph.face_labels(mode)
        assert face_pluecker(graph, point, mode) == {f: coords[l] for f, l in labels.items()}
    x = face_pluecker(graph, A, "source")
    B = boundary_measurement_matrix(graph, boundary_partial(graph, x, "min"))
    for J in p.support() if subsets is None else subsets:
        total = sum((term.evaluate(x) for term in twisted_pluecker_laurent(graph, J)), Q(0))
        assert minor(B, J) == total == minor(left, J), J


@pytest.mark.parametrize("name", sorted(fixtures.NAMES))
def test_verify_identities_on_fixtures(name):
    g = fixtures.load(name)
    rng = random.Random(f"identities-{name}")
    for _ in range(1 if name == "tri6" else 2):
        z = random_weighting(g, rng)
        # tri6 has 9,842 bases: check seeded picks
        subsets = rng.sample(measure(g, z).support(), 6) if name == "tri6" else None
        assert_verify_identities(g, z, subsets)


def test_verify_identities_on_small_cells():
    rng = random.Random(37)
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            if pi.k >= 1:  # k = 0 has no matrix to twist
                g = synthesize(pi)
                assert_verify_identities(g, random_weighting(g, rng))


def oracle_boundary_measurement_matrix(graph, weights):
    """The per-call orientation: M0 by the per-face scan, then the arcs, the
    topological order and the signs, all rebuilt for every weighting; row 1
    of the Fraction path sums times the monomial of M0."""
    m0 = oracle_extremal_matching(graph, graph.boundary_face(graph.n).id, "max")
    arcs = {v: [] for v in [*graph.colors, *graph.boundary_vertices()]}
    indegree = dict.fromkeys(arcs, 0)
    for e, (u, w) in graph.edges.items():
        white = u if graph.colors.get(u) == "white" or graph.colors.get(w) == "black" else w
        black = w if white == u else u
        if e in m0:
            tail, head, weight = black, white, 1 / weights[e]
        else:
            tail, head, weight = white, black, weights[e]
        arcs[tail].append((head, weight))
        indegree[head] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:
        for head, _ in arcs[v]:
            indegree[head] -= 1
            if indegree[head] == 0:
                order.append(head)
    assert len(order) == len(arcs)
    sources = [i for i in graph.boundary_vertices() if arcs[i]]
    rows = []
    for source in sources:
        paths = {source: Q(1)}
        for v in order:
            total = paths.get(v)
            if total:
                for head, weight in arcs[v]:
                    paths[head] = paths.get(head, 0) + total * weight
        row = []
        for j in graph.boundary_vertices():
            if j in sources:
                row.append(Q(1) if j == source else Q(0))
            else:
                between = sum(1 for s in sources if min(source, j) < s < max(source, j))
                row.append((-1) ** between * paths.get(j, Q(0)))
        rows.append(row)
    rows[0] = [monomial(weights, m0) * x for x in rows[0]]
    return RationalMatrix.build(rows)


def signed(weights, rng):
    """The weights, each times a random sign, in sorted edge order."""
    return {e: rng.choice((1, -1)) * w for e, w in sorted(weights.items())}


def test_measure_matches_enumeration_at_signed_weights():
    # a negative weight puts negative denominators into the path sums, which
    # the matrix's columns must carry over a positive scale
    rng = random.Random(48)
    for g in plan_graphs():
        if len(g.edges) <= 16:
            assert_measure_matches_enumeration(g, signed(random_weighting(g, rng), rng))


def test_boundary_measurement_matrix_is_the_normal_form_of_its_measurement():
    # the identity on the sources but for D at the sources in row 1, at
    # positive weights and at signed ones, whose minors may cancel; a k = 0
    # cell has no point and measures its one matching
    rng = random.Random(49)
    cells = (synthesize(pi) for n in range(1, 6) for pi in all_bounded_affine(n))
    for g in (*map(fixtures.load, sorted(fixtures.NAMES)), *cells):
        z = random_weighting(g, rng)
        for w in (z, signed(z, rng)):
            if g.k:
                assert boundary_measurement_matrix(g, w) == matrix_from_pluecker(measure(g, w))
            else:
                assert measure(g, w) == enumerative_measure(g, w)


def test_boundary_measurement_matrix_matches_the_per_call_orientation():
    # Fraction path sums at random weights, at signed ones, whose paths mix
    # signs, and at the inverse monomial map's weights, which carry a large
    # gauge value; the later calls read the memoized orientation
    rng = random.Random(41)
    count = 0
    for g in plan_graphs():
        if not g.k:  # the point has no rows
            continue
        z = random_weighting(g, rng)
        x = face_pluecker(g, boundary_measurement_matrix(g, z), "source")
        for w in (z, signed(z, rng), boundary_partial(g, x, "min")):
            assert boundary_measurement_matrix(g, w) == oracle_boundary_measurement_matrix(g, w)
        count += 1
    assert count == 6 + 409 + 5


def oracle_monomial_map(graph, weights, direction):
    """z^{-M(f)} as the reciprocal of a product of Fractions."""
    return {
        f.id: 1 / prod((Q(weights[e]) for e in extremal_matching(graph, f.id, direction)), start=Q(1))
        for f in graph.faces()
    }


def oracle_boundary_partial(graph, face_vector, direction):
    """The inverse monomial map with every weight and the gauge value
    formed by Fraction arithmetic."""
    x = {fid: Q(v) for fid, v in face_vector.items()}
    plan = matchings.boundary_matrix(graph, direction)
    weights = {e: 1 / x[f[0]] if len(f) == 1 else 1 / (x[f[0]] * x[f[1]]) for e, f in plan.divisors.items()}
    gauge_value = prod((x[fid] ** (len(h) - 1) for fid, h in plan.halves.items() if len(h) != 1), start=Q(1))
    return gauge_apply(graph, weights, {min(graph.colors): gauge_value})


def test_monomial_and_inverse_maps_match_their_fraction_formulas():
    rng = random.Random(43)
    for g in plan_graphs():
        z = signed(random_weighting(g, rng), rng)
        x = {f.id: rng.choice((1, -1)) * Q(rng.randint(1, 1000), rng.randint(1, 1000)) for f in g.faces()}
        for direction in ("min", "max"):
            assert monomial_map(g, z, direction) == oracle_monomial_map(g, z, direction)
            assert boundary_partial(g, x, direction) == oracle_boundary_partial(g, x, direction)


def test_positroid_is_the_support_of_the_pluecker_vector():
    # positive weights cannot cancel: the point's nonzero maximal minors are
    # the graph's positroid, which verify draws its Laurent picks from
    rng = random.Random(47)
    vanishing = 0
    for g in plan_graphs():
        if g.k:
            support = pluecker(boundary_measurement_matrix(g, random_weighting(g, rng))).support()
            assert support == sorted(graph_positroid(g).bases)
            # a minor vanishes exactly below the top cell
            below_top = length(g.trip_permutation()) > 0
            assert (len(support) < comb(g.n, g.k)) == below_top
            vanishing += below_top
    assert vanishing == 398


def test_verify_builds_each_graph_plan_once(monkeypatch, capsys):
    builds = []
    for module, name in ((measurement, "_orient"), (matchings, "_boundary_matrix"), (matchings, "_extremal_matchings")):

        def counting(*args, _original=getattr(module, name), _name=name):
            builds.append((_name, *args[1:]))
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    spans, wedges = [], []
    span, wedge = PlabicGraph._span_atoms, PlabicGraph._wedge
    monkeypatch.setattr(PlabicGraph, "_span_atoms", lambda self: spans.append(self) or span(self))
    monkeypatch.setattr(PlabicGraph, "_wedge", lambda self, e, upstream: wedges.append(e) or wedge(self, e, upstream))
    calls = spy(monkeypatch, "minor")
    cli.main(["verify", "d4", "--trials", "2"])
    assert json.loads(capsys.readouterr().out)["all_passed"]
    assert sorted(builds) == [
        ("_boundary_matrix", False),
        ("_extremal_matchings", False),
        ("_extremal_matchings", True),
        ("_orient",),
    ]
    # one spanning tree of the atom graph, read for one downstream and one
    # upstream wedge per edge
    assert len(spans) == 1
    assert len(wedges) == 2 * len(fixtures.load("d4").edges)
    # the three Laurent picks of each trial, on two matrices each
    assert len(calls["minor"]) == 3 * 2 * 2
    g = fixtures.load("d4")
    face_pluecker(g, boundary_measurement_matrix(g, random_weighting(g, random.Random(5))), "source")
    assert len(calls["minor"]) == 3 * 2 * 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False), st.integers(0, 2**16))
def test_verify_diagram_property(n, rng, seed):
    pi = random_bounded_affine(n, rng)
    assume(pi.k >= 1)
    report = verify_diagram(synthesize(pi), seed=seed, trials=1)
    assert [r["status"] for r in report] == ["pass"] * 6, pi.values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_twists_invert_each_other_on_path_sums(n, rng):
    # the left and right twists are inverse maps (Muller-Speyer): composed
    # either way round they return the path-sum point of a random cell
    pi = random_bounded_affine(n, rng)
    assume(pi.k >= 1)
    g = synthesize(pi)
    A = boundary_measurement_matrix(g, random_weighting(g, rng))
    assert twist(twist(A, "right"), "left") == A, pi.values
    assert twist(twist(A, "left"), "right") == A, pi.values
