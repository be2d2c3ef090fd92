"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line with its elapsed time so the suite can be
read as a checklist (`pytest -s tests/test_acceptance.py`).  All equalities
are exact over the rationals; runtime bounds are asserted.
"""
import random
import time
from fractions import Fraction as Q
from itertools import combinations

from conftest import all_bounded_affine
from positroids import fixtures
from positroids.chamber import factorization_identity, factorization_parameters
from positroids.core import length, necklace_from_bases, positroid_from_necklace
from positroids.linalg import RationalMatrix, pluecker, twist
from positroids.matchings import (
    enumerate_matchings,
    extremal_matching,
    graph_positroid,
    incidence_data,
    matching_boundary,
    matching_poset,
)
from positroids.measurement import (
    face_pluecker,
    matrix_from_pluecker,
    measure,
    random_weighting,
    twisted_pluecker_laurent,
    verify_diagram,
)
from positroids.moves import Move, apply_move, synthesize

SQUARE4 = fixtures.load("square4")
SCHUBERT36 = fixtures.load("schubert36")
D4 = fixtures.load("d4")
TRI6 = fixtures.load("tri6")
CHAMBER = fixtures.load("chamber_s2s1s2")

# tri6 stays out of the criteria that draw from this list: the positroid
# cross-check enumerates every perfect matching, and tri6 has 67,256.  The
# main theorem never enumerates them, so it runs on REDUCED_FIXTURES.
MEASURED_FIXTURES = [
    ("square4", SQUARE4),
    ("schubert36", SCHUBERT36),
    ("d4", D4),
    ("chamber_s2s1s2", CHAMBER),
]
REDUCED_FIXTURES = MEASURED_FIXTURES + [("tri6", TRI6)]


def report(criterion, started, bound):
    elapsed = time.time() - started
    assert elapsed < bound, f"criterion {criterion} took {elapsed:.1f}s (bound {bound}s)"
    print(f"PASS criterion {criterion} ({elapsed:.2f}s)")


def test_criterion_01_twist_chain():
    started = time.time()
    m1 = RationalMatrix.build([[1, 0, 1, 0, 1], [-1, 1, 0, 0, 0], [1, -1, 0, 1, 1]])
    m2 = RationalMatrix.build([[1, 0, 1, -1, 0], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]])
    m3 = RationalMatrix.build([[1, -1, 0, 0, 0], [0, 1, 1, -1, 0], [1, -1, 0, 1, 1]])
    assert twist(m1, "right") == m2
    assert twist(m2, "right") == m3
    assert twist(m3, "left") == m2
    assert twist(m2, "left") == m1
    report(1, started, 1.0)


def test_criterion_02_involutivity():
    started = time.time()
    pool = [g for _, g in MEASURED_FIXTURES[:3]]
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            if pi.k >= 1:  # k = 0 has no rank-k matrix to twist
                pool.append(synthesize(pi))
    rng = random.Random(2024)
    for trial in range(200):
        g = pool[rng.randrange(len(pool))]
        z = random_weighting(g, rng)
        a = matrix_from_pluecker(measure(g, z))
        assert twist(twist(a, "right"), "left") == a
    report(2, started, 30.0)


def test_criterion_03_main_theorem():
    started = time.time()
    for name, g in REDUCED_FIXTURES:
        rep = verify_diagram(g, seed=101, trials=5)
        assert all(r["status"] == "pass" for r in rep), (name, rep)
    report(3, started, 60.0)


def test_criterion_04_d4_sequence():
    started = time.time()
    labels = D4.face_labels("source")
    center = next(f for f, l in labels.items() if l == (2, 4, 6, 8))
    squares = [
        f for f, l in labels.items()
        if l in {(4, 5, 6, 8), (2, 6, 7, 8), (1, 2, 4, 8), (2, 3, 4, 6)}
    ]
    boundary = [f.id for f in D4.faces() if f.kind == "boundary"]
    point = twist(matrix_from_pluecker(measure(D4, {e: 1 for e in D4.edges})), "right")
    expected = [(1, 1), (17, 2), (386, 9), (8857, 43), (203321, 206)]
    us, vs = [], []
    for step in range(11):
        values = face_pluecker(D4, point, "source")
        u = values[center]
        square_values = {values[f] for f in squares}
        assert len(square_values) == 1
        v = square_values.pop()
        assert all(values[f] == 1 for f in boundary)
        if step < len(expected):
            assert (u, v) == expected[step]
        us.append(u)
        vs.append(v)
        point = twist(point, "left")
    for i in range(1, 10):
        assert us[i + 1] - 23 * us[i] + us[i - 1] == -4
        assert vs[i + 1] - 5 * vs[i] + vs[i - 1] == 0
    report(4, started, 10.0)


# the printed table, with Delta_456 corrected to the unique matching's
# monomial bcfjmoqu (the paper prints bcfjmpqu; see the decisions ledger)
RUNNING_EXAMPLE_TABLE = {
    (1, 5, 6): "bfhjorsu",
    (1, 2, 6): "bgiknrsu",
    (2, 3, 6): "aegipnru",
    (2, 3, 4): "aceilpnt",
    (3, 4, 5): "acdfmopt",
    (4, 5, 6): "bcfjmoqu",
    (1, 3, 6): "adgknrsu",
    (3, 5, 6): "adfhporu",
    (2, 3, 5): "aehilpot",
}


def test_criterion_05_running_example_table():
    started = time.time()
    rng = random.Random(55)
    src = SCHUBERT36.face_labels("source")
    for _ in range(5):
        w = {x: Q(rng.randint(1, 100), rng.randint(1, 100)) for x in "abcdefghijklmnopqrstu"}
        p = measure(SCHUBERT36, w)
        values = face_pluecker(SCHUBERT36, twist(matrix_from_pluecker(p), "right"), "source")
        for fid, label in src.items():
            expect = Q(1)
            for ch in RUNNING_EXAMPLE_TABLE[label]:
                expect /= w[ch]
            assert values[fid] == expect
    report(5, started, 10.0)


def test_criterion_06_incidence_inverse():
    started = time.time()
    for name, g in REDUCED_FIXTURES:
        data = incidence_data(g)
        assert sum(data.b.values()) == len(g.edges), name
        assert data.block_products_are_identity(), name
    report(6, started, 120.0)


def test_criterion_07_lattice():
    started = time.time()
    for name, g in (("square4", SQUARE4), ("schubert36", SCHUBERT36), ("d4", D4)):
        src = g.face_labels("source")
        by_label = {}
        for fid, label in src.items():
            by_label.setdefault(label, fid)
        for boundary in sorted(graph_positroid(g).bases):
            poset = matching_poset(g, boundary)
            poset.minimum()
            poset.maximum()
            assert poset.is_lattice()
            if boundary in by_label:
                fid = by_label[boundary]
                assert poset.minimum() == extremal_matching(g, fid, "min")
    # the five-element poset of the figure: its boundary 236 is printed in a
    # labeling rotated by three, which is 356 for this fixture (see ledger);
    # the literal 236 is a boundary-face label and so has the singleton poset
    five = matching_poset(SCHUBERT36, (3, 5, 6))
    assert len(five.nodes) == 5
    assert len(matching_poset(SCHUBERT36, (2, 3, 6)).nodes) == 1
    report(7, started, 120.0)


def test_criterion_08_positroid_cross_check():
    started = time.time()
    for name, g in MEASURED_FIXTURES:
        # on a reduced graph graph_positroid is Oh's construction on the trip
        # permutation, so the matchings are listed here
        boundaries = {matching_boundary(g, m) for m in enumerate_matchings(g)}
        pos = graph_positroid(g)
        assert pos.bases == tuple(sorted(boundaries)), name
        neck = necklace_from_bases(boundaries, g.n, "forward")
        assert positroid_from_necklace(neck).bases == tuple(sorted(boundaries)), name
    assert graph_positroid(SCHUBERT36).bases == tuple(
        sorted(frozenset(b for b in combinations(range(1, 7), 3) if b != (1, 2, 3)))
    )
    report(8, started, 120.0)


def test_criterion_09_synthesis():
    started = time.time()
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            g = synthesize(pi)
            ok, witness = g.is_reduced()
            assert ok, (pi.values, witness)
            assert g.trip_permutation().values == pi.values
            assert len(g.faces()) == pi.k * (n - pi.k) - length(pi) + 1
    report(9, started, 60.0)


def test_criterion_10_moves_preserve_measure():
    started = time.time()
    rng = random.Random(1010)
    triples = 0
    while triples < 50:
        name, g = MEASURED_FIXTURES[rng.randrange(len(MEASURED_FIXTURES))]
        z = random_weighting(g, rng)
        candidates = []
        for f in g.faces():
            if f.kind == "internal" and len(f.edges) == 4:
                candidates.append(Move("urban-renewal", f.id))
        for v in sorted(g.colors):
            incident = g.incident(v)
            if len(incident) == 2:
                ends = {g.other_end(e, v) for e in incident}
                if any(g.is_boundary(x) for x in ends):
                    candidates.append(Move("boundary-remove", v))
                else:
                    candidates.append(Move("contract", v))
        for i in g.boundary_vertices():
            candidates.append(Move("boundary-add", i))
        move = candidates[rng.randrange(len(candidates))]
        result = apply_move(g, z, move)
        assert measure(result.graph, result.weights) == measure(g, z), (name, move)
        triples += 1
    report(10, started, 120.0)


def test_criterion_11_double_twist():
    started = time.time()
    rng = random.Random(1111)
    done = 0
    while done < 5:
        p, q, r, s, t = (Q(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(5))
        a = RationalMatrix.build([[p, q, 0, -s], [0, 0, r, t]])
        from positroids.linalg import double_twist_mu

        mu = double_twist_mu(a)
        tau2 = twist(twist(a, "right"), "right")
        pm, p2 = pluecker(mu), pluecker(tau2)
        for I in ((1, 4), (2, 3), (2, 4), (3, 4)):
            assert pm[I] == p2[I]
        for I in ((1, 2), (1, 3)):
            assert pm[I] != p2[I]
        done += 1
    report(11, started, 120.0)


def test_criterion_12_chamber_ansatz():
    started = time.time()
    rng = random.Random(1212)
    done = 0
    while done < 5:
        a, b, c, d, e, f = (Q(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(6))
        if a * c * d * f * (b * e - c * d) == 0 or b == 0:
            continue
        m = RationalMatrix.build([[a, b, c], [0, d, e], [0, 0, f]])
        _, ts, ds = factorization_parameters([2, 1, 2], m)
        assert ts == [(b * e - c * d) / (b * f), b / d, c * d / (b * f)]
        assert ds == [a, d, f]
        assert factorization_identity([2, 1, 2], m)
        done += 1
    report(12, started, 120.0)


def macmahon_box(a, b, c):
    out = Q(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Q(i + j + k - 1, i + j + k - 2)
    return out


def test_criterion_13_plane_partitions():
    started = time.time()
    ms = enumerate_matchings(TRI6, (1, 2, 3, 7, 8, 13))
    assert macmahon_box(3, 2, 1) == 10
    assert len(ms) == 10
    assert all(matching_boundary(TRI6, m) == (1, 2, 3, 7, 8, 13) for m in ms)
    report(13, started, 30.0)


def test_criterion_14_laurent_formula():
    started = time.time()
    terms_a = twisted_pluecker_laurent(D4, (4, 5, 6, 8))
    terms_b = twisted_pluecker_laurent(D4, (2, 4, 6, 8))
    assert len(terms_a) == 2
    assert len(terms_b) == 17
    rng = random.Random(1414)
    for _ in range(5):
        z = random_weighting(D4, rng)
        p = measure(D4, z)
        source_values = face_pluecker(D4, matrix_from_pluecker(p), "source")
        left = pluecker(twist(matrix_from_pluecker(p), "left"))
        for J, terms in (((4, 5, 6, 8), terms_a), ((2, 4, 6, 8), terms_b)):
            total = sum((t.evaluate(source_values) for t in terms), Q(0))
            assert total == left[J]
    report(14, started, 120.0)
