import random
from fractions import Fraction as Q

import pytest

from positroids import fixtures
from positroids.chamber import (
    diagonal,
    elementary,
    embed,
    factorization_identity,
    factorization_parameters,
    matmul,
)
from positroids.linalg import RationalMatrix, pluecker, twist
from positroids.measurement import face_pluecker, gauge_fix, matrix_from_pluecker, measure


def random_upper(rng):
    while True:
        a, b, c, d, e, f = (Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6))
        if a * c * d * f * (b * e - c * d) != 0 and b != 0:
            return a, b, c, d, e, f


def test_embedded_point_measures_correctly(chamber_graph):
    # weights (d1, d2, d3, t1, t2, t3) measure to the printed product matrix
    rng = random.Random(41)
    d1, d2, d3, t1, t2, t3 = (Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6))
    weights = {e: Q(1) for e in chamber_graph.edges}
    weights["v0"], weights["v1"], weights["v2"] = t1, t2, t3
    for i, dv in ((1, d1), (2, d2), (3, d3)):
        pe = chamber_graph.pendant_edge(i)
        weights[pe] = dv
    upper = RationalMatrix.build(
        [
            [d1, d2 * t2, d3 * t2 * t3],
            [0, d2, d3 * (t1 + t3)],
            [0, 0, d3],
        ]
    )
    assert measure(chamber_graph, weights) == pluecker(embed(upper))


def test_factorization_parameters():
    rng = random.Random(42)
    for _ in range(4):
        a, b, c, d, e, f = random_upper(rng)
        m = RationalMatrix.build([[a, b, c], [0, d, e], [0, 0, f]])
        _, ts, ds = factorization_parameters([2, 1, 2], m)
        assert ts == [(b * e - c * d) / (b * f), b / d, c * d / (b * f)]
        assert ds == [a, d, f]
        assert factorization_identity([2, 1, 2], m)


def test_elementary_product_identity():
    rng = random.Random(43)
    a, b, c, d, e, f = random_upper(rng)
    m = RationalMatrix.build([[a, b, c], [0, d, e], [0, 0, f]])
    t1 = (b * e - c * d) / (b * f)
    t2 = b / d
    t3 = c * d / (b * f)
    product = matmul(
        matmul(matmul(elementary(3, 2, t1), elementary(3, 1, t2)), elementary(3, 2, t3)),
        diagonal([a, d, f]),
    )
    assert product == m


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        factorization_parameters([2, 1, 2], RationalMatrix.build([[1, 0], [0, 1]]))


def raw_inverse_parameters(word, matrix):
    """t and d from the raw quotient-level inverse (each edge weighted by the
    reciprocals of the faces beside it), gauge-fixed to the same targets."""
    graph = fixtures.chamber(word)
    A = matrix_from_pluecker(pluecker(embed(matrix)))
    x = face_pluecker(graph, twist(A, "right"), "source")
    raw = {}
    for e, (u, w) in graph.edges.items():
        adjacent = [f.id for f in graph.faces() if e in f.edges]
        if graph.is_boundary(u) or graph.is_boundary(w):
            raw[e] = 1 / x[graph.directly_downstream(e)]
        else:
            raw[e] = 1 / (x[adjacent[0]] * x[adjacent[1]])
    verticals = [e for e in graph.edges if e.startswith("v")]
    pendants = [graph.pendant_edge(i) for i in range(1, max(word) + 2)]
    targets = {e: Q(1) for e in graph.edges if e not in verticals + pendants}
    fixed = gauge_fix(graph, raw, targets)
    return [fixed[f"v{pos}"] for pos in range(len(word))], [fixed[e] for e in pendants]


@pytest.mark.parametrize("word", [(2, 1, 2), (1, 2, 1)])
def test_factorization_matches_raw_inverse(word):
    rng = random.Random(44)
    for _ in range(4):
        m = RationalMatrix.build(
            [[Q(rng.randint(1, 9), rng.randint(1, 5)) if c >= r else 0 for c in range(3)]
             for r in range(3)]
        )
        _, ts, ds = factorization_parameters(word, m)
        assert (ts, ds) == raw_inverse_parameters(word, m)
