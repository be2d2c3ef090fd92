"""Cyclic shift and colour-swap duality: oracles at any size for the path
sums, the measurement and the twists (Postnikov, math/0609764).

Relabelling boundary vertex x as x - 1, and 1 as n, moves the point's first
column to the end, with the sign (-1)^(k-1) that keeps a totally
nonnegative point so.  The twists are built from the necklaces, which rotate
with the columns, so they commute with the shift.

Exchanging the two colours of a graph takes its point A to the alternating
dual A^perp-alt, the orthogonal complement of A's rows with column j times
(-1)^j.  The bases of the dual are the complements of A's, so its forward
necklace is read off A's reverse one and the other way round, and duality
swaps the two twists: the left twist of the dual is the dual of the right
twist.
"""
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_bounded_affine, random_bounded_affine
from positroids import fixtures
from positroids.core import BoundedAffinePermutation
from positroids.linalg import RationalMatrix, pluecker, twist
from positroids.measurement import boundary_measurement_matrix, measure, random_weighting
from positroids.moves import synthesize
from positroids.plabic import PlabicGraph


def rho(A: RationalMatrix) -> RationalMatrix:
    """(A_2, ..., A_n, (-1)^(k-1) A_1)."""
    sign = (-1) ** (A.k - 1)
    first = (tuple(sign * x for x in A.columns[0]), A.scales[0])
    return RationalMatrix.of_columns(A.k, [*zip(A.columns[1:], A.scales[1:]), first])


def rotate(g: PlabicGraph) -> PlabicGraph:
    """g with boundary vertex x relabelled x - 1, and 1 relabelled n."""

    def shift(x):
        return (x - 1 or g.n) if g.is_boundary(x) else x

    edges = {e: (shift(u), shift(w)) for e, (u, w) in g.edges.items()}
    return PlabicGraph(g.n, g.colors, edges, g.rotations)


def row_reduced(A: RationalMatrix) -> list:
    """The reduced row echelon form of A: the same for two matrices exactly
    when their rows span the same space."""
    rows = [list(r) for r in A.rows]
    out, col = [], 0
    while rows and col < A.n:
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rows.remove(pivot)
            pivot = [x / pivot[col] for x in pivot]
            rows = [[x - r[col] * p for x, p in zip(r, pivot)] for r in rows]
            out = [[x - r[col] * p for x, p in zip(r, pivot)] for r in out] + [pivot]
        col += 1
    return out


def assert_proportional(p, q):
    """p is one nonzero scalar times q."""
    assert p.coords.keys() == q.coords.keys()
    I = next(I for I, v in q.coords.items() if v)
    scalar = p.coords[I] / q.coords[I]
    assert scalar != 0
    assert all(v == scalar * q.coords[J] for J, v in p.coords.items())


def check_rotation(g: PlabicGraph, z: dict) -> None:
    A = boundary_measurement_matrix(g, z)
    for direction in ("right", "left"):
        assert twist(rho(A), direction) == rho(twist(A, direction)), direction
    assert_proportional(measure(rotate(g), z), pluecker(rho(A)))


def dual(A: RationalMatrix) -> RationalMatrix:
    """A^perp-alt: a basis of the orthogonal complement of A's rows, with
    column j times (-1)^j.  Row j of the basis is the kernel vector that is
    1 at A's j-th free column, read off its reduced row echelon form."""
    echelon = row_reduced(A)
    pivots = [next(a for a, x in enumerate(row) if x) for row in echelon]
    rows = []
    for free in (a for a in range(A.n) if a not in pivots):
        x = [Q(a == free) for a in range(A.n)]
        for row, pivot in zip(echelon, pivots):
            x[pivot] = -row[free]
        rows.append([(-1) ** j * v for j, v in enumerate(x, 1)])
    return RationalMatrix.build(rows)


def swap(g: PlabicGraph) -> PlabicGraph:
    """g with its two colours exchanged, ids and rotations kept."""
    colors = {v: "black" if c == "white" else "white" for v, c in g.colors.items()}
    return PlabicGraph(g.n, colors, g.edges, g.rotations)


def check_dual_twists(A: RationalMatrix) -> None:
    D = dual(A)
    assert row_reduced(twist(D, "left")) == row_reduced(dual(twist(A, "right")))
    assert row_reduced(twist(D, "right")) == row_reduced(dual(twist(A, "left")))


def check_duality(g: PlabicGraph, z: dict, by_rows=False) -> None:
    """The twists of the dual against the dual twists, and the measurement of
    the swapped graph against the dual point, or their row spaces if by_rows."""
    if not 0 < g.k < g.n:  # a dual or a point with no rows
        return
    A = boundary_measurement_matrix(g, z)
    check_dual_twists(A)
    if by_rows:
        assert row_reduced(boundary_measurement_matrix(swap(g), z)) == row_reduced(dual(A))
    else:
        assert_proportional(measure(swap(g), z), pluecker(dual(A)))


def test_rho_and_rotate_have_order_n(d4):
    A = boundary_measurement_matrix(d4, dict.fromkeys(d4.edges, Q(1)))
    B, h = A, d4
    for _ in range(d4.n):
        B, h = rho(B), rotate(h)
    # n shifts multiply every column by (-1)^(k-1)
    sign = (-1) ** (A.k - 1)
    assert B.rows == tuple(tuple(sign * x for x in row) for row in A.rows)
    assert h.to_json() == d4.to_json()


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_cyclic_shift_on_the_fixtures(name):
    g = fixtures.load(name)
    rng = random.Random(name)
    for _ in range(3):
        check_rotation(g, random_weighting(g, rng))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_cyclic_shift_on_random_cells(n, rng):
    pi = random_bounded_affine(n, rng)
    if pi.k == 0:  # no rows to shift
        return
    g = synthesize(pi)
    check_rotation(g, random_weighting(g, rng))


def test_cyclic_shift_on_the_gr8_16_top_cell():
    # binom(16, 8) = 12,870 coordinates: compare the row spaces instead
    g = synthesize(BoundedAffinePermutation(tuple(range(9, 25))))
    z = random_weighting(g, random.Random(816))
    A = boundary_measurement_matrix(g, z)
    for direction in ("right", "left"):
        assert twist(rho(A), direction) == rho(twist(A, direction)), direction
    assert row_reduced(boundary_measurement_matrix(rotate(g), z)) == row_reduced(rho(A))


def test_dual_is_orthogonal_and_an_involution(d4):
    A = boundary_measurement_matrix(d4, dict.fromkeys(d4.edges, Q(1)))
    D = dual(A)
    assert (D.k, D.n) == (A.n - A.k, A.n)
    # undo the signs, and each row of the dual is orthogonal to each row of A
    plain = [[(-1) ** j * x for j, x in enumerate(row, 1)] for row in D.rows]
    assert all(sum(x * y for x, y in zip(a, d)) == 0 for a in A.rows for d in plain)
    assert row_reduced(dual(D)) == row_reduced(A)


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_duality_on_the_fixtures(name):
    g = fixtures.load(name)
    rng = random.Random(name)
    for _ in range(3):
        # tri6 swaps to k = 12 of n = 18, binom(18, 12) = 18,564 coordinates
        check_duality(g, random_weighting(g, rng), by_rows=name == "tri6")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_duality_on_random_cells(n, rng):
    g = synthesize(random_bounded_affine(n, rng))
    check_duality(g, random_weighting(g, rng))


def test_duality_of_the_twists_on_the_gr8_16_top_cell():
    g = synthesize(BoundedAffinePermutation(tuple(range(9, 25))))
    A = boundary_measurement_matrix(g, random_weighting(g, random.Random(816)))
    check_dual_twists(A)


def test_swap_inverts_the_trip_permutation_and_complements_the_labels():
    # pi(a) = b + s n for b in [n] gives the swapped graph's strand from b the lift a - s n + n
    count = 0
    cells = (synthesize(pi) for n in range(1, 6) for pi in all_bounded_affine(n))
    for g in (*map(fixtures.load, fixtures.NAMES), *cells):
        h = swap(g)
        inverse = [0] * g.n
        for a, v in enumerate(g.trip_permutation().values, 1):
            inverse[(v - 1) % g.n] = a - (v - 1) // g.n * g.n + g.n
        assert h.trip_permutation().values == tuple(inverse)
        everything = set(g.boundary_vertices())
        source, target = g.face_labels("source"), h.face_labels("target")
        assert {f: tuple(sorted(everything - set(l))) for f, l in source.items()} == target
        count += 1
    assert count == 6 + 414
