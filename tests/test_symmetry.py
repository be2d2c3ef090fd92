"""Cyclic shift: an oracle at any size for the path sums, the measurement and
the twists (Postnikov, math/0609764).

Relabelling boundary vertex x as x - 1, and 1 as n, moves the point's first
column to the end, with the sign (-1)^(k-1) that keeps a totally
nonnegative point so.  The twists are built from the necklaces, which rotate
with the columns, so they commute with the shift.
"""
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bounded_affine
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
    A, _ = boundary_measurement_matrix(g, z)
    for direction in ("right", "left"):
        assert twist(rho(A), direction) == rho(twist(A, direction)), direction
    assert_proportional(measure(rotate(g), z), pluecker(rho(A)))


def test_rho_and_rotate_have_order_n(d4):
    A, _ = boundary_measurement_matrix(d4, dict.fromkeys(d4.edges, Q(1)))
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
    A, _ = boundary_measurement_matrix(g, z)
    for direction in ("right", "left"):
        assert twist(rho(A), direction) == rho(twist(A, direction)), direction
    assert row_reduced(boundary_measurement_matrix(rotate(g), z)[0]) == row_reduced(rho(A))
