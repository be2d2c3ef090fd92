"""Factorization of unipotent matrices through the wiring-diagram graph.

For a reduced word in the simple transpositions, inverting the boundary
measurement map of the associated wiring graph recovers the factorization of
an upper-triangular matrix into elementary factors E_i(t) and a diagonal: the
classical Chamber Ansatz formulas drop out of the twist pipeline.
"""
from __future__ import annotations

from fractions import Fraction

from .fixtures import chamber
from .linalg import Q, RationalMatrix, as_fraction, matmul, pluecker, twist
from .measurement import boundary_partial, face_pluecker, gauge_fix, matrix_from_pluecker


def elementary(n: int, i: int, t: Fraction) -> RationalMatrix:
    """Identity with t in the (i, i+1) entry."""
    rows = [[Q(1) if r == c else Q(0) for c in range(n)] for r in range(n)]
    rows[i - 1][i] = as_fraction(t)
    return RationalMatrix.build(rows)


def diagonal(values) -> RationalMatrix:
    values = [as_fraction(v) for v in values]
    n = len(values)
    return RationalMatrix.build(
        [[values[r] if r == c else Q(0) for c in range(n)] for r in range(n)]
    )


def embed(matrix: RationalMatrix) -> RationalMatrix:
    """The n x 2n point [A | w0-bar] whose row span lands in the wiring graph's
    positroid; w0-bar is antidiagonal with alternating signs by column."""
    n = matrix.k
    rows = []
    for r in range(n):
        tail = [Q(0)] * n
        col = n - 1 - r
        tail[col] = Q(1) if col % 2 == 0 else Q(-1)
        rows.append(list(matrix.rows[r]) + tail)
    return RationalMatrix.build(rows)


def factorization_parameters(word, matrix: RationalMatrix):
    """Invert the boundary measurement of the wiring graph at the given point.

    Returns (graph, t_values, d_values): the weights of the vertical edges in
    word order and of the right-boundary pendants top to bottom, after the
    gauge normalization that sets every other edge weight to 1.
    """
    word = list(word)
    wires = max(word) + 1
    if matrix.k != wires or matrix.n != wires:
        raise ValueError(f"need a {wires} x {wires} matrix for this word")
    graph = chamber(word)
    point = embed(matrix)
    A = matrix_from_pluecker(pluecker(point))
    face_values = face_pluecker(graph, pluecker(twist(A, "right")), "source")
    inverse, _ = boundary_partial(graph, face_values, "min")
    verticals = [f"v{pos}" for pos in range(len(word))]
    right_pendants = [graph.pendant_edge(i) for i in range(1, wires + 1)]
    free = set(verticals) | set(right_pendants)
    targets = {e: Q(1) for e in graph.edges if e not in free}
    fixed = gauge_fix(graph, inverse, targets)
    t_values = [fixed[e] for e in verticals]
    d_values = [fixed[e] for e in right_pendants]
    return graph, t_values, d_values


def factorization_identity(word, matrix: RationalMatrix) -> bool:
    """Whether E_{i1}(t1) ... E_{il}(tl) D(d1..dn) reproduces the matrix."""
    _, ts, ds = factorization_parameters(word, matrix)
    n = matrix.k
    product = diagonal(ds)
    for letter, t in reversed(list(zip(word, ts))):
        product = matmul(elementary(n, letter, t), product)
    return product == matrix
