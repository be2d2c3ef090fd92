"""Exact rational matrices, cyclic minors, twists and the double-twist map.

Matrices are k x n grids of ``fractions.Fraction``; columns are addressed by
any integer, reduced mod n.  Everything here is pure and value-semantic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import BoundedAffinePermutation, GrassmannNecklace, implied_window
from .errors import PreconditionError

Q = Fraction


def as_fraction(x) -> Fraction:
    """Accept ints, Fractions and 'p/q' strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        grid = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("empty matrix")
        if len({len(r) for r in grid}) != 1:
            raise ValueError("ragged rows")
        return cls(grid)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column(self, a: int) -> tuple[Fraction, ...]:
        """Column a with indices taken cyclically."""
        j = (a - 1) % self.n
        return tuple(row[j] for row in self.rows)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "rows": [[str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RationalMatrix":
        m = cls.build(payload["rows"])
        if m.k != payload.get("k", m.k) or m.n != payload.get("n", m.n):
            raise ValueError("matrix shape disagrees with declared k, n")
        return m


def det(columns: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix given by its columns, by exact elimination."""
    k = len(columns)
    if any(len(c) != k for c in columns):
        raise ValueError("determinant of a non-square array")
    m = [[columns[j][i] for j in range(k)] for i in range(k)]
    sign = Q(1)
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, k):
            if m[r][col] != 0:
                factor = m[r][col] / pivot
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    result = sign
    for i in range(k):
        result *= m[i][i]
    return result


def minor(matrix: RationalMatrix, indices: Sequence[int]) -> Fraction:
    """Determinant of columns A_{i1}, ..., A_{ik} in the given order, mod n.

    The indices must be strictly increasing as integers but may leave [1, n].
    """
    if len(indices) != matrix.k:
        raise ValueError(f"need {matrix.k} column indices, got {len(indices)}")
    if any(x >= y for x, y in zip(indices, indices[1:])):
        raise ValueError("column indices must be strictly increasing")
    return det([matrix.column(a) for a in indices])


def signed_minor(matrix: RationalMatrix, indices: Sequence[int]) -> Fraction:
    """Determinant of the columns in an arbitrary order (0 on repeats mod n)."""
    reduced = [(a - 1) % matrix.n + 1 for a in indices]
    if len(set(reduced)) != len(reduced):
        return Q(0)
    return permutation_sign(reduced) * minor(matrix, sorted(reduced))


def permutation_sign(values: Sequence) -> int:
    """Sign of the permutation that sorts distinct values."""
    perm = sorted(range(len(values)), key=lambda i: values[i])
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The exact product of a k x m and an m x n matrix.  Zero entries are
    skipped, so products of sparse incidence matrices stay cheap."""
    rows = []
    for row in a.rows:
        out = [Q(0)] * b.n
        for x, b_row in zip(row, b.rows):
            if x:
                for c, y in enumerate(b_row):
                    if y:
                        out[c] += x * y
        rows.append(out)
    return RationalMatrix.build(rows)


def rank(matrix: RationalMatrix) -> int:
    m = [list(row) for row in matrix.rows]
    r = 0
    for col in range(matrix.n):
        pivot_row = next((i for i in range(r, matrix.k) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        for i in range(r + 1, matrix.k):
            if m[i][col] != 0:
                factor = m[i][col] / pivot
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == matrix.k:
            break
    return r


@dataclass(frozen=True)
class PlueckerVector:
    """Total map from k-subsets of [n] to rationals."""

    n: int
    k: int
    coords: dict

    def __getitem__(self, subset: Sequence[int]) -> Fraction:
        return self.coords[tuple(sorted(subset))]

    def support(self) -> list[tuple[int, ...]]:
        return sorted(I for I, v in self.coords.items() if v != 0)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords.values())

    def scaled(self, factor: Fraction) -> "PlueckerVector":
        return PlueckerVector(self.n, self.k, {I: factor * v for I, v in self.coords.items()})

    def to_json(self) -> list:
        return [
            {"I": list(I), "value": str(v)}
            for I, v in sorted(self.coords.items())
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlueckerVector)
            and self.n == other.n
            and self.k == other.k
            and self.coords == other.coords
        )


def pluecker(matrix: RationalMatrix) -> PlueckerVector:
    """All binom(n, k) maximal minors of the matrix."""
    coords = {
        I: minor(matrix, I)
        for I in combinations(range(1, matrix.n + 1), matrix.k)
    }
    return PlueckerVector(matrix.n, matrix.k, coords)


def _greedy_basis(matrix: RationalMatrix, order: Sequence[int]) -> tuple[int, ...]:
    """Greedy column basis scanning ``order``; returns sorted 1-based labels."""
    picked: list[int] = []
    m: list[list[Fraction]] = []
    r = 0
    for a in order:
        candidate = m + [list(matrix.column(a))]
        rr = rank(RationalMatrix.build(candidate))
        if rr > r:
            picked.append((a - 1) % matrix.n + 1)
            m = candidate
            r = rr
        if r == matrix.k:
            break
    if r != matrix.k:
        raise PreconditionError("matrix is rank deficient")
    return tuple(sorted(picked))


def matrix_necklace(matrix: RationalMatrix):
    """(pi, forward necklace, reverse necklace) of a rank-k matrix.

    pi(a) is the minimal r >= a with A_a in span(A_{a+1}, ..., A_r); zero
    columns give pi(a) = a and columns outside the span of the others give
    pi(a) = a + n.
    """
    n, k = matrix.n, matrix.k
    if rank(matrix) != k:
        raise PreconditionError("matrix is rank deficient")
    values = []
    for a in range(1, n + 1):
        col = matrix.column(a)
        if all(x == 0 for x in col):
            values.append(a)
            continue
        cols: list = []
        r = a
        while True:
            r += 1
            cols.append(list(matrix.column(r)))
            if rank(RationalMatrix.build(list(zip(*cols)))) == rank(
                RationalMatrix.build(list(zip(*cols, col)))
            ):
                values.append(r)
                break
            if r > a + n:
                raise AssertionError("unreachable: pi(a) <= a + n")
    pi = BoundedAffinePermutation(tuple(values))
    forward = GrassmannNecklace(
        tuple(
            _greedy_basis(matrix, range(a, a + n))
            for a in range(1, n + 1)
        ),
        n,
        "forward",
    )
    reverse = GrassmannNecklace(
        tuple(
            _greedy_basis(matrix, range(a, a - n, -1))
            for a in range(1, n + 1)
        ),
        n,
        "reverse",
    )
    return pi, forward, reverse


def _solve(columns: list, rhs: list) -> list:
    """Solve the square system (columns as matrix columns) x = rhs exactly."""
    k = len(rhs)
    m = [[columns[j][i] for j in range(k)] + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular twist system")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][k] for i in range(k)]


def twist(matrix: RationalMatrix, direction: str) -> RationalMatrix:
    """Right or left twist: column a is dual to the necklace basis at a.

    For the right twist the defining relations pair column a against the
    forward necklace element I_a; the left twist uses the reverse necklace.
    Zero columns twist to zero columns.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"bad twist direction {direction!r}")
    n, k = matrix.n, matrix.k
    _, forward, reverse = matrix_necklace(matrix)
    neck = forward if direction == "right" else reverse
    new_columns = []
    for a in range(1, n + 1):
        col = matrix.column(a)
        if all(x == 0 for x in col):
            new_columns.append([Q(0)] * k)
            continue
        basis = neck.element(a)
        rows = [matrix.column(b) for b in basis]
        rhs = [Q(1) if b == a else Q(0) for b in basis]
        # <tau_a, A_b> = delta_{ab} for b in the necklace element at a
        new_columns.append(_solve(list(zip(*rows)), rhs))
    return RationalMatrix.build(list(zip(*new_columns)))


def double_twist_mu(matrix: RationalMatrix) -> RationalMatrix:
    """Monomial shortcut for the square of the right twist on face labels.

    mu(A)_i = A_{pi(i)} * Delta_{I_i}(A) / Delta_{I_{i+1}}(A) * sign, where the
    sign exponent counts the alignment pairs at i (over all integer lifts)
    plus (k-1) when the window value pi(i) stays inside [1, n].  Plucker
    coordinates of mu(A) and of the double right twist agree on all face
    source-labels.
    """
    n, k = matrix.n, matrix.k
    pi, forward, _ = matrix_necklace(matrix)
    neck_minors = {}
    for a in range(1, n + 2):
        I = forward.element(a)
        neck_minors[a] = minor(matrix, I)
        if neck_minors[a] == 0:
            raise PreconditionError(f"necklace minor at position {(a - 1) % n + 1} vanishes")
    new_columns = []
    for i in range(1, n + 1):
        ratio = neck_minors[i] / neck_minors[i + 1]
        exponent = len(implied_window(pi, i)) + (k - 1) * (1 if pi(i) <= n else 0)
        sign = Q(-1) ** (exponent % 2)
        col = matrix.column(pi(i))
        new_columns.append([sign * ratio * x for x in col])
    return RationalMatrix.build(list(zip(*new_columns)))
