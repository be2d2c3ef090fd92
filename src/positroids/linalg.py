"""Exact rational matrices, cyclic minors, twists and the double-twist map.

Matrices are k x n grids of ``fractions.Fraction``; columns are addressed by
any integer, reduced mod n.  Everything here is pure and value-semantic.

Elimination runs in one fraction-free kernel, ``_Echelon``: a column's
denominators are cleared once, then integer Bareiss elimination takes the
columns one at a time.  ``det``, ``minor``, ``rank`` and the twist's solves
use it, and ``matrix_necklace`` makes n incremental echelon scans, one per
cyclic interval a, a+1, ..., a+n-1.  ``pluecker`` alone takes all maximal
minors at once, by a Laplace expansion along the rows that shares each
smaller minor between every column set containing it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Sequence

from .core import GrassmannNecklace, implied_window, necklace_from_perm, perm_from_necklace
from .errors import PreconditionError, json_shape

Q = Fraction


def as_fraction(x) -> Fraction:
    """Accept ints, Fractions and 'p/q' strings; not bools, which JSON's
    true and false would otherwise pass for 1 and 0."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
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
        rows = json_shape(json_shape(payload, dict, "a matrix")["rows"], list, "rows")
        m = cls.build(json_shape(row, list, "a matrix row") for row in rows)
        if m.k != payload.get("k", m.k) or m.n != payload.get("n", m.n):
            raise ValueError("matrix shape disagrees with declared k, n")
        return m


def _integer_column(column: Sequence[Fraction]) -> tuple[list[int], int]:
    """The column times the lcm d of its denominators, as ints, and d."""
    d = lcm(*(x.denominator for x in column))
    return [x.numerator * (d // x.denominator) for x in column], d


class _Echelon:
    """Bareiss elimination of k-row integer columns, fed one at a time.

    A column is reduced against the pivots kept so far; an entry left in a
    row that is not yet a pivot row makes it a pivot there.  Every entry
    kept is a minor of the columns fed, so the divisions are exact.
    """

    def __init__(self, k: int):
        self.free = range(k)  # rows that are not yet pivot rows
        self.pivots: list = []  # (pivot row, reduced column, rows still free)

    def reduce(self, column: Sequence[int]) -> list[int]:
        v = list(column)
        prev = 1
        for r, col, rest in self.pivots:
            p, x = col[r], v[r]
            for i in rest:
                v[i] = (p * v[i] - col[i] * x) // prev
            prev = p
        return v

    def add(self, column: Sequence[int]) -> bool:
        """Reduce the column; keep it and return True if it adds a pivot."""
        v = self.reduce(column)
        r = next((i for i in self.free if v[i]), None)
        if r is None:
            return False
        self.free = [i for i in self.free if i != r]
        self.pivots.append((r, v, self.free))
        return True


def det(columns: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix given by its columns, by exact elimination.

    With the pivot rows r_1, ..., r_k in the order they were found, the last
    Bareiss pivot is the determinant of the rows taken in that order.
    """
    k = len(columns)
    if any(len(c) != k for c in columns):
        raise ValueError("determinant of a non-square array")
    echelon = _Echelon(k)
    scale = 1
    for c in columns:
        ints, d = _integer_column(c)
        if not echelon.add(ints):
            return Q(0)
        scale *= d
    order = [r for r, _, _ in echelon.pivots]
    last = echelon.pivots[-1][1][order[-1]] if k else 1
    return Q(permutation_sign(order) * last, scale)


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
    echelon = _Echelon(matrix.k)
    for a in range(1, matrix.n + 1):
        if not echelon.free:
            break
        echelon.add(_integer_column(matrix.column(a))[0])
    return len(echelon.pivots)


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
    """All binom(n, k) maximal minors, by one Laplace expansion along the rows.

    Each column's denominators are cleared once.  The minor of the first r+1
    rows on columns S expands along row r+1 into the minors of the first r
    rows on S minus one column; each of those is computed once and shared by
    every S that contains its columns.
    """
    n, k = matrix.n, matrix.k
    columns, scales = zip(*(_integer_column(matrix.column(a)) for a in range(1, n + 1)))
    minors = {(): 1}
    for r in range(k):
        row = [c[r] for c in columns]
        expanded = {}
        for S in combinations(range(n), r + 1):
            total, sign = 0, (-1) ** r
            for t, j in enumerate(S):
                if row[j]:
                    total += sign * row[j] * minors[S[:t] + S[t + 1:]]
                sign = -sign
            expanded[S] = total
        minors = expanded
    coords = {
        tuple(j + 1 for j in S): Q(v, prod(scales[j] for j in S)) for S, v in minors.items()
    }
    return PlueckerVector(n, k, coords)


def matrix_necklace(matrix: RationalMatrix):
    """(pi, forward necklace, reverse necklace) of a rank-k matrix.

    I_a is the lex-first basis in the order a, a+1, ..., a+n-1, found by one
    incremental echelon scan from a.  pi(a) is the minimal r >= a with A_a in
    span(A_{a+1}, ..., A_r) (zero columns give pi(a) = a and columns outside
    the span of the others pi(a) = a + n); it and the reverse necklace are
    read off the forward necklace (Knutson-Lam-Speyer).
    """
    n, k = matrix.n, matrix.k
    columns = [_integer_column(matrix.column(a))[0] for a in range(1, n + 1)]
    elements = []
    for a in range(n):
        echelon = _Echelon(k)
        picked = []
        for j in range(a, a + n):
            if not echelon.free:
                break
            if echelon.add(columns[j % n]):
                picked.append(j % n + 1)
        if echelon.free:
            raise PreconditionError("matrix is rank deficient")
        elements.append(tuple(sorted(picked)))
    forward = GrassmannNecklace(tuple(elements), n, "forward")
    pi = perm_from_necklace(forward)
    return pi, forward, necklace_from_perm(pi, "reverse")


def _solve(columns: list, rhs: list) -> list:
    """Solve the square system (columns as matrix columns) x = rhs exactly.

    The columns and rhs are scaled to integers (x_j picks up d_j / d_rhs).
    With U_u column u as reduced when it became a pivot, the reduced system's
    pivot row r_t reads sum_{u >= t} U_u[r_t] y_u = b[r_t].
    """
    k = len(rhs)
    echelon = _Echelon(k)
    scales = []
    for c in columns:
        ints, d = _integer_column(c)
        if not echelon.add(ints):
            raise ValueError("singular twist system")
        scales.append(d)
    ints, d_rhs = _integer_column(rhs)
    b = echelon.reduce(ints)
    y: list = [None] * k
    for t in reversed(range(k)):
        r, col, _ = echelon.pivots[t]
        s = b[r] - sum(echelon.pivots[u][1][r] * y[u] for u in range(t + 1, k))
        y[t] = Q(s) / col[r]
    return [y[j] * Q(scales[j], d_rhs) for j in range(k)]


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
