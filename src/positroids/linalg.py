"""Exact rational matrices, cyclic minors, twists and the double-twist map.

A k x n matrix is held as its n columns in lowest integer terms: integer
k-tuples and one positive scale each, the column being the tuple over its
scale.  Columns are addressed by any integer, reduced mod n.  Everything here
is pure and value-semantic.  Values are parsed straight into (numerator,
denominator) pairs, each column is reduced with one lcm and one gcd, and
``to_json`` prints each entry from its integer and scale with one gcd; the
``rows`` of Fractions are only a cached view.

Elimination runs in one fraction-free kernel, ``_Echelon``: integer Bareiss
elimination takes the stored columns one at a time.  ``det`` clears the
denominators of the Fraction columns it is given; ``minor``, ``minors`` and
``rank`` read a matrix's columns as they are stored, and ``_scan`` feeds the
kernel the cyclic interval a, a+1, ... (or a, a-1, ...) until it holds a
basis.  ``matrix_necklace`` makes one scan from each column; each twist
column is solved from its own necklace scan as an integer column over one
denominator, and ``double_twist_mu`` reads each necklace minor from one.
``pluecker`` alone takes all maximal minors at once, by one integer Laplace
expansion along the rows that shares each smaller minor between every column
set containing it, and divides each by its columns' scales.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .core import GrassmannNecklace, implied_window, necklace_from_perm, perm_from_necklace
from .errors import PreconditionError, json_shape

Q = Fraction


def as_fraction(x) -> Fraction:
    """Accept ints, Fractions and 'p/q' strings; not bools, which JSON's
    true and false would otherwise pass for 1 and 0."""
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def _ratio(x) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q = x, for the values ``as_fraction`` takes.

    A plain ASCII '-?digits' or '-?digits/digits' string is split and read
    with ``int``, as ``Fraction`` would read it; any other goes to ``Fraction``,
    unless its decimal exponent exceeds 4300 in magnitude.
    """
    if not isinstance(x, str):
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if isinstance(x, int) and not isinstance(x, bool):
            return x, 1
        raise ValueError(f"not an exact rational: {x!r}")
    num, slash, den = x.partition("/")
    if x.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
        p, q = int(num), int(den) if slash else 1
    else:
        # Fraction builds 10**exp; int() refuses more than 4300 digits too
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x)
        if exponent and abs(int(exponent[1])) > 4300:
            raise ValueError(f"decimal exponent of {x!r} exceeds 4300 in magnitude")
        try:
            p, q = Fraction(x).as_integer_ratio()
        except ZeroDivisionError:
            q = 0
    if not q:
        raise ValueError(f"zero denominator in {x!r}")
    return p, q


def _lowest(ints: Sequence[int], d: int) -> tuple[tuple[int, ...], int]:
    """The column ints / d, for d != 0, over a positive scale with the gcd of
    its entries and the scale 1."""
    g = gcd(*ints, d)
    if d < 0:
        g = -g
    if g == 1:
        return tuple(ints), d
    return tuple(x // g for x in ints), d // g


def _from_ratios(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """The column of the ratios p / q (q != 0, of either sign) in lowest terms."""
    d = lcm(*(q for _, q in pairs))
    return _lowest([p * (d // q) for p, q in pairs], d)


def _text(x: int, d: int) -> str:
    """``str(Fraction(x, d))`` for d > 0, with one gcd."""
    if d == 1:
        return str(x)
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


@dataclass(frozen=True, init=False)
class RationalMatrix:
    """Column j + 1 is ``columns[j]`` over ``scales[j]``, in lowest terms, so
    equal matrices have equal fields."""

    k: int
    columns: tuple  # n integer k-tuples
    scales: tuple  # one positive int per column

    def __init__(self, rows: Iterable[Iterable]):
        grid = [[_ratio(x) for x in row] for row in rows]
        if len({len(row) for row in grid}) > 1:
            raise ValueError("ragged rows")
        self._fill(len(grid), map(_from_ratios, zip(*grid)))

    def _fill(self, k: int, columns: Iterable[tuple[tuple[int, ...], int]]) -> None:
        columns = tuple(columns)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "columns", tuple(c for c, _ in columns))
        object.__setattr__(self, "scales", tuple(d for _, d in columns))

    @classmethod
    def of_columns(cls, k: int, columns: Iterable[tuple[tuple[int, ...], int]]) -> "RationalMatrix":
        """The k-row matrix of these (integer column, scale) pairs, each in
        lowest terms already."""
        matrix = cls.__new__(cls)
        matrix._fill(k, columns)
        return matrix

    @classmethod
    def of_ratios(cls, k: int, columns: Iterable[Sequence[tuple[int, int]]]) -> "RationalMatrix":
        """The k-row matrix whose columns hold these (p, q) ratios, q != 0."""
        return cls.of_columns(k, map(_from_ratios, columns))

    @classmethod
    def build(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        """``RationalMatrix(rows)``, which must have a row and a column."""
        matrix = cls(rows)
        if not matrix.n:
            raise ValueError("empty matrix")
        return matrix

    @property
    def n(self) -> int:
        return len(self.columns)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        return tuple(zip(*(self.column(a) for a in range(1, self.n + 1))))

    def column(self, a: int) -> tuple[Fraction, ...]:
        """Column a with indices taken cyclically."""
        j = (a - 1) % self.n
        d = self.scales[j]
        return tuple(Q(x, d) for x in self.columns[j])

    def to_json(self) -> dict:
        text = [[_text(x, d) for x in c] for c, d in zip(self.columns, self.scales)]
        return {"k": self.k, "n": self.n, "rows": [list(row) for row in zip(*text)]}

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
        for r in self.free:
            if v[r]:
                self.free = [i for i in self.free if i != r]
                self.pivots.append((r, v, self.free))
                return True
        return False

    def determinant(self) -> int:
        """Determinant of the k columns fed, once all rows are pivots.

        With the pivot rows r_1, ..., r_k in the order they were found, the
        last Bareiss pivot is the determinant of the rows taken in that order.
        """
        if not self.pivots:
            return 1
        order = [r for r, _, _ in self.pivots]
        return permutation_sign(order) * self.pivots[-1][1][order[-1]]

    def dual(self, d: int) -> tuple[list[int], int]:
        """(X, D) with tau = X / D: <tau, c_0> = d and <tau, c_t> = 0 for the
        other pivot columns c_t, in the order fed, once all rows are pivots.

        The pivots are a fraction-free LU factorization of the fed columns,
        so the transposed system solves in integers by exact divisions.
        With p_0 = 1 and p_{t+1} the pivot of c_t at its row r_t, forward
        elimination of d e_0 gives b, and back substitution gives the
        entries of X = D tau, with D = p_k, in pivot order; they are
        returned by row.
        """
        pivots = self.pivots
        k = len(pivots)
        p = [1] + [col[r] for r, col, _ in pivots]
        b = [d] + [0] * (k - 1)
        for s in range(k - 1):
            r = pivots[s][0]
            for j in range(s + 1, k):
                b[j] = (p[s + 1] * b[j] - pivots[j][1][r] * b[s]) // p[s]
        D = p[k]
        X = [0] * k
        by_row = [0] * k
        for i in reversed(range(k)):
            r, col, _ = pivots[i]
            X[i] = (D * b[i] - sum(col[pivots[t][0]] * X[t] for t in range(i + 1, k))) // p[i + 1]
            by_row[r] = X[i]
        return by_row, D


def _scan(columns: Sequence[Sequence[int]], a: int, step: int) -> tuple[list[int], _Echelon]:
    """Feed the integer columns a, a + step, a + 2 step, ... (0-based, mod n)
    into an echelon until it holds a basis.

    Returns the indices that became pivots, in scan order, and the echelon;
    column a is pivot 0 whenever it is nonzero.  Forward (step 1) the basis
    is the forward necklace element at a, backward (step -1) the reverse one.
    """
    n = len(columns)
    echelon = _Echelon(len(columns[0]))
    picked = []
    for j in range(a, a + step * n, step):
        if echelon.add(columns[j % n]):
            picked.append(j % n)
            if not echelon.free:
                return picked, echelon
    raise PreconditionError("matrix is rank deficient")


def _determinant(columns: Sequence[Sequence[int]], scales: Sequence[int]) -> Fraction:
    """Determinant of k integer columns of length k, over the product of
    their scales: the determinant of the rational columns they clear."""
    echelon = _Echelon(len(columns))
    for c in columns:
        if not echelon.add(c):
            return Q(0)
    return Q(echelon.determinant(), prod(scales))


def det(columns: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix given by its columns, by exact elimination."""
    k = len(columns)
    if any(len(c) != k for c in columns):
        raise ValueError("determinant of a non-square array")
    cleared = [_integer_column(c) for c in columns]
    return _determinant([c for c, _ in cleared], [d for _, d in cleared])


def _check_indices(matrix: RationalMatrix, indices: Sequence[int]) -> None:
    if len(indices) != matrix.k:
        raise ValueError(f"need {matrix.k} column indices, got {len(indices)}")
    if any(x >= y for x, y in zip(indices, indices[1:])):
        raise ValueError("column indices must be strictly increasing")


def minor(matrix: RationalMatrix, indices: Sequence[int]) -> Fraction:
    """Determinant of columns A_{i1}, ..., A_{ik} in the given order, mod n.

    The indices must be strictly increasing as integers but may leave [1, n].
    """
    return minors(matrix, (indices,))[0]


def minors(matrix: RationalMatrix, subsets: Iterable[Sequence[int]]) -> list[Fraction]:
    """``minor`` at each index list, from the stored integer columns."""
    columns, scales = matrix.columns, matrix.scales
    out = []
    for indices in subsets:
        _check_indices(matrix, indices)
        js = [(a - 1) % matrix.n for a in indices]
        out.append(_determinant([columns[j] for j in js], [scales[j] for j in js]))
    return out


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
    for c in matrix.columns:
        if not echelon.free:
            break
        echelon.add(c)
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

    def to_json(self) -> list:
        return [
            {"I": list(I), "value": str(v)}
            for I, v in sorted(self.coords.items())
        ]


def pluecker(matrix: RationalMatrix) -> PlueckerVector:
    """All binom(n, k) maximal minors: the integer minors of the stored
    columns, each divided by the product of its columns' scales.

    One Laplace expansion along the rows: the minor of the first r+1 rows on
    columns S expands along row r+1 into the minors of the first r rows on S
    minus one column; each of those is computed once and shared by every S
    that contains its columns.
    """
    n, k = matrix.n, matrix.k
    columns, scales = matrix.columns, matrix.scales
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
    return PlueckerVector(matrix.n, matrix.k, coords)


def _forward_scans(columns: Sequence[Sequence[int]]):
    """The forward scan from every column, and the forward necklace."""
    scans = [_scan(columns, a, 1) for a in range(len(columns))]
    elements = tuple(tuple(sorted(j + 1 for j in picked)) for picked, _ in scans)
    return scans, GrassmannNecklace(elements, len(columns), "forward")


def matrix_necklace(matrix: RationalMatrix):
    """(pi, forward necklace, reverse necklace) of a rank-k matrix.

    I_a is the lex-first basis in the order a, a+1, ..., a+n-1, found by one
    incremental echelon scan from a.  pi(a) is the minimal r >= a with A_a in
    span(A_{a+1}, ..., A_r) (zero columns give pi(a) = a and columns outside
    the span of the others pi(a) = a + n); it and the reverse necklace are
    read off the forward necklace (Knutson-Lam-Speyer).
    """
    _, forward = _forward_scans(matrix.columns)
    pi = perm_from_necklace(forward)
    return pi, forward, necklace_from_perm(pi, "reverse")


def twist(matrix: RationalMatrix, direction: str) -> RationalMatrix:
    """Right or left twist: column a is dual to the necklace basis at a.

    For the right twist the defining relations <tau_a, A_b> = delta_ab pair
    column a against the forward necklace element I_a, the basis of a scan
    forward from a; the left twist scans backward, for the reverse necklace.
    Column a is that scan's pivot 0, so tau_a is read from its echelon, as
    an integer column over one denominator.  Zero columns twist to zero
    columns.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"bad twist direction {direction!r}")
    step = 1 if direction == "right" else -1
    columns, scales = matrix.columns, matrix.scales
    if not any(map(any, columns)):
        raise PreconditionError("matrix is rank deficient")
    return RationalMatrix.of_columns(
        matrix.k,
        (
            _lowest(*_scan(columns, a, step)[1].dual(scales[a])) if any(c) else (c, 1)
            for a, c in enumerate(columns)
        ),
    )


def double_twist_mu(matrix: RationalMatrix) -> RationalMatrix:
    """Monomial shortcut for the square of the right twist on face labels.

    mu(A)_i = A_{pi(i)} * Delta_{I_i}(A) / Delta_{I_{i+1}}(A) * sign, where the
    sign exponent counts the alignment pairs at i (over all integer lifts)
    plus (k-1) when the window value pi(i) stays inside [1, n].  Plucker
    coordinates of mu(A) and of the double right twist agree on all face
    source-labels.  Each Delta_{I_i} is read from the forward scan at i: its
    basis columns in scan order have the echelon's determinant over the
    product of their scales, and sorting them gives the sign.  Column i is
    the integer column of A_{pi(i)} times one integer, over one integer.
    """
    n, k = matrix.n, matrix.k
    columns, scales = matrix.columns, matrix.scales
    scans, forward = _forward_scans(columns)
    pi = perm_from_necklace(forward)
    # Delta_{I_a} = dets[a - 1] / dens[a - 1]
    dets = [permutation_sign(picked) * echelon.determinant() for picked, echelon in scans]
    dens = [prod(scales[j] for j in picked) for picked, _ in scans]
    new_columns = []
    for i in range(1, n + 1):
        exponent = len(implied_window(pi, i)) + (k - 1) * (1 if pi(i) <= n else 0)
        factor = dets[i - 1] * dens[i % n]
        if exponent % 2:
            factor = -factor
        j = (pi(i) - 1) % n
        new_columns.append(_lowest([factor * x for x in columns[j]], dens[i - 1] * dets[i % n] * scales[j]))
    return RationalMatrix.of_columns(k, new_columns)
