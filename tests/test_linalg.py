import random
import re
from fractions import Fraction as Q
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import fixtures
from positroids.core import necklace_from_perm, perm_from_necklace
from positroids.errors import PreconditionError
from positroids import linalg
from positroids.core import implied_window
from positroids.linalg import (
    RationalMatrix,
    _Echelon,
    _integer_column,
    as_fraction,
    det,
    double_twist_mu,
    matrix_necklace,
    minor,
    minors,
    permutation_sign,
    pluecker,
    rank,
    twist,
)
from positroids.measurement import matrix_from_pluecker, measure, random_weighting

CHAIN = [
    RationalMatrix.build([[1, 0, 1, 0, 1], [-1, 1, 0, 0, 0], [1, -1, 0, 1, 1]]),
    RationalMatrix.build([[1, 0, 1, -1, 0], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]]),
    RationalMatrix.build([[1, -1, 0, 0, 0], [0, 1, 1, -1, 0], [1, -1, 0, 1, 1]]),
]


def example74(p=2, q=3, r=5, s=7, t=11):
    return RationalMatrix.build([[p, q, 0, -s], [0, 0, r, t]])


def random_matrix(rng, k, n, lo=-6, hi=6):
    while True:
        m = RationalMatrix.build(
            [[Q(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(k)]
        )
        if rank(m) == k:
            return m


def test_minor_basic():
    a = RationalMatrix.build([[1, 0, -1, -2], [0, 1, 1, 1]])
    assert minor(a, (2, 4)) == 2
    assert minor(a, (1, 2)) == 1


def test_minor_cyclic_sign():
    a = RationalMatrix.build([[1, 2, 3, 4], [5, 6, 7, 8]])
    # column 5 is column 1; the increasing order (2, 5) lists them swapped
    assert minor(a, (2, 5)) == -minor(a, (1, 2))


def test_minor_validation():
    a = RationalMatrix.build([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        minor(a, (1,))
    with pytest.raises(ValueError):
        minor(a, (2, 2))


def test_pluecker_zero_matrix():
    z = RationalMatrix.build([[0, 0, 0], [0, 0, 0]])
    assert not pluecker(z).support()
    assert rank(z) == 0


def test_identity_prefix_minor():
    a = RationalMatrix.build([[1, 0, 5], [0, 1, 7]])
    assert minor(a, (1, 2)) == 1


def test_matrix_necklace_74_example():
    pi, fwd, rev = matrix_necklace(example74(1, 1, 1, 1, 1))
    assert pi.values == (2, 4, 5, 7)
    assert fwd.elements == ((1, 3), (2, 3), (3, 4), (1, 4))
    assert rev.elements == ((1, 4), (2, 4), (2, 3), (3, 4))


def test_matrix_necklace_zero_column():
    m = RationalMatrix.build([[1, 0, 0, 1], [0, 0, 1, 1]])
    pi, _, _ = matrix_necklace(m)
    assert pi(2) == 2


def test_matrix_necklace_rank_deficient():
    with pytest.raises(PreconditionError):
        matrix_necklace(RationalMatrix.build([[1, 2], [2, 4]]))


def test_twist_chain_from_introduction():
    assert twist(CHAIN[0], "right") == CHAIN[1]
    assert twist(CHAIN[1], "right") == CHAIN[2]
    assert twist(CHAIN[2], "left") == CHAIN[1]
    assert twist(CHAIN[1], "left") == CHAIN[0]


def test_twist_row_inversion():
    row = RationalMatrix.build([[2, 3, Q(5, 7), -4]])
    want = RationalMatrix.build([[Q(1, 2), Q(1, 3), Q(7, 5), Q(-1, 4)]])
    assert twist(row, "right") == want
    assert twist(row, "left") == want


def test_twist_74_example():
    p, q, r, s, t = Q(2), Q(3), Q(5), Q(7), Q(11)
    tau = twist(example74(p, q, r, s, t), "right")
    assert tau == RationalMatrix.build(
        [[1 / p, 1 / q, t / (r * s), 0], [0, 0, 1 / r, 1 / t]]
    )


def test_twist_involutive_random():
    rng = random.Random(0)
    for _ in range(8):
        m = random_matrix(rng, 3, 6)
        assert twist(twist(m, "right"), "left") == m
        assert twist(twist(m, "left"), "right") == m


def test_twist_preserves_positroid():
    rng = random.Random(1)
    for _ in range(5):
        m = random_matrix(rng, 2, 5)
        pi, fwd, rev = matrix_necklace(m)
        for d in ("right", "left"):
            pi2, fwd2, rev2 = matrix_necklace(twist(m, d))
            assert pi2.values == pi.values
            assert fwd2.elements == fwd.elements


def test_necklace_minors_invert():
    rng = random.Random(2)
    for _ in range(5):
        m = random_matrix(rng, 2, 4)
        _, fwd, _ = matrix_necklace(m)
        tau = twist(m, "right")
        for a in range(1, 5):
            assert minor(tau, fwd.element(a)) == 1 / minor(m, fwd.element(a))


def test_orthogonality_window():
    rng = random.Random(3)
    for _ in range(5):
        m = random_matrix(rng, 3, 6)
        pi, _, _ = matrix_necklace(m)
        tau = twist(m, "right")
        for a in range(1, 7):
            for b in range(a + 1, pi(a)):
                dot1 = sum(x * y for x, y in zip(tau.column(a), m.column(b)))
                dot2 = sum(x * y for x, y in zip(tau.column(b), m.column(pi(a))))
                assert dot1 == 0 and dot2 == 0


def test_gram_determinant_identity():
    rng = random.Random(4)
    m = random_matrix(rng, 3, 6)
    tau = twist(m, "right")
    for _ in range(6):
        I = tuple(sorted(rng.sample(range(1, 7), 3)))
        J = tuple(sorted(rng.sample(range(1, 7), 3)))
        gram = [
            [sum(x * y for x, y in zip(tau.column(i), m.column(j))) for j in J]
            for i in I
        ]
        det = (
            gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] * gram[2][1])
            - gram[0][1] * (gram[1][0] * gram[2][2] - gram[1][2] * gram[2][0])
            + gram[0][2] * (gram[1][0] * gram[2][1] - gram[1][1] * gram[2][0])
        )
        assert minor(tau, I) * minor(m, J) == det


def test_equivariance():
    rng = random.Random(5)
    m = random_matrix(rng, 2, 5)
    while True:
        alpha = [[Q(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        det = alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]
        if det != 0:
            break
    beta = [Q(rng.randint(1, 9)) for _ in range(5)]
    twisted = twist(m, "right")
    prod = RationalMatrix.build(
        [
            [
                sum(alpha[r][t] * m.rows[t][c] for t in range(2)) * beta[c]
                for c in range(5)
            ]
            for r in range(2)
        ]
    )
    inv_t = [
        [alpha[1][1] / det, -alpha[1][0] / det],
        [-alpha[0][1] / det, alpha[0][0] / det],
    ]
    want = RationalMatrix.build(
        [
            [
                sum(inv_t[r][t] * twisted.rows[t][c] for t in range(2)) / beta[c]
                for c in range(5)
            ]
            for r in range(2)
        ]
    )
    assert twist(prod, "right") == want


def test_basis_lemma():
    # {tau(A)_b : a => b} spans the orthogonal complement of the span of
    # A_a..A_{pi(a)-1}
    from positroids.core import implied_window

    rng = random.Random(6)
    m = random_matrix(rng, 3, 6)
    pi, _, _ = matrix_necklace(m)
    tau = twist(m, "right")
    for a in range(1, 7):
        window_cols = [m.column(c) for c in range(a, pi(a))]
        basis = [tau.column((b - 1) % 6 + 1) for b in implied_window(pi, a)]
        dim = rank(RationalMatrix.build(list(zip(*window_cols))))
        if basis:
            stacked = RationalMatrix.build(basis)
            assert rank(stacked) == len(basis)
            for v in basis:
                assert all(
                    sum(x * y for x, y in zip(v, col)) == 0 for col in window_cols
                )
        assert len(basis) == 3 - dim


def test_mu_74_example_symbolic_points():
    rng = random.Random(7)
    for _ in range(5):
        p, q, r, s, t = (Q(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(5))
        a = example74(p, q, r, s, t)
        mu = double_twist_mu(a)
        assert mu == RationalMatrix.build(
            [[p, q, r * s / t, 0], [0, -q * t / s, 0, t]]
        )
        tau2 = twist(twist(a, "right"), "right")
        assert tau2 == RationalMatrix.build(
            [[p, q, r * s / t, 0], [-p * t / s, -q * t / s, 0, t]]
        )
        pm, p2 = pluecker(mu), pluecker(tau2)
        for I in ((1, 4), (2, 3), (2, 4), (3, 4)):
            assert pm[I] == p2[I]
        for I in ((1, 2), (1, 3)):
            assert pm[I] != p2[I]


def test_mu_at_ones():
    a = example74(1, 1, 1, 1, 1)
    assert double_twist_mu(a) == RationalMatrix.build([[1, 1, 1, 0], [0, -1, 0, 1]])
    assert twist(twist(a, "right"), "right") == RationalMatrix.build(
        [[1, 1, 1, 0], [-1, -1, 0, 1]]
    )


def test_mu_needs_full_rank():
    with pytest.raises(PreconditionError):
        double_twist_mu(RationalMatrix.build([[1, 2, 1], [2, 4, 2]]))


def test_double_twist_formula_on_source_labels():
    # Delta_I(tau^2 A) = Delta_{pi(I)}(A) * prod Delta_{I_i}/Delta_{I_{i+1}}
    rng = random.Random(8)
    m = random_matrix(rng, 2, 4)
    pi, fwd, _ = matrix_necklace(m)
    if pi.values != (2, 4, 5, 7):
        m = example74(Q(2), Q(5), Q(3), Q(11), Q(7))
        pi, fwd, _ = matrix_necklace(m)
    tau2 = twist(twist(m, "right"), "right")
    for I in ((1, 4), (2, 3), (2, 4), (3, 4)):
        reduced = tuple(sorted((pi(i) - 1) % 4 + 1 for i in I))
        want = minor(m, reduced)
        for i in I:
            want *= minor(m, fwd.element(i)) / minor(m, fwd.element(i + 1))
        assert minor(tau2, I) == want


def random_uniform_2n(rng, n):
    while True:
        m = RationalMatrix.build(
            [[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(2)]
        )
        if all(v != 0 for v in pluecker(m).coords.values()):
            return m


def cyclic_consecutive_minor(m, i):
    # det(A_i, A_{i+1}) in that order, with the wrap picking up the sign
    j = i % m.n + 1
    d = minor(m, tuple(sorted(((i - 1) % m.n + 1, j))))
    return d if (i - 1) % m.n + 1 < j else -d


def test_gr2n_twist_closed_form():
    rng = random.Random(10)
    for n in (4, 5, 6):
        m = random_uniform_2n(rng, n)
        tau = twist(m, "right")
        for i in range(1, n + 1):
            d = cyclic_consecutive_minor(m, i)
            a_next, b_next = m.column(i + 1)
            assert tau.column(i) == (b_next / d, -a_next / d)


def test_gr2n_double_twist_closed_form():
    rng = random.Random(11)
    m = random_uniform_2n(rng, 6)
    t2 = twist(twist(m, "right"), "right")
    for i in range(1, 7):
        ratio = -cyclic_consecutive_minor(m, i) / cyclic_consecutive_minor(m, i + 1)
        assert t2.column(i) == tuple(ratio * x for x in m.column(i + 2))


def test_gr2n_odd_periodicity():
    # for odd n the 2n-th twist negates the matrix, which is invisible in
    # every Plucker coordinate; the 4n-th twist is the exact identity
    rng = random.Random(12)
    for n in (3, 5):
        m = random_uniform_2n(rng, n)
        x = m
        for _ in range(2 * n):
            x = twist(x, "right")
        assert x == RationalMatrix.build([[-v for v in row] for row in m.rows])
        assert pluecker(x) == pluecker(m)
        for _ in range(2 * n):
            x = twist(x, "right")
        assert x == m


def test_mu_matches_double_twist_on_fixture_labels(square4, schubert36, d4):
    import random as _random

    from positroids.measurement import matrix_from_pluecker, measure, random_weighting

    rng = _random.Random(99)
    for g in (square4, schubert36, d4):
        z = random_weighting(g, rng)
        a = matrix_from_pluecker(measure(g, z))
        mu_coords = pluecker(double_twist_mu(a))
        tau2_coords = pluecker(twist(twist(a, "right"), "right"))
        for label in g.face_labels("source").values():
            assert mu_coords[label] == tau2_coords[label]


def test_square4_measured_matrix_necklace(square4):
    from positroids.measurement import matrix_from_pluecker, measure

    a = matrix_from_pluecker(measure(square4, {e: 1 for e in square4.edges}))
    pi, fwd, _ = matrix_necklace(a)
    assert pi.values == (3, 4, 5, 6)
    assert fwd.elements == ((1, 2), (2, 3), (3, 4), (1, 4))


def test_matrix_json_round_trip():
    m = CHAIN[0]
    assert RationalMatrix.from_json(m.to_json()) == m


# -- oracles: the Fraction elimination that the fraction-free kernel replaced --


def oracle_det(columns):
    k = len(columns)
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


def oracle_rank(matrix):
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


def oracle_greedy_basis(matrix, order):
    picked = []
    m = []
    r = 0
    for a in order:
        candidate = m + [list(matrix.column(a))]
        rr = oracle_rank(RationalMatrix.build(candidate))
        if rr > r:
            picked.append((a - 1) % matrix.n + 1)
            m = candidate
            r = rr
        if r == matrix.k:
            break
    if r != matrix.k:
        raise PreconditionError("matrix is rank deficient")
    return tuple(sorted(picked))


def oracle_matrix_necklace(matrix):
    """pi from the least r with A_a in span(A_{a+1..r}), and both necklaces
    from greedy bases, every step a from-scratch rank."""
    n, k = matrix.n, matrix.k
    if oracle_rank(matrix) != k:
        raise PreconditionError("matrix is rank deficient")
    values = []
    for a in range(1, n + 1):
        col = matrix.column(a)
        if all(x == 0 for x in col):
            values.append(a)
            continue
        cols = []
        r = a
        while True:
            r += 1
            cols.append(list(matrix.column(r)))
            if oracle_rank(RationalMatrix.build(list(zip(*cols)))) == oracle_rank(
                RationalMatrix.build(list(zip(*cols, col)))
            ):
                values.append(r)
                break
    forward = tuple(oracle_greedy_basis(matrix, range(a, a + n)) for a in range(1, n + 1))
    reverse = tuple(oracle_greedy_basis(matrix, range(a, a - n, -1)) for a in range(1, n + 1))
    return tuple(values), forward, reverse


def assert_necklace_matches_oracle(matrix):
    try:
        want = oracle_matrix_necklace(matrix)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            matrix_necklace(matrix)
        return
    pi, forward, reverse = matrix_necklace(matrix)
    assert (pi.values, forward.elements, reverse.elements) == want


def awkward_entry(rng):
    """Mostly small; sometimes a large numerator over a large denominator."""
    if rng.random() < 0.2:
        return Q(rng.randint(-(10**12), 10**12), rng.randint(1, 10**9))
    return Q(rng.randint(-6, 6), rng.randint(1, 4))


def awkward_matrix(rng, k, n):
    return RationalMatrix.build(awkward_rows(rng, k, n))


def awkward_rows(rng, k, n):
    """Zero columns, columns parallel to earlier ones and, half the time, a
    coloop: the last row vanishes outside one column."""
    columns = []
    for j in range(n):
        roll = rng.random()
        if roll < 0.15:
            columns.append([Q(0)] * k)
        elif roll < 0.35 and j:
            factor = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            columns.append([factor * x for x in columns[rng.randrange(j)]])
        else:
            columns.append([awkward_entry(rng) for _ in range(k)])
    if rng.random() < 0.5:
        coloop = rng.randrange(n)
        for j, c in enumerate(columns):
            c[-1] = Q(rng.randint(1, 5)) if j == coloop else Q(0)
    return list(zip(*columns))


def test_det_small_cases():
    assert det([]) == 1
    assert det([[Q(-3, 7)]]) == Q(-3, 7)
    assert det([[Q(0)]]) == 0
    # the first pivot needs a row swap
    assert det([[Q(0), Q(2)], [Q(3), Q(5)]]) == -6
    assert det([[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)], [Q(1), Q(0), Q(0)]]) == 1


def test_kernel_matches_oracles_on_random_matrices():
    rng = random.Random(20)
    for k in range(1, 7):
        for n in range(k, 13):
            for m in (random_matrix(rng, k, n, -9, 9), awkward_matrix(rng, k, n)):
                assert rank(m) == oracle_rank(m)
                assert_necklace_matches_oracle(m)
                for _ in range(4):
                    columns = [m.column(a) for a in sorted(rng.sample(range(1, n + 1), k))]
                    assert det(columns) == oracle_det(columns)


def test_det_of_singular_blocks_is_zero():
    rng = random.Random(21)
    for k in range(1, 7):
        for _ in range(3):
            columns = [[awkward_entry(rng) for _ in range(k)] for _ in range(k - 1)]
            weights = [awkward_entry(rng) for _ in columns]
            combo = [sum((w * c[i] for w, c in zip(weights, columns)), Q(0)) for i in range(k)]
            columns.insert(rng.randrange(k), combo)
            assert oracle_det(columns) == 0
            assert det(columns) == 0


def test_rank_deficient_matrices_raise():
    rng = random.Random(22)
    for k in range(2, 7):
        for n in (k, k + 3, 12):
            # the last row is a combination of the others
            rows = [[awkward_entry(rng) for _ in range(n)] for _ in range(k - 1)]
            weights = [awkward_entry(rng) for _ in rows]
            rows.append([sum((w * r[j] for w, r in zip(weights, rows)), Q(0)) for j in range(n)])
            m = RationalMatrix.build(rows)
            assert rank(m) == oracle_rank(m) < k
            with pytest.raises(PreconditionError):
                oracle_matrix_necklace(m)
            with pytest.raises(PreconditionError):
                matrix_necklace(m)


@pytest.mark.parametrize("name", sorted(set(fixtures.NAMES) - {"tri6"}))
def test_kernel_matches_oracles_on_measured_fixtures(name):
    g = fixtures.load(name)
    a = matrix_from_pluecker(measure(g, random_weighting(g, random.Random(23))))
    assert rank(a) == oracle_rank(a) == a.k
    assert_necklace_matches_oracle(a)
    for I in combinations(range(1, a.n + 1), a.k):
        assert minor(a, I) == oracle_det([a.column(i) for i in I])


def test_twist_solves_its_defining_relations():
    # <tau_a, A_b> = delta_ab for b in I_a, on matrices with awkward columns
    rng = random.Random(24)
    for k in range(1, 7):
        for n in (k, k + 2, 12):
            m = awkward_matrix(rng, k, n)
            if rank(m) < k:
                continue
            _, forward, reverse = matrix_necklace(m)
            for direction, neck in (("right", forward), ("left", reverse)):
                tau = twist(m, direction)
                for a in range(1, n + 1):
                    if not any(m.column(a)):
                        assert not any(tau.column(a))
                        continue
                    for b in neck.element(a):
                        dot = sum(x * y for x, y in zip(tau.column(a), m.column(b)))
                        assert dot == (1 if b == a else 0)


# -- oracles: each twist column by a fresh elimination of its necklace basis,
# and mu from one ``minor`` per necklace element --


def oracle_solve(columns, rhs):
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
        assert echelon.add(ints), "singular twist system"
        scales.append(d)
    ints, d_rhs = _integer_column(rhs)
    b = echelon.reduce(ints)
    y = [None] * k
    for t in reversed(range(k)):
        r, col, _ = echelon.pivots[t]
        s = b[r] - sum(echelon.pivots[u][1][r] * y[u] for u in range(t + 1, k))
        y[t] = Q(s) / col[r]
    return [y[j] * Q(scales[j], d_rhs) for j in range(k)]


def oracle_twist(matrix, direction):
    n, k = matrix.n, matrix.k
    _, forward, reverse = matrix_necklace(matrix)
    neck = forward if direction == "right" else reverse
    new_columns = []
    for a in range(1, n + 1):
        if all(x == 0 for x in matrix.column(a)):
            new_columns.append([Q(0)] * k)
            continue
        basis = neck.element(a)
        rows = [matrix.column(b) for b in basis]
        rhs = [Q(1) if b == a else Q(0) for b in basis]
        new_columns.append(oracle_solve(list(zip(*rows)), rhs))
    return RationalMatrix.build(list(zip(*new_columns)))


def oracle_double_twist_mu(matrix):
    n, k = matrix.n, matrix.k
    pi, forward, _ = matrix_necklace(matrix)
    neck_minors = {a: minor(matrix, forward.element(a)) for a in range(1, n + 2)}
    new_columns = []
    for i in range(1, n + 1):
        ratio = neck_minors[i] / neck_minors[i + 1]
        exponent = len(implied_window(pi, i)) + (k - 1) * (1 if pi(i) <= n else 0)
        sign = Q(-1) ** (exponent % 2)
        new_columns.append([sign * ratio * x for x in matrix.column(pi(i))])
    return RationalMatrix.build(list(zip(*new_columns)))


def assert_twists_match_oracles(m):
    for direction in ("right", "left"):
        assert twist(m, direction) == oracle_twist(m, direction), direction
    assert double_twist_mu(m) == oracle_double_twist_mu(m)


def test_twists_match_oracles_on_random_matrices():
    # awkward matrices bring zero, parallel and coloop columns
    rng = random.Random(30)
    checked = 0
    for k in range(1, 7):
        for n in range(k, 13):
            for m in (random_matrix(rng, k, n, -9, 9), awkward_matrix(rng, k, n)):
                if rank(m) == k:
                    assert_twists_match_oracles(m)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", sorted(fixtures.NAMES))
def test_twists_match_oracles_on_measured_fixtures(name):
    g = fixtures.load(name)
    assert_twists_match_oracles(matrix_from_pluecker(measure(g, random_weighting(g, random.Random(31)))))


def test_twists_match_oracle_on_d4_orbit(d4):
    point = matrix_from_pluecker(measure(d4, {e: 1 for e in d4.edges}))
    m = twist(point, "right")
    for _ in range(21):
        for direction in ("right", "left"):
            assert twist(m, direction) == oracle_twist(m, direction)
        m = twist(m, "left")


def test_twist_scans_once_per_nonzero_column(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the twist takes no separate minors")

    scans = []

    def counting_scan(columns, a, step):
        scans.append((a, step))
        return scan(columns, a, step)

    scan = linalg._scan
    monkeypatch.setattr(linalg, "_scan", counting_scan)
    monkeypatch.setattr(linalg, "det", forbidden)
    monkeypatch.setattr(linalg, "minor", forbidden)
    m = RationalMatrix.build([[1, 0, 2, 0, 1], [0, 0, 1, 3, -1]])
    for direction, step in (("right", 1), ("left", -1)):
        scans.clear()
        twist(m, direction)
        assert scans == [(a, step) for a in (0, 2, 3, 4)]


def test_twists_and_mu_refuse_rank_deficient_matrices():
    rng = random.Random(32)
    deficient = [RationalMatrix.build([[0] * n] * k) for k, n in ((1, 1), (2, 3), (3, 6))]
    for k in range(2, 6):
        rows = [[awkward_entry(rng) for _ in range(k + 2)] for _ in range(k - 1)]
        rows.insert(rng.randrange(k), [2 * x for x in rows[0]])
        deficient.append(RationalMatrix.build(rows))
    for m in deficient:
        assert rank(m) < m.k
        for direction in ("right", "left"):
            with pytest.raises(PreconditionError):
                twist(m, direction)
        with pytest.raises(PreconditionError):
            double_twist_mu(m)


def assert_pluecker_matches_minors(m):
    """Every coordinate of the Laplace expansion equals its eliminated minor,
    and a rank-deficient matrix has the zero Pluecker vector."""
    p = pluecker(m)
    assert (p.n, p.k) == (m.n, m.k)
    assert set(p.coords) == set(combinations(range(1, m.n + 1), m.k))
    for I, value in p.coords.items():
        assert value == minor(m, I), I
    assert (not p.support()) == (rank(m) < m.k)


def test_pluecker_matches_minors_on_random_matrices():
    # k = n included; awkward matrices bring zero, parallel and coloop
    # columns and negative entries over denominators up to 10^9
    rng = random.Random(25)
    for k in range(1, 7):
        for n in range(k, 13):
            for m in (random_matrix(rng, k, n, -9, 9), awkward_matrix(rng, k, n)):
                assert_pluecker_matches_minors(m)


def test_pluecker_of_rank_deficient_matrices_is_zero():
    rng = random.Random(26)
    for k in range(2, 7):
        for n in (k, k + 3, 12):
            # the middle row is a combination of the others
            rows = [[awkward_entry(rng) for _ in range(n)] for _ in range(k - 1)]
            weights = [awkward_entry(rng) for _ in rows]
            combo = [sum((w * r[j] for w, r in zip(weights, rows)), Q(0)) for j in range(n)]
            rows.insert(k // 2, combo)
            m = RationalMatrix.build(rows)
            assert rank(m) < k
            assert_pluecker_matches_minors(m)


def test_pluecker_matches_minors_on_tri6():
    g = fixtures.load("tri6")
    a = matrix_from_pluecker(measure(g, random_weighting(g, random.Random(27))))
    p = pluecker(a)
    rng = random.Random(28)
    for _ in range(500):
        I = tuple(sorted(rng.sample(range(1, a.n + 1), a.k)))
        assert p[I] == minor(a, I), I


SMALL_FRACTIONS = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 3)])


@st.composite
def exact_matrices(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    rows = draw(st.lists(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n), min_size=k, max_size=k))
    return RationalMatrix.build(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(exact_matrices())
def test_matrix_necklace_property(m):
    assert_necklace_matches_oracle(m)
    if rank(m) < m.k:
        return
    pi, forward, reverse = matrix_necklace(m)
    assert forward == necklace_from_perm(pi, "forward")
    assert reverse == necklace_from_perm(pi, "reverse")
    assert perm_from_necklace(forward) == pi


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(exact_matrices())
def test_pluecker_property(m):
    assert_pluecker_matches_minors(m)


# -- the stored integer columns: parsing, printing and equality --


def parent_as_fraction(x):
    """``as_fraction`` as it was before plain strings were read with int(),
    with its bound on decimal exponents: ``Fraction`` builds 10**exp."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    if isinstance(x, str):
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x)
        if exponent and abs(int(exponent[1])) > 4300:
            raise ValueError(f"decimal exponent of {x!r} exceeds 4300 in magnitude")
        try:
            return Q(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"not an exact rational: {x!r}")


ODD_STRINGS = [
    "2/4", "-0", "007", "+3", " 3", "3 ", "1.5", "1e3", "3/-4", "1/0", "0/0", "-0/7", "1/00",
    "-6/04", "", "-", "/", "1/", "/2", "--1", "1//2", "1/2/3", "1_000", "\u0663", "1/\u0663",
    "\uff11", "\u00b2", "123456789012345678901234567890/987654321098765432109876543210",
]
ENTRIES = st.one_of(
    st.sampled_from(ODD_STRINGS),
    st.text(alphabet="0123456789-/+ ._e\u0663", max_size=8),
    st.integers(),
    st.fractions(),
    st.booleans(),
    st.floats(),
    st.none(),
)


def parsed(parse, x):
    try:
        return "value", parse(x)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ENTRIES)
def test_build_and_as_fraction_parse_entries_alike(x):
    want = parsed(parent_as_fraction, x)
    assert parsed(as_fraction, x) == want
    assert parsed(lambda v: RationalMatrix.build([[v]]).column(1)[0], x) == want


def test_odd_strings_parse_as_before():
    for x in [*ODD_STRINGS, True, False, 1.5]:
        assert parsed(as_fraction, x) == parsed(parent_as_fraction, x), x
    assert parsed(as_fraction, "1/0") == ("error", "zero denominator in '1/0'")
    assert parsed(as_fraction, True) == ("error", "not an exact rational: True")


def test_huge_decimal_exponents_are_refused():
    # Fraction would build 10**exp for each of these
    for x in ["1e4301", "1.5E-999999999", " -2e+1_0000 ", "1e999999999"]:
        assert parsed(as_fraction, x) == ("error", f"decimal exponent of {x!r} exceeds 4300 in magnitude")
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("-3E-4300") == Q(-3, 10**4300)


FRACTION_ROWS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.fractions(), min_size=n, max_size=n), min_size=1, max_size=4)
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(FRACTION_ROWS)
def test_columns_are_in_lowest_terms_and_print_as_fractions(rows):
    m = assert_lowest_terms(RationalMatrix.build(rows))
    assert m.to_json() == {"k": len(rows), "n": len(rows[0]), "rows": [[str(x) for x in row] for row in rows]}
    assert m.rows == tuple(map(tuple, rows))
    assert RationalMatrix.from_json(m.to_json()) == m


def assert_lowest_terms(m):
    for c, d in zip(m.columns, m.scales):
        assert len(c) == m.k and d > 0 and gcd(*c, d) == 1, (c, d)
    return m


def test_equal_values_give_equal_matrices():
    a = RationalMatrix.build([["1/2", "2/4", 0], ["-0", 3, "-6/4"]])
    b = RationalMatrix.build([[Q(1, 2), "1/2", "0/5"], [0, "6/2", Q(-3, 2)]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.k, a.columns, a.scales) == (2, ((1, 0), (1, 6), (0, -3)), (2, 2, 2))
    assert a != RationalMatrix.build([["1/2", "1/2", 0], [0, "7/2", "-3/2"]])
    assert RationalMatrix(a.rows) == a
    empty = RationalMatrix(())
    assert (empty.k, empty.n, empty.rows) == (0, 0, ())


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 2], []]])
def test_ragged_rows_raise_in_both_constructors(rows):
    for construct in (RationalMatrix, RationalMatrix.build):
        with pytest.raises(ValueError, match="^ragged rows$"):
            construct(rows)


@pytest.mark.parametrize("rows", [[], [[]], [[], []]])
def test_build_refuses_an_empty_matrix(rows):
    with pytest.raises(ValueError, match="^empty matrix$"):
        RationalMatrix.build(rows)
    assert RationalMatrix(rows).n == 0


# -- reference: the Fraction rows whose columns every kernel call cleared of
# denominators again, on the same elimination kernel --


def cleared(rows):
    """Columns 1..n of Fraction rows times their denominators' lcm, and those lcms."""
    return tuple(zip(*(_integer_column(column) for column in zip(*rows))))


def reference_minors(rows, subsets):
    columns, scales = cleared(rows)
    return [
        linalg._determinant([columns[a - 1] for a in I], [scales[a - 1] for a in I]) for I in subsets
    ]


def reference_pluecker(rows):
    subsets = list(combinations(range(1, len(rows[0]) + 1), len(rows)))
    return dict(zip(subsets, reference_minors(rows, subsets)))


def reference_necklace(rows):
    _, forward = linalg._forward_scans(cleared(rows)[0])
    pi = perm_from_necklace(forward)
    return pi, forward, necklace_from_perm(pi, "reverse")


def reference_twist(rows, direction):
    columns, scales = cleared(rows)
    if not any(map(any, columns)):
        raise PreconditionError("matrix is rank deficient")
    step = 1 if direction == "right" else -1
    new_columns = []
    for a, c in enumerate(columns):
        if any(c):
            X, D = linalg._scan(columns, a, step)[1].dual(scales[a])
            new_columns.append([Q(x, D) for x in X])
        else:
            new_columns.append([Q(0)] * len(rows))
    return tuple(zip(*new_columns))


def reference_mu(rows):
    k, n = len(rows), len(rows[0])
    columns, scales = cleared(rows)
    scans, forward = linalg._forward_scans(columns)
    pi = perm_from_necklace(forward)
    neck_minors = [
        Q(permutation_sign(picked) * echelon.determinant(), prod(scales[j] for j in picked))
        for picked, echelon in scans
    ]
    new_columns = []
    for i in range(1, n + 1):
        ratio = neck_minors[i - 1] / neck_minors[i % n]
        exponent = len(implied_window(pi, i)) + (k - 1) * (1 if pi(i) <= n else 0)
        sign = Q(-1) ** (exponent % 2)
        new_columns.append([sign * ratio * row[(pi(i) - 1) % n] for row in rows])
    return tuple(zip(*new_columns))


def outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError as exc:
        return PreconditionError, str(exc)



def unreduced(rng, x):
    """x as a 'p/q' string with p and q times a common factor."""
    t = rng.randint(1, 3)
    return f"{x.numerator * t}/{x.denominator * t}"


def test_stored_columns_match_the_fraction_row_reference():
    # awkward matrices bring zero, parallel and coloop columns; their
    # deficient twins replace a row by a combination of the others
    rng = random.Random(50)
    for k in range(1, 6):
        for n in range(k, 10):
            rows = awkward_rows(rng, k, n)
            cases = [(rows, False)]
            if k > 1:
                r = rng.randrange(k)
                others = [row for i, row in enumerate(rows) if i != r]
                weights = [awkward_entry(rng) for _ in others]
                combo = tuple(sum((w * row[j] for w, row in zip(weights, others)), Q(0)) for j in range(n))
                cases.append((rows[:r] + [combo] + rows[r + 1 :], True))
            for rows, deficient in cases:
                m = RationalMatrix.build([[unreduced(rng, x) for x in row] for row in rows])
                assert m.rows == tuple(rows)
                subsets = [sorted(rng.sample(range(1, n + 1), k)) for _ in range(5)]
                assert minors(m, subsets) == reference_minors(rows, subsets)
                assert pluecker(m).coords == reference_pluecker(rows)
                assert pluecker(m).support() == sorted(I for I, v in reference_pluecker(rows).items() if v)
                necklace = outcome(reference_necklace, rows)
                assert outcome(matrix_necklace, m) == necklace
                # matrices compare by their columns and scales, so equal
                # values must come out in the same lowest terms
                got = [outcome(twist, m, "right"), outcome(twist, m, "left"), outcome(double_twist_mu, m)]
                assert got == [
                    outcome(lambda: RationalMatrix.build(reference_twist(rows, "right"))),
                    outcome(lambda: RationalMatrix.build(reference_twist(rows, "left"))),
                    outcome(lambda: RationalMatrix.build(reference_mu(rows))),
                ]
                for result in got:
                    if isinstance(result, RationalMatrix):
                        assert_lowest_terms(result)
                if deficient:
                    assert necklace[0] is PreconditionError
