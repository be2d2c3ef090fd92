import functools
import random
from itertools import combinations, pairwise

import pytest

from conftest import all_bounded_affine, plan_graphs, random_bounded_affine
from positroids import fixtures
from positroids.core import (
    BoundedAffinePermutation,
    GrassmannNecklace,
    Positroid,
    gale_key,
    gale_leq,
    gale_min,
    length,
    necklace_from_bases,
    necklace_from_perm,
    perm_from_necklace,
    pi_implies,
    positroid_from_necklace,
)
from positroids.matchings import graph_positroid
from positroids.moves import synthesize

SCHUBERT_BASES = [b for b in combinations(range(1, 7), 3) if b != (1, 2, 3)]
SCHUBERT_NECKLACE = ((1, 2, 4), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6))
SCHUBERT_PI = (3, 5, 6, 7, 8, 10)


def brute_gale_min(bases, a, n):
    # independent oracle: scan all bases for one below every other
    keys = {b: gale_key(b, a, n) for b in bases}
    for b in bases:
        if all(all(x <= y for x, y in zip(keys[b], keys[c])) for c in bases):
            return b
    raise AssertionError("no minimum")


def test_gale_min_schubert_divisor():
    assert gale_min(SCHUBERT_BASES, 1, 6) == (1, 2, 4)
    assert gale_min(SCHUBERT_BASES, 1, 6) == brute_gale_min(SCHUBERT_BASES, 1, 6)


def test_gale_min_singleton():
    assert gale_min([(1, 2)], 2, 4) == (1, 2)


def test_gale_min_uniform():
    bases = list(combinations(range(1, 5), 2))
    assert gale_min(bases, 3, 4) == (3, 4)
    for a in range(1, 5):
        assert gale_min(bases, a, 4) == brute_gale_min(bases, a, 4)


def test_gale_leq_is_partial_order():
    bases = list(combinations(range(1, 6), 2))
    for a in range(1, 6):
        for b in bases:
            assert gale_leq(b, b, a, 5)
        for b in bases:
            for c in bases:
                if gale_leq(b, c, a, 5) and gale_leq(c, b, a, 5):
                    assert b == c


def test_necklace_from_bases_forward():
    neck = necklace_from_bases(SCHUBERT_BASES, 6, "forward")
    assert neck.elements == SCHUBERT_NECKLACE
    neck.check()


def test_necklace_from_bases_uniform():
    neck = necklace_from_bases(list(combinations(range(1, 5), 2)), 4, "forward")
    assert neck.elements == ((1, 2), (2, 3), (3, 4), (1, 4))


def test_necklace_single_basis_constant():
    neck = necklace_from_bases([(1, 3)], 4, "forward")
    assert neck.elements == ((1, 3),) * 4


def test_perm_from_necklace():
    neck = GrassmannNecklace(SCHUBERT_NECKLACE, 6)
    assert perm_from_necklace(neck).values == SCHUBERT_PI


def test_perm_from_necklace_uniform():
    neck = GrassmannNecklace(((1, 2), (2, 3), (3, 4), (1, 4)), 4)
    assert perm_from_necklace(neck).values == (3, 4, 5, 6)


def test_perm_fixed_point_rule():
    # a missing from I_a with I_a = I_{a+1} forces pi(a) = a
    neck = GrassmannNecklace(((1,), (3,), (3,)), 3)
    pi = perm_from_necklace(neck)
    assert pi.values == (3, 2, 4)


def test_necklace_from_perm_round_trip():
    pi = BoundedAffinePermutation(SCHUBERT_PI)
    assert necklace_from_perm(pi).elements == SCHUBERT_NECKLACE


def test_necklace_from_perm_top_and_bottom():
    top = BoundedAffinePermutation((4, 5, 6))
    assert necklace_from_perm(top).elements == ((1, 2, 3),) * 3
    bottom = BoundedAffinePermutation((1, 2, 3, 4))
    assert necklace_from_perm(bottom).elements == ((),) * 4


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_necklace_round_trip_exhaustive(n):
    for pi in all_bounded_affine(n):
        assert perm_from_necklace(necklace_from_perm(pi)).values == pi.values


def test_positroid_from_necklace_schubert():
    pos = positroid_from_necklace(GrassmannNecklace(SCHUBERT_NECKLACE, 6))
    assert pos.bases == tuple(sorted(frozenset(SCHUBERT_BASES)))
    assert len(pos.bases) == 19
    # graph_positroid lists the walk's bases in strictly increasing order, and
    # they are the Gale-key oracle's, on every fixture, 40 seeded cells with
    # n <= 9 and the top cells Gr(4,8), Gr(5,10) and Gr(6,12)
    rng = random.Random(26)
    graphs = [*map(fixtures.load, sorted(fixtures.NAMES))]
    graphs += [synthesize(random_bounded_affine(n, rng)) for n in range(6, 10) for _ in range(10)]
    graphs += [synthesize(BoundedAffinePermutation(tuple(range(k + 1, 3 * k + 1)))) for k in (4, 5, 6)]
    for g in graphs:
        bases = graph_positroid(g).bases
        assert all(a < b for a, b in pairwise(bases)), g.trip_permutation().values
        assert bases == tuple(sorted(gale_key_positroid(necklace_from_perm(g.trip_permutation()))))


def gale_key_positroid(neck):
    """The oracle for ``positroid_from_necklace``: every k-subset J whose
    sorted Gale key from each a lies componentwise above I_a's."""
    n, k = neck.n, neck.k
    keys = [gale_key(neck.element(a), a, n) for a in range(1, n + 1)]
    return frozenset(
        J
        for J, J_keys in subset_gale_keys(n, k).items()
        if all(all(x <= y for x, y in zip(key, J_key)) for key, J_key in zip(keys, J_keys))
    )


@functools.cache
def subset_gale_keys(n, k):
    """Each k-subset of [n] -> its Gale keys from a = 1, ..., n."""
    return {J: [gale_key(J, a, n) for a in range(1, n + 1)] for J in combinations(range(1, n + 1), k)}


@pytest.mark.parametrize("n", range(1, 8))
def test_positroid_from_necklace_matches_gale_keys(n):
    # the interval-count test against the sorted Gale keys, on every necklace
    for pi in all_bounded_affine(n):
        neck = necklace_from_perm(pi)
        pos = positroid_from_necklace(neck)
        assert pos.bases == tuple(sorted(gale_key_positroid(neck))), pi.values
        assert pos.forward_necklace() is neck


def test_positroid_from_necklace_uniform():
    neck = GrassmannNecklace(((1, 2), (2, 3), (3, 4), (1, 4)), 4)
    assert len(positroid_from_necklace(neck).bases) == 6


def test_positroid_from_necklace_single_basis():
    neck = necklace_from_bases([(2, 4)], 5, "forward")
    assert positroid_from_necklace(neck).bases == tuple(sorted(frozenset({(2, 4)})))


def test_length_schubert_is_codimension_one():
    assert length(BoundedAffinePermutation(SCHUBERT_PI)) == 1


def test_length_uniform_is_zero():
    for n, k in ((4, 2), (5, 2), (6, 3)):
        pi = BoundedAffinePermutation(tuple(a + k for a in range(1, n + 1)))
        assert length(pi) == 0


def test_pi_implies_irreflexive():
    pi = BoundedAffinePermutation(SCHUBERT_PI)
    for a in range(1, 7):
        assert not pi_implies(pi, a, a)


def test_reverse_necklace_matches_inverse_permutation():
    # the reverse necklace read through the mirrored rule recovers pi^{-1}
    pi = BoundedAffinePermutation(SCHUBERT_PI)
    rev = necklace_from_perm(pi, "reverse")
    assert rev.elements == necklace_from_bases(SCHUBERT_BASES, 6, "reverse").elements
    rev.check()
    for a in range(1, 7):
        cur, prev = set(rev.element(a)), set(rev.element(a - 1))
        if a in cur:
            gained = prev - (cur - {a})
            assert len(gained) == 1
            residue = gained.pop()
            lift = residue if residue < a else residue - 6
            assert lift == pi.inverse_value(a)
        else:
            assert pi.inverse_value(a) == a


def test_reverse_necklace_from_perm_matches_bases():
    # Positroid.reverse_necklace reads the necklace off pi; the oracle takes
    # the Gale maximum of the bases from each position
    for g in plan_graphs():
        pos = positroid_from_necklace(necklace_from_perm(g.trip_permutation()))
        rev = pos.reverse_necklace()
        assert rev == necklace_from_bases(pos.bases, g.n, "reverse"), g.n


def test_positroid_is_its_forward_necklace():
    # the Gale minima of the walk's bases give back the necklace it walked, so
    # equal necklaces are equal positroids with the same bases
    for g in plan_graphs():
        pos = graph_positroid(g)
        again = Positroid(necklace_from_bases(pos.bases, pos.n))
        assert again == pos and again.bases == pos.bases, g.trip_permutation().values
        assert (again.n, again.k) == (g.n, g.k)


def test_positroid_refuses_a_reverse_necklace():
    with pytest.raises(ValueError, match="forward necklace"):
        Positroid(necklace_from_perm(BoundedAffinePermutation(SCHUBERT_PI), "reverse"))


@pytest.mark.parametrize(
    "direction, elements, position",
    [
        # I_2 = 235 drops 4 of I_1 - {1} = 24
        ("forward", ((1, 2, 4), (2, 3, 5), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6)), 1),
        # I_3 - {3} = 25 is not inside I_2 = 126
        ("reverse", ((1, 5, 6), (1, 2, 6), (2, 3, 5), (2, 3, 4), (3, 4, 5), (4, 5, 6)), 3),
    ],
)
def test_broken_necklace_is_refused_when_built(direction, elements, position):
    with pytest.raises(ValueError, match=f"necklace condition fails at position {position}$"):
        GrassmannNecklace(elements, 6, direction)


def inverse_by_search(pi, b):
    """pi^{-1}(b) from the window position whose value has b's residue."""
    for a in range(1, pi.n + 1):
        v = pi(a)
        if (v - b) % pi.n == 0:
            return a + (b - v)
    raise AssertionError("residues form a permutation")


@pytest.mark.parametrize("n", range(1, 5))
def test_inverse_window_matches_inverse_value(n):
    for pi in all_bounded_affine(n):
        assert pi.inverse_window() == tuple(pi.inverse_value(b) for b in range(1, n + 1))
        for b in range(-n, 2 * n + 1):
            assert pi.inverse_value(b) == inverse_by_search(pi, b), (pi.values, b)


def test_type_consistency():
    pi = BoundedAffinePermutation(SCHUBERT_PI)
    assert pi.k == 3
    for e in necklace_from_perm(pi).elements:
        assert len(e) == 3


def test_invalid_permutations_rejected():
    with pytest.raises(ValueError):
        BoundedAffinePermutation((0, 2, 3))
    with pytest.raises(ValueError):
        BoundedAffinePermutation((3, 3, 4))
    with pytest.raises(ValueError):
        BoundedAffinePermutation((9, 2, 3))


def test_empty_bases_rejected():
    with pytest.raises(ValueError):
        gale_min([], 1, 4)
