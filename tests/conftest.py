import sys
from itertools import permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from positroids import fixtures  # noqa: E402
from positroids.core import BoundedAffinePermutation  # noqa: E402
from positroids.moves import synthesize  # noqa: E402


def all_bounded_affine(n):
    """Every bounded affine permutation of type (k, n), over all k: each
    permutation of [n] with each fixed point a lifted to a or to a + n."""
    out = []
    for perm in permutations(range(1, n + 1)):
        lifts = [(a, a + n) if r == a else (r if r > a else r + n,) for a, r in enumerate(perm, 1)]
        out += (BoundedAffinePermutation(values) for values in product(*lifts))
    return out


def random_bounded_affine(n, rng):
    """A random bounded affine permutation of [n] by the same rule: a shuffled
    [n], with each fixed point lifted to a or to a + n by a coin."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return BoundedAffinePermutation(
        tuple(rng.choice((a, a + n)) if r == a else r if r > a else r + n for a, r in enumerate(perm, 1))
    )


def plan_graphs():
    """Every fixture, every cell with n <= 5 and the top cells Gr(3,6)...Gr(7,14)."""
    yield from map(fixtures.load, sorted(fixtures.NAMES))
    for n in range(1, 6):
        yield from map(synthesize, all_bounded_affine(n))
    for k in range(3, 8):
        yield synthesize(BoundedAffinePermutation(tuple(range(k + 1, 3 * k + 1))))


@pytest.fixture(scope="session")
def square4():
    return fixtures.load("square4")


@pytest.fixture(scope="session")
def schubert36():
    return fixtures.load("schubert36")


@pytest.fixture(scope="session")
def d4():
    return fixtures.load("d4")


@pytest.fixture(scope="session")
def tri6():
    return fixtures.load("tri6")


@pytest.fixture(scope="session")
def chamber_graph():
    return fixtures.load("chamber_s2s1s2")
