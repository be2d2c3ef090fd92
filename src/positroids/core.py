"""Cyclic Gale orders, Grassmann necklaces and bounded affine permutations.

Subsets of [n] = {1, ..., n} are represented as sorted tuples of ints.
All boundary indices are 1-based.  A bounded affine permutation of type
(k, n) is stored by its window values (pi(1), ..., pi(n)) and extended
n-periodically, so decorated fixed points are encoded by the value itself:
pi(a) = a is a "black" fixed point and pi(a) = a + n a "white" one.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


def ksubset(members: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate and normalize a subset of [n] to a sorted tuple."""
    t = tuple(sorted(members))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated members in {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"members of {t} not all in [1, {n}]")
    return t


def cyclic_rank(x: int, a: int, n: int) -> int:
    """Position of x in the shifted order a < a+1 < ... < n < 1 < ... < a-1."""
    return (x - a) % n


def gale_key(subset: Sequence[int], a: int, n: int) -> tuple[int, ...]:
    """Members of ``subset`` as sorted cyclic ranks for the order starting at a."""
    return tuple(sorted(cyclic_rank(x, a, n) for x in subset))


def gale_leq(lhs: Sequence[int], rhs: Sequence[int], a: int, n: int) -> bool:
    """Componentwise comparison in the cyclic Gale order starting at a."""
    if len(lhs) != len(rhs):
        raise ValueError("subsets of different sizes are incomparable")
    return all(x <= y for x, y in zip(gale_key(lhs, a, n), gale_key(rhs, a, n)))


def gale_min(bases: Iterable[Sequence[int]], a: int, n: int) -> tuple[int, ...]:
    """The unique Gale-minimal subset for the order starting at a."""
    return _gale_extreme(bases, a, n, min)


def gale_max(bases: Iterable[Sequence[int]], a: int, n: int) -> tuple[int, ...]:
    """The unique Gale-maximal subset for the order starting at a."""
    return _gale_extreme(bases, a, n, max)


def _gale_extreme(bases, a: int, n: int, pick) -> tuple[int, ...]:
    """Computed by brute force: the componentwise ``pick`` (min or max) of all
    keys must itself be attained by a member of ``bases``; for matroids this
    always holds."""
    items = [tuple(sorted(b)) for b in bases]
    if not items:
        raise ValueError("empty basis set")
    keys = {b: gale_key(b, a, n) for b in items}
    bound = tuple(pick(col) for col in zip(*keys.values()))
    for b, key in keys.items():
        if key == bound:
            return b
    extreme = "minimum" if pick is min else "maximum"
    raise ValueError(f"no Gale {extreme} at position {a}; not a matroid?")


@dataclass(frozen=True)
class GrassmannNecklace:
    """Sequence I_1, ..., I_n of k-subsets, forward or reverse flavored."""

    elements: tuple[tuple[int, ...], ...]
    n: int
    direction: str = "forward"

    def __post_init__(self):
        if self.direction not in ("forward", "reverse"):
            raise ValueError(f"bad direction {self.direction!r}")
        if len(self.elements) != self.n:
            raise ValueError("necklace must have one element per position")
        sizes = {len(e) for e in self.elements}
        if len(sizes) > 1:
            raise ValueError("necklace elements of mixed sizes")

    @property
    def k(self) -> int:
        return len(self.elements[0])

    def element(self, a: int) -> tuple[int, ...]:
        """I_a, indices taken mod n."""
        return self.elements[(a - 1) % self.n]

    def check(self) -> None:
        """Enforce the defining exchange condition of the necklace."""
        n = self.n
        for a in range(1, n + 1):
            cur = set(self.element(a))
            nxt = set(self.element(a + 1) if self.direction == "forward" else self.element(a - 1))
            if a in cur:
                if not (cur - {a}) <= nxt:
                    raise ValueError(f"necklace condition fails at position {a}")
            else:
                if cur != nxt:
                    raise ValueError(f"necklace condition fails at position {a}")


@dataclass(frozen=True)
class BoundedAffinePermutation:
    """pi with a <= pi(a) <= a+n, stored by the window values pi(1..n)."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0:
            raise ValueError("empty permutation")
        for a, v in enumerate(self.values, start=1):
            if not a <= v <= a + n:
                raise ValueError(f"pi({a}) = {v} out of range [{a}, {a + n}]")
        if sorted(v % n for v in self.values) != sorted(a % n for a in range(1, n + 1)):
            raise ValueError("window values are not a permutation of residues")
        if sum(self.values) % n != sum(range(1, n + 1)) % n:
            raise ValueError("average shift is not an integer")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def k(self) -> int:
        n = self.n
        return (sum(self.values) - n * (n + 1) // 2) // n

    def __call__(self, a: int) -> int:
        n = self.n
        q, r = divmod(a - 1, n)
        return self.values[r] + q * n

    def inverse_value(self, b: int) -> int:
        """pi^{-1}(b); satisfies b - n <= pi^{-1}(b) <= b."""
        n = self.n
        for a in range(1, n + 1):
            v = self(a)
            if (v - b) % n == 0:
                return a + (b - v)
        raise AssertionError("unreachable: residues form a permutation")

    def inverse_window(self) -> tuple[int, ...]:
        return tuple(self.inverse_value(b) for b in range(1, self.n + 1))

    def fixed_color(self, a: int) -> str | None:
        """'black' for pi(a) = a, 'white' for pi(a) = a + n, else None."""
        if self(a) == a:
            return "black"
        if self(a) == a + self.n:
            return "white"
        return None


def pi_implies(pi: BoundedAffinePermutation, a: int, b: int) -> bool:
    """Whether b < a <= pi(a) < pi(b), the alignment relation."""
    return b < a <= pi(a) < pi(b)


def implied_window(pi: BoundedAffinePermutation, a: int) -> list[int]:
    """All integers b with a => b; they lie in the window (pi(a) - n, a)."""
    return [b for b in range(pi(a) - pi.n + 1, a) if pi_implies(pi, a, b)]


def length(pi: BoundedAffinePermutation) -> int:
    """Number of alignment pairs (a, b) with a in [n], b ranging over Z."""
    return sum(len(implied_window(pi, a)) for a in range(1, pi.n + 1))


def perm_from_necklace(neck: GrassmannNecklace) -> BoundedAffinePermutation:
    """Window values of pi from a forward necklace.

    If a is in I_a then pi(a) is the unique lift in (a, a+n] of the element
    that I_{a+1} gains over I_a minus a; otherwise pi(a) = a.
    """
    if neck.direction != "forward":
        raise ValueError("perm_from_necklace expects a forward necklace")
    neck.check()
    n = neck.n
    values = []
    for a in range(1, n + 1):
        cur = set(neck.element(a))
        if a not in cur:
            values.append(a)
            continue
        gained = set(neck.element(a + 1)) - (cur - {a})
        if len(gained) != 1:
            raise ValueError(f"necklace step at {a} does not determine pi({a})")
        residue = gained.pop()
        lift = residue if residue > a else residue + n
        values.append(lift)
    return BoundedAffinePermutation(tuple(values))


def necklace_from_perm(pi: BoundedAffinePermutation, direction: str = "forward") -> GrassmannNecklace:
    """Necklace of pi by the juggling rule.

    Forward: I_a is the set of residues of pi(j) over j < a <= pi(j).
    Reverse: I_a collects the residues of j with j <= a < pi(j).
    """
    n = pi.n
    elements = []
    for a in range(1, n + 1):
        if direction == "forward":
            vals = [pi(j) for j in range(a - n, a) if pi(j) >= a]
        else:
            vals = [j for j in range(a - n + 1, a + 1) if pi(j) > a]
        elements.append(tuple(sorted((v - 1) % n + 1 for v in vals)))
    return GrassmannNecklace(tuple(elements), n, direction)


@dataclass(frozen=True)
class Positroid:
    bases: frozenset[tuple[int, ...]]
    n: int
    k: int

    def __post_init__(self):
        if not self.bases:
            raise ValueError("positroid with no bases")
        for b in self.bases:
            if len(b) != self.k:
                raise ValueError("basis of wrong size")

    def forward_necklace(self) -> GrassmannNecklace:
        return necklace_from_bases(self.bases, self.n, "forward")

    def reverse_necklace(self) -> GrassmannNecklace:
        return necklace_from_bases(self.bases, self.n, "reverse")

    def perm(self) -> BoundedAffinePermutation:
        return perm_from_necklace(self.forward_necklace())


def necklace_from_bases(bases: Iterable[Sequence[int]], n: int, direction: str = "forward") -> GrassmannNecklace:
    """Necklace of Gale-minimal (or, reversed, of Gale-maximal) bases."""
    items = [tuple(sorted(b)) for b in bases]
    if direction == "forward":
        elements = tuple(gale_min(items, a, n) for a in range(1, n + 1))
    elif direction == "reverse":
        elements = tuple(gale_max(items, a + 1, n) for a in range(1, n + 1))
    else:
        raise ValueError(f"bad direction {direction!r}")
    return GrassmannNecklace(elements, n, direction)


def positroid_from_necklace(neck: GrassmannNecklace) -> Positroid:
    """All k-subsets J with I_a <= J in every shifted Gale order (Oh's construction)."""
    if neck.direction != "forward":
        raise ValueError("positroid_from_necklace expects a forward necklace")
    neck.check()
    n, k = neck.n, neck.k
    keys = [gale_key(neck.element(a), a, n) for a in range(1, n + 1)]
    bases = []
    for J in combinations(range(1, n + 1), k):
        if all(
            all(x <= y for x, y in zip(keys[a - 1], gale_key(J, a, n)))
            for a in range(1, n + 1)
        ):
            bases.append(J)
    return Positroid(frozenset(bases), n, k)
