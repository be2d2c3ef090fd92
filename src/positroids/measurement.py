"""Boundary measurement, face Plucker maps, monomial maps and their inverses,
monodromy coordinates, the Laurent expansion of twisted Pluckers, and the
commutative-diagram verification harness.

Edge weightings and face vectors are plain dicts of nonzero Fractions keyed
by edge/face id; a point is a ``RationalMatrix``, and face maps read one
maximal minor of it per face, from its stored integer columns.
All identities are checked by exact evaluation.

What depends on the graph alone is built once per graph and memoized on it:
the perfect orientation of the Gale-minimal matching (its arcs, topological
order, sources and column signs) here, and in ``matchings`` the extremal
matchings of every face in each direction and the boundary matrix ∂, whose
columns and counts B_f the inverse monomial map, the Laurent exponents and
the monodromy's edge cycle read.  A call with a weighting or a face vector
does only its arithmetic.

That arithmetic runs on integers, and at most one Fraction is built per
value returned: the path sums keep each vertex's sum as a reduced (numerator,
denominator) pair and build the matrix's integer columns from them, the
monomial map divides the products of a matching's numerators and
denominators, and the inverse map forms each edge weight and the gauge
value from the face values' numerators and denominators.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError
from .linalg import PlueckerVector, Q, RationalMatrix, as_fraction, minor, minors, permutation_sign, pluecker, twist
from .matchings import (
    boundary_matrix,
    enumerate_matchings,
    extremal_matching,
    face_exponents,
    graph_positroid,
    matching_boundary,
)
from .plabic import PlabicGraph


def check_weighting(graph: PlabicGraph, weights: dict) -> dict:
    out = {}
    for e in graph.edges:
        if e not in weights:
            raise ValueError(f"missing weight for edge {e!r}")
        w = as_fraction(weights[e])
        if w == 0:
            raise ValueError(f"zero weight on edge {e!r}")
        out[e] = w
    return out


def monomial(weights: dict, matching: Iterable[str]) -> Fraction:
    """The product of the weights on the matching, as one Fraction of the
    products of their numerators and of their denominators."""
    num = den = 1
    for e in matching:
        w = weights[e]
        num *= w.numerator
        den *= w.denominator
    return Fraction(num, den)


def measure(graph: PlabicGraph, weights: dict) -> PlueckerVector:
    """Partition functions D_I as a total Plucker vector.

    On a reduced graph with k >= 1 they are the maximal minors of the point
    ``boundary_measurement_matrix`` builds from path sums, in polynomial
    time.  A graph that is not reduced need not have the acyclic orientation
    those sums run on, so there, and at k = 0, the monomials are summed over
    every matching, in exponential time; a reduced graph with k = 0 has one.
    """
    weights = check_weighting(graph, weights)
    if graph.k and graph.is_reduced()[0]:
        return pluecker(boundary_measurement_matrix(graph, weights))
    coords = {I: Q(0) for I in combinations(range(1, graph.n + 1), graph.k)}
    matchings = enumerate_matchings(graph)
    if not matchings:
        raise PreconditionError("graph admits no matching")
    for m in matchings:
        coords[matching_boundary(graph, m)] += monomial(weights, m)
    return PlueckerVector(graph.n, graph.k, coords)


class _Orientation(NamedTuple):
    """The perfect orientation of M0, with what its path sums read."""

    m0: frozenset
    steps: tuple  # (tail, ((head, edge, in M0), ...)) for each tail with arcs, in topological order
    sources: tuple  # I_O
    negate: tuple  # per source, per boundary vertex: None at a source, else whether the sign is -1


def _orient(graph: PlabicGraph) -> _Orientation:
    m0 = extremal_matching(graph, graph.boundary_face(graph.n).id, "max")
    arcs = {v: [] for v in [*graph.colors, *graph.boundary_vertices()]}
    indegree = dict.fromkeys(arcs, 0)
    for e in graph.edges:
        white, black = graph._ends_by_color(e)
        tail, head = (black, white) if e in m0 else (white, black)
        arcs[tail].append((head, e, e in m0))
        indegree[head] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:
        for head, _, _ in arcs[v]:
            indegree[head] -= 1
            if indegree[head] == 0:
                order.append(head)
    if len(order) != len(arcs):
        raise AssertionError("the perfect orientation of the Gale-minimal matching has a cycle")
    sources = tuple(i for i in graph.boundary_vertices() if arcs[i])
    negate = tuple(
        tuple(
            None if j in sources else sum(1 for s in sources if min(i, j) < s < max(i, j)) % 2 == 1
            for j in graph.boundary_vertices()
        )
        for i in sources
    )
    steps = tuple((v, tuple(arcs[v])) for v in order if arcs[v])
    return _Orientation(m0, steps, sources, negate)


def boundary_measurement_matrix(graph: PlabicGraph, weights: dict) -> RationalMatrix:
    """The point A of the measurement: D_I = Delta_I(A) for every k-subset I.

    Postnikov's path sums (math/0609764) on a perfect orientation of a
    reduced graph.  The maximal matching M0 of the boundary face at n (its
    upstream wedges) is the only matching whose boundary is I_O, the
    Gale-minimal base for the order 1 < ... < n (Postnikov-Speyer-Williams,
    0706.2501).  So the orientation that M0 defines (edges of M0 from black
    to white, all others from white to black) has no directed cycle, which
    would be an alternating cycle giving a second matching with boundary
    I_O.  Its sources are I_O.  A path's weight is the product of z_e off M0
    and 1/z_e on M0; row r of the path-sum matrix holds the identity in the
    source columns and (-1)^{#sources strictly between i_r and j} times the
    sum of the paths from source i_r to sink j elsewhere.  Its minors are
    D_I over D_{I_O}, the monomial of M0, so A is that matrix with its
    first row times D_{I_O}: the normal form of ``matrix_from_pluecker``, which pivots
    on I_O.  The orientation, its topological order and the signs depend on
    the graph alone and are built once; each call runs only the path sums,
    in O(k E) for E edges.  At k = 0 the point has no rows, and this raises.

    The sums run on reduced integer pairs (numerator, denominator): a
    product cancels across as Fraction's own does, with two gcds, and a sum
    follows Henrici's rule, which divides by the gcd of the denominators
    first.  A denominator may be negative (1/z_e for z_e < 0); the
    identities hold all the same.  Each column of A is built from its pairs
    with one lcm and one gcd, which also makes its scale positive.
    """
    if not graph.k:
        raise PreconditionError("k = 0: the point has no rows")
    weights = check_weighting(graph, weights)
    plan = graph._memo("orientation", lambda: _orient(graph))
    steps = []
    for v, arcs in plan.steps:
        pairs = []
        for head, e, inverted in arcs:
            num, den = weights[e].as_integer_ratio()
            pairs.append((head, den, num) if inverted else (head, num, den))
        steps.append((v, pairs))
    rows = []
    for source, negate in zip(plan.sources, plan.negate):
        paths = {source: (1, 1)}
        for v, arcs in steps:
            pn, pd = paths.get(v, (0, 1))
            if not pn:
                continue
            for head, wn, wd in arcs:
                # the path sum at v times the arc's weight, plus the sum at head so far
                g1, g2 = gcd(pn, wd), gcd(wn, pd)
                num, den = (pn // g1) * (wn // g2), (pd // g2) * (wd // g1)
                old = paths.get(head)
                if old is not None:
                    on, od = old
                    g = gcd(od, den)
                    if g == 1:
                        num, den = on * den + od * num, od * den
                    else:
                        s = od // g
                        t = on * (den // g) + num * s
                        g = gcd(t, g)
                        num, den = t // g, s * (den // g)
                paths[head] = (num, den)
        row = []
        for j, odd in enumerate(negate, 1):
            if odd is None:
                row.append((1 if j == source else 0, 1))
            else:
                num, den = paths.get(j, (0, 1))
                row.append((-num if odd else num, den))
        rows.append(row)
    p, q = monomial(weights, plan.m0).as_integer_ratio()
    rows[0] = [(num * p, den * q) for num, den in rows[0]]
    return RationalMatrix.of_ratios(len(rows), zip(*rows))


def gauge_apply(graph: PlabicGraph, weights: dict, gauge: dict) -> dict:
    """Scale each edge by the gauge values at its internal endpoints; only
    the edges at the gauged vertices are multiplied."""
    out = {e: as_fraction(weights[e]) for e in graph.edges}
    for x, value in gauge.items():
        if graph.is_boundary(x) or not graph.incident(x):
            continue
        value = as_fraction(value)
        for e in graph.incident(x):
            out[e] *= value
    return out


def matrix_from_pluecker(p: PlueckerVector) -> RationalMatrix:
    """A k x n matrix whose maximal minors reproduce the vector exactly.

    Pivot on the lexicographically first subset of the support, which for a
    matroid is its Gale-minimal basis; entries are ratios of Pluckers with
    one row rescaled to fix the global scale.  The construction is verified
    before returning, so a vector off the Plucker relations raises.
    """
    support = p.support()
    if not support:
        raise PreconditionError("all Plucker coordinates are zero")
    pivot = support[0]
    scale = p[pivot]
    rows = []
    for r, i_r in enumerate(pivot):
        row = []
        for c in range(1, p.n + 1):
            members = list(pivot)
            members[r] = c
            if len(set(members)) < len(members):
                row.append(Q(1) if c == i_r else Q(0))
                continue
            row.append(permutation_sign(members) * p[members] / scale)
        rows.append(row)
    rows[0] = [x * scale for x in rows[0]]
    matrix = RationalMatrix.build(rows)
    if pluecker(matrix) != p:
        raise PreconditionError("coordinates do not satisfy the Plucker relations")
    return matrix


def face_pluecker(graph: PlabicGraph, point: RationalMatrix, mode: str) -> dict:
    """Face vector of a point's Plucker coordinates at the source or target
    labels: one maximal minor of the matrix's integer columns per face."""
    labels = graph.face_labels(mode)
    out = dict(zip(labels, minors(point, labels.values())))
    for fid, value in out.items():
        if value == 0:
            raise PreconditionError(f"Plucker coordinate at face {fid} ({labels[fid]}) vanishes")
    return out


def monomial_map(graph: PlabicGraph, weights: dict, direction: str) -> dict:
    """Face coordinates z^{-M(f)} for the extremal matchings of each face."""
    weights = check_weighting(graph, weights)
    nums = {e: w.numerator for e, w in weights.items()}
    dens = {e: w.denominator for e, w in weights.items()}
    out = {}
    for f in graph.faces():
        m = extremal_matching(graph, f.id, direction)
        out[f.id] = Fraction(prod(map(dens.__getitem__, m)), prod(map(nums.__getitem__, m)))
    return out


def boundary_partial(graph: PlabicGraph, face_vector: dict, direction: str) -> dict:
    """Inverse of the monomial map: an edge weighting.

    The raw inverse weights an edge by the reciprocal of the face coordinates
    in its column of the boundary matrix ∂ of the chosen wedge direction; a
    single gauge factor prod_f x_f^{B_f - 1} applied at the least internal
    vertex restores the correct class, so every matching monomial is exact.
    ∂ and the counts B_f depend on the graph alone and are built once per
    direction (``matchings.boundary_matrix``).  With x_f = p_f / q_f, an
    edge weight is one Fraction of the products of the q's and of the p's,
    and the gauge value one of two integer products.
    """
    graph.require_reduced()
    x = {fid: as_fraction(v).as_integer_ratio() for fid, v in face_vector.items()}
    plan = boundary_matrix(graph, direction)
    weights = {}
    for e, faces in plan.divisors.items():
        p, q = x[faces[0]]
        if len(faces) == 2:
            p2, q2 = x[faces[1]]
            p, q = p * p2, q * q2
        weights[e] = Fraction(q, p)
    # every face of a reduced graph has B_f >= 1 directly-downstream edges
    num = prod(x[fid][0] ** (len(h) - 1) for fid, h in plan.halves.items())
    den = prod(x[fid][1] ** (len(h) - 1) for fid, h in plan.halves.items())
    return gauge_apply(graph, weights, {min(graph.colors): Fraction(num, den)})


def gauge_fix(graph: PlabicGraph, weights: dict, targets: dict) -> dict:
    """The gauge transform of ``weights`` whose value on each target edge is
    as prescribed; raises if the constraints do not pin the gauge or clash."""
    weights = check_weighting(graph, weights)
    want = {e: as_fraction(v) for e, v in targets.items()}
    gauge: dict = {}
    changed = True
    while changed:
        changed = False
        for e, value in want.items():
            u, w = graph.edges[e]
            free = [x for x in (u, w) if not graph.is_boundary(x) and x not in gauge]
            known = Q(1)
            for x in (u, w):
                if not graph.is_boundary(x) and x in gauge:
                    known *= gauge[x]
            if len(free) == 1:
                gauge[free[0]] = value / (weights[e] * known)
                changed = True
            elif not free and weights[e] * known != value:
                raise ValueError(f"gauge constraints clash at edge {e!r}")
    missing = set(graph.colors) - set(gauge)
    if missing:
        raise ValueError(f"gauge not determined at vertices {sorted(missing)}")
    return gauge_apply(graph, weights, gauge)


def face_edge_cycle(graph: PlabicGraph, face_id: str) -> list[str]:
    """Edges of an internal face in cyclic order starting at the lexicographic
    least edge whose directly-downstream face is this one."""
    face = graph.face_by_id(face_id)
    if face.kind != "internal":
        raise ValueError(f"face {face_id} is not internal")
    half = boundary_matrix(graph, "min").halves[face_id]
    if not half:
        raise AssertionError("face has no directly-downstream edge")
    cycle = list(face.edges)
    idx = cycle.index(min(half))
    return cycle[idx:] + cycle[:idx]


def monodromy(graph: PlabicGraph, weights: dict, face_id: str) -> Fraction:
    """Alternating product of the face's edge weights.

    The first edge in the cycle carries exponent -1; by the alternation the
    result is independent of traversal direction, and it is invariant under
    the full gauge group.
    """
    weights = check_weighting(graph, weights)
    cycle = face_edge_cycle(graph, face_id)
    out = Q(1)
    for i, e in enumerate(cycle, start=1):
        out *= weights[e] if i % 2 == 0 else 1 / weights[e]
    return out


def monodromy_from_neighbors(graph: PlabicGraph, weights: dict, face_id: str) -> Fraction:
    """The same quantity as a product of neighboring minimal-matching monomials."""
    weights = check_weighting(graph, weights)
    cycle = face_edge_cycle(graph, face_id)
    out = Q(1)
    for i, e in enumerate(cycle, start=1):
        neighbor = next(fid for fid in graph.edge_faces(e) if fid != face_id)
        value = monomial(weights, extremal_matching(graph, neighbor, "min"))
        out *= value if i % 2 == 0 else 1 / value
    return out


@dataclass(frozen=True)
class LaurentTerm:
    matching: frozenset
    exponents: dict  # face id -> int

    def evaluate(self, face_values: dict) -> Fraction:
        out = Q(1)
        for fid, exp in self.exponents.items():
            out *= as_fraction(face_values[fid]) ** exp
        return out


def twisted_pluecker_laurent(graph: PlabicGraph, subset: Sequence[int]) -> list[LaurentTerm]:
    """Terms of Delta_J of the left twist as a Laurent polynomial in the
    source-label face Pluckers; one term per matching with boundary J."""
    graph.require_reduced()
    J = tuple(sorted(subset))
    terms = []
    for m in enumerate_matchings(graph, J):
        exponents = {fid: -x for fid, x in face_exponents(graph, m).items()}
        terms.append(LaurentTerm(m, exponents))
    return terms


def random_weighting(graph: PlabicGraph, rng: random.Random) -> dict:
    """Numerator and denominator independently uniform in [1, 1000], assigned
    in sorted edge-id order so a seed fixes the weighting on every platform."""
    return {
        e: Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        for e in sorted(graph.edges)
    }


def _outcome(check: str, trial: int, z: dict, failure) -> dict:
    """A report entry; a failure adds the weighting and the failure's details."""
    entry = {"check": check, "trial": trial, "status": "pass"}
    if failure is not None:
        entry.update(status="fail", witness={e: str(v) for e, v in z.items()}, **failure)
    return entry


def _square_failure(labels: dict, got: dict, want: dict):
    """The first face, in face order, where the face vectors differ."""
    for fid, value in want.items():
        if got[fid] != value:
            return {"face": fid, "label": list(labels[fid]), "expected": str(value), "actual": str(got[fid])}
    return None


def _entry_failure(want: RationalMatrix, got: RationalMatrix) -> dict:
    """The first entry, by rows, where two matrices of one shape differ."""
    r, c = next(
        (r, c)
        for r, (a, b) in enumerate(zip(want.rows, got.rows))
        for c, (x, y) in enumerate(zip(a, b))
        if x != y
    )
    return {"entry": [r + 1, c + 1], "expected": str(want.rows[r][c]), "actual": str(got.rows[r][c])}


def verify_diagram(graph: PlabicGraph, seed: int = 0, trials: int = 3) -> list[dict]:
    """Exact checks of the main commutative diagram at seeded random weights.

    Per trial: the two squares of the diagram, inversion of the boundary
    measurement through the right square, and the Laurent expansion of three
    random twisted Pluckers.  Failures are reported, not raised: a failed
    entry carries the weighting, and a failed square also its first face,
    that face's label and the expected and actual values; a failed
    inversion the first entry of the point that differs; a failed Laurent
    check both values.

    The point is ``boundary_measurement_matrix``, whose minors are the
    measurement; the face maps read minors of it and its twists.  The
    weights of the inverse monomial map at its source-label face values
    multiply over each matching to that matching's Laurent term, so the term
    sum at J is the minor at J of their point.
    Each J is drawn from the graph's positroid: at positive weights its
    twisted coordinate cannot vanish, so a zero is a broken invariant.  No
    matching is listed: the term list of ``twisted_pluecker_laurent``
    serves the ``laurent`` subcommand and the tests.  Every step that
    depends on the graph alone is built on the first trial and memoized.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    graph.require_reduced()
    bases = graph_positroid(graph).bases
    rng = random.Random(seed)
    report = []
    for trial in range(trials):
        z = random_weighting(graph, rng)
        A = boundary_measurement_matrix(graph, z)
        right = twist(A, "right")
        left = twist(A, "left")

        right_source = face_pluecker(graph, right, "source")
        failure = _square_failure(graph.face_labels("source"), right_source, monomial_map(graph, z, "min"))
        report.append(_outcome("right-square", trial, z, failure))

        got = face_pluecker(graph, left, "target")
        failure = _square_failure(graph.face_labels("target"), got, monomial_map(graph, z, "max"))
        report.append(_outcome("left-square", trial, z, failure))

        # equal points are equal measurements, which on a reduced graph
        # means equal monomials on every matching: the measurement is
        # injective on gauge classes
        again = boundary_measurement_matrix(graph, boundary_partial(graph, right_source, "min"))
        failure = None if again == A else _entry_failure(A, again)
        report.append(_outcome("inversion", trial, z, failure))

        B = boundary_measurement_matrix(graph, boundary_partial(graph, face_pluecker(graph, A, "source"), "min"))
        picks = [bases[rng.randrange(len(bases))] for _ in range(3)]
        for J in picks:
            want, got = minor(left, J), minor(B, J)
            if want == 0:  # 0 = 0 would check nothing
                raise AssertionError(f"twisted Plucker coordinate at {J} vanishes at positive weights")
            failure = None if want == got else {"expected": str(want), "actual": str(got)}
            sep = "," if J[-1] >= 10 else ""  # as laurent --J reads J, once bare digits are ambiguous
            report.append(_outcome(f"laurent-{sep.join(map(str, J))}", trial, z, failure))
    return report
