"""Boundary measurement, face Plucker maps, monomial maps and their inverses,
monodromy coordinates, the Laurent expansion of twisted Pluckers, and the
commutative-diagram verification harness.

Edge weightings and face vectors are plain dicts of nonzero Fractions keyed
by edge/face id; a point is a ``RationalMatrix``, and face maps read one
maximal minor of it per face.  All identities are checked by exact evaluation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import gale_min
from .errors import PreconditionError
from .linalg import PlueckerVector, Q, RationalMatrix, as_fraction, minor, permutation_sign, pluecker, twist
from .matchings import (
    enumerate_matchings,
    extremal_matching,
    incidence_data,
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
    out = Q(1)
    for e in matching:
        out *= weights[e]
    return out


def measure(graph: PlabicGraph, weights: dict) -> PlueckerVector:
    """Partition functions D_I as a total Plucker vector.

    On a reduced graph they are the scaled maximal minors of the path-sum
    matrix of the acyclic perfect orientation that the matching with the
    Gale-minimal boundary defines (``boundary_measurement_matrix``), in
    polynomial time.  A graph that is not reduced need not have such an
    orientation, so there the monomials are summed over every matching, in
    exponential time.
    """
    weights = check_weighting(graph, weights)
    if graph.is_reduced()[0]:
        matrix, scale = boundary_measurement_matrix(graph, weights)
        if not matrix.rows:  # k = 0: the one empty minor is 1
            return PlueckerVector(graph.n, 0, {(): scale})
        return pluecker(matrix).scaled(scale)
    coords = {I: Q(0) for I in combinations(range(1, graph.n + 1), graph.k)}
    matchings = enumerate_matchings(graph)
    if not matchings:
        raise PreconditionError("graph admits no matching")
    for m in matchings:
        coords[matching_boundary(graph, m)] += monomial(weights, m)
    return PlueckerVector(graph.n, graph.k, coords)


def boundary_measurement_matrix(
    graph: PlabicGraph, weights: dict
) -> tuple[RationalMatrix, Fraction]:
    """(A, scale) with D_I = scale * Delta_I(A) for every k-subset I.

    Postnikov's path sums (math/0609764) on a perfect orientation of a
    reduced graph.  The maximal matching M0 of the boundary face at n (its
    upstream wedges) is the only matching whose boundary is I_O, the
    Gale-minimal base for the order 1 < ... < n (Postnikov-Speyer-Williams,
    0706.2501).  So the orientation that M0 defines (edges of M0 from black
    to white, all others from white to black) has no directed cycle, which
    would be an alternating cycle giving a second matching with boundary
    I_O.  Its sources are I_O.  A path's weight is the product of z_e off M0
    and 1/z_e on M0; row r of A holds the identity in the source columns and
    (-1)^{#sources strictly between i_r and j} times the sum of the paths
    from source i_r to sink j elsewhere.  The path sums cost O(k E) for E
    edges.  scale is the monomial of M0; for k = 0 the matrix has no rows.
    """
    weights = check_weighting(graph, weights)
    m0 = extremal_matching(graph, graph.boundary_face(graph.n).id, "max")
    arcs = {v: [] for v in [*graph.colors, *graph.boundary_vertices()]}
    indegree = dict.fromkeys(arcs, 0)
    for e, (u, w) in graph.edges.items():
        # a boundary vertex takes the colour opposite to its neighbour's
        white = u if graph.colors.get(u) == "white" or graph.colors.get(w) == "black" else w
        black = w if white == u else u
        if e in m0:
            tail, head, weight = black, white, 1 / weights[e]
        else:
            tail, head, weight = white, black, weights[e]
        arcs[tail].append((head, weight))
        indegree[head] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:
        for head, _ in arcs[v]:
            indegree[head] -= 1
            if indegree[head] == 0:
                order.append(head)
    if len(order) != len(arcs):
        raise AssertionError("the perfect orientation of the Gale-minimal matching has a cycle")
    sources = [i for i in graph.boundary_vertices() if arcs[i]]
    rows = []
    for source in sources:
        paths = {source: Q(1)}
        for v in order:
            total = paths.get(v)
            if total:
                for head, weight in arcs[v]:
                    paths[head] = paths.get(head, 0) + total * weight
        row = []
        for j in graph.boundary_vertices():
            if j in sources:
                row.append(Q(1) if j == source else Q(0))
            else:
                between = sum(1 for s in sources if min(source, j) < s < max(source, j))
                row.append((-1) ** between * paths.get(j, Q(0)))
        rows.append(row)
    matrix = RationalMatrix.build(rows) if rows else RationalMatrix(())
    return matrix, monomial(weights, m0)


def gauge_apply(graph: PlabicGraph, weights: dict, gauge: dict) -> dict:
    """Scale each edge by the gauge values at its internal endpoints."""
    out = {}
    for e, (u, w) in graph.edges.items():
        factor = Q(1)
        for x in (u, w):
            if not graph.is_boundary(x):
                factor *= as_fraction(gauge.get(x, 1))
        out[e] = as_fraction(weights[e]) * factor
    return out


def matrix_from_pluecker(p: PlueckerVector) -> RationalMatrix:
    """A k x n matrix whose maximal minors reproduce the vector exactly.

    Pivot on the Gale-minimal basis at position 1 of the support; entries are
    ratios of Pluckers with one row rescaled to fix the global scale.  The
    construction is verified before returning.
    """
    support = p.support()
    if not support:
        raise PreconditionError("all Plucker coordinates are zero")
    pivot = gale_min(support, 1, p.n)
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
    labels: one maximal minor of the matrix per face."""
    out = {}
    for fid, label in graph.face_labels(mode).items():
        value = minor(point, label)
        if value == 0:
            raise PreconditionError(f"Plucker coordinate at face {fid} ({label}) vanishes")
        out[fid] = value
    return out


def monomial_map(graph: PlabicGraph, weights: dict, direction: str) -> dict:
    """Face coordinates z^{-M(f)} for the extremal matchings of each face."""
    weights = check_weighting(graph, weights)
    return {
        f.id: 1 / monomial(weights, extremal_matching(graph, f.id, direction))
        for f in graph.faces()
    }


def boundary_partial(graph: PlabicGraph, face_vector: dict, direction: str):
    """Inverse of the monomial map, as (weights, gauge note).

    The raw inverse weights an edge by the reciprocal of its incident face
    coordinates (via the boundary matrix of the chosen wedge direction); a
    single gauge factor prod_f x_f^{B_f - 1} applied at one recorded vertex
    restores the correct class, so every matching monomial is exact.
    """
    graph.require_reduced()
    x = {fid: as_fraction(v) for fid, v in face_vector.items()}
    if direction == "min":
        dd = {e: graph.directly_downstream(e) for e in graph.edges}
    elif direction == "max":
        dd = {e: graph.directly_upstream(e) for e in graph.edges}
    else:
        raise ValueError(f"bad direction {direction!r}")
    weights = {}
    for e, (u, w) in graph.edges.items():
        external = graph.is_boundary(u) or graph.is_boundary(w)
        if external:
            value = 1 / x[dd[e]]
        else:
            adjacent = graph.edge_faces(e)
            if len(adjacent) == 1:  # lollipop edge: face on both sides
                adjacent = adjacent * 2
            value = 1 / (x[adjacent[0]] * x[adjacent[1]])
        weights[e] = value
    b = {}
    for e in graph.edges:
        b[dd[e]] = b.get(dd[e], 0) + 1
    gauge_value = Q(1)
    for f in graph.faces():
        gauge_value *= x[f.id] ** (b.get(f.id, 0) - 1)
    vertex = min(graph.colors)
    weights = gauge_apply(graph, weights, {vertex: gauge_value})
    return weights, {"vertex": vertex, "factor": gauge_value}


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
    cycle = list(face.edges)
    starts = [e for e in cycle if graph.directly_downstream(e) == face_id]
    if not starts:
        raise AssertionError("face has no directly-downstream edge")
    start = min(starts)
    idx = cycle.index(start)
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
    data = incidence_data(graph)
    terms = []
    for m in enumerate_matchings(graph, J):
        exponents = {fid: -x for fid, x in data.face_exponents(m).items()}
        terms.append(LaurentTerm(m, exponents))
    return terms


def random_weighting(graph: PlabicGraph, rng: random.Random) -> dict:
    """Numerator and denominator independently uniform in [1, 1000], assigned
    in sorted edge-id order so a seed fixes the weighting on every platform."""
    return {
        e: Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        for e in sorted(graph.edges)
    }


def verify_diagram(graph: PlabicGraph, seed: int = 0, trials: int = 3) -> list[dict]:
    """Exact checks of the main commutative diagram at seeded random weights.

    Per trial: the two squares of the diagram, inversion of the boundary
    measurement through the right square, and the Laurent expansion of three
    random twisted Pluckers.  Failures are reported, not raised.

    The point is the path-sum matrix with its first row times the scale, so
    its minors are the measurement; the face maps read minors of it and its
    twists.  The weights of the inverse monomial map at its source-label
    face values multiply over each matching to that matching's Laurent
    term, so the term sum at J is their measurement at J, from path sums.
    No matching is listed: the term list of ``twisted_pluecker_laurent``
    serves the ``laurent`` subcommand and the tests.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    graph.require_reduced()
    if graph.k == 0:
        raise PreconditionError("k = 0: the point has no matrix to twist")
    rng = random.Random(seed)
    report = []
    for trial in range(trials):
        z = random_weighting(graph, rng)
        network = boundary_measurement_matrix(graph, z)
        matrix, scale = network
        A = RationalMatrix((tuple(scale * x for x in matrix.rows[0]), *matrix.rows[1:]))
        right = twist(A, "right")
        left = twist(A, "left")

        right_source = face_pluecker(graph, right, "source")
        want = monomial_map(graph, z, "min")
        entry = {"check": "right-square", "trial": trial, "status": "pass"}
        if right_source != want:
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        got = face_pluecker(graph, left, "target")
        want = monomial_map(graph, z, "max")
        entry = {"check": "left-square", "trial": trial, "status": "pass"}
        if got != want:
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        # equal (matrix, scale) pairs are equal measurements, which on a
        # reduced graph means equal monomials on every matching: the
        # measurement is injective on gauge classes
        recovered, _ = boundary_partial(graph, right_source, "min")
        entry = {"check": "inversion", "trial": trial, "status": "pass"}
        if boundary_measurement_matrix(graph, recovered) != network:
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        # the weights are positive, so the support is the set of matching boundaries
        boundaries = pluecker(A).support()
        laurent, _ = boundary_partial(graph, face_pluecker(graph, A, "source"), "min")
        B, t = boundary_measurement_matrix(graph, laurent)
        picks = [boundaries[rng.randrange(len(boundaries))] for _ in range(3)]
        for J in picks:
            entry = {"check": f"laurent-{''.join(map(str, J))}", "trial": trial, "status": "pass"}
            if minor(left, J) != t * minor(B, J):
                entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
            report.append(entry)
    return report
