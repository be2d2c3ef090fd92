"""Boundary measurement, face Plucker maps, monomial maps and their inverses,
monodromy coordinates, the Laurent expansion of twisted Pluckers, and the
commutative-diagram verification harness.

Edge weightings and face vectors are plain dicts of nonzero Fractions keyed
by edge/face id.  All identities are checked by exact evaluation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import gale_min
from .errors import PreconditionError
from .linalg import PlueckerVector, Q, RationalMatrix, as_fraction, permutation_sign, pluecker, twist
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
    """Partition functions D_I as a total Plucker vector."""
    weights = check_weighting(graph, weights)
    coords = {I: Q(0) for I in combinations(range(1, graph.n + 1), graph.k)}
    matchings = enumerate_matchings(graph)
    if not matchings:
        raise PreconditionError("graph admits no matching")
    for m in matchings:
        coords[matching_boundary(graph, m)] += monomial(weights, m)
    return PlueckerVector(graph.n, graph.k, coords)


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


def face_pluecker(graph: PlabicGraph, p: PlueckerVector, mode: str) -> dict:
    """Face vector of Plucker coordinates at the source or target labels."""
    labels = graph.face_labels(mode)
    out = {}
    for fid, label in labels.items():
        value = p[label]
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
    """
    graph.require_reduced()
    rng = random.Random(seed)
    report = []
    matchings = enumerate_matchings(graph)
    boundaries = sorted({matching_boundary(graph, m) for m in matchings})
    for trial in range(trials):
        z = random_weighting(graph, rng)
        p = measure(graph, z)
        A = matrix_from_pluecker(p)
        right = pluecker(twist(A, "right"))
        left = pluecker(twist(A, "left"))

        got = face_pluecker(graph, right, "source")
        want = monomial_map(graph, z, "min")
        entry = {"check": "right-square", "trial": trial, "status": "pass"}
        if got != want:
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        got = face_pluecker(graph, left, "target")
        want = monomial_map(graph, z, "max")
        entry = {"check": "left-square", "trial": trial, "status": "pass"}
        if got != want:
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        recovered, _ = boundary_partial(graph, face_pluecker(graph, right, "source"), "min")
        entry = {"check": "inversion", "trial": trial, "status": "pass"}
        if any(monomial(recovered, m) != monomial(z, m) for m in matchings):
            entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
        report.append(entry)

        source_values = face_pluecker(graph, p, "source")
        picks = [boundaries[rng.randrange(len(boundaries))] for _ in range(3)]
        for J in picks:
            total = sum(
                (term.evaluate(source_values) for term in twisted_pluecker_laurent(graph, J)),
                Q(0),
            )
            entry = {"check": f"laurent-{''.join(map(str, J))}", "trial": trial, "status": "pass"}
            if total != left[J]:
                entry.update(status="fail", witness={e: str(v) for e, v in z.items()})
            report.append(entry)
    return report
