"""Matchings of a plabic graph: enumeration, incidence data, extremal
matchings, face exponents and the swivel lattice.

A matching is stored as a frozenset of edge ids covering each internal
vertex exactly once; its boundary is the subset of [n] given by covered
white-adjacent and uncovered black-adjacent boundary vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import Positroid, necklace_from_bases, positroid_from_necklace
from .errors import PreconditionError
from .linalg import RationalMatrix, matmul
from .plabic import PlabicGraph


def matching_boundary(graph: PlabicGraph, matching: Iterable[str]) -> tuple[int, ...]:
    matched = set(matching)
    out = []
    for i in graph.boundary_vertices():
        pe = graph.pendant_edge(i)
        white = graph.colors[graph.other_end(pe, i)] == "white"
        covered = pe in matched
        if covered == white:
            out.append(i)
    return tuple(out)


def enumerate_matchings(
    graph: PlabicGraph, boundary: Optional[Sequence[int]] = None
) -> list[frozenset]:
    """All matchings, optionally only those with the given boundary subset.

    Backtracking over internal vertices with unit propagation; the result is
    sorted lexicographically by sorted edge-id lists, so the order is part of
    the contract.  The unfiltered list is memoized on the graph; a boundary
    is searched for directly, which costs less than filtering that list.
    """
    if boundary is None:
        return graph._memo("matchings", lambda: _search(graph, None))
    return _search(graph, boundary)


def _search(graph: PlabicGraph, boundary: Optional[Sequence[int]]) -> list[frozenset]:
    vertices = sorted(graph.colors)
    incident = {v: sorted(graph.incident(v)) for v in vertices}
    state: dict[str, Optional[bool]] = {e: None for e in graph.edges}

    if boundary is not None:
        want = set(boundary)
        for i in graph.boundary_vertices():
            pe = graph.pendant_edge(i)
            white = graph.colors[graph.other_end(pe, i)] == "white"
            state[pe] = (i in want) == white

    results: list[frozenset] = []

    def solve(assignments):
        trail = []

        def undo(n_true):
            while len(trail) > n_true:
                assignments[trail.pop()] = None

        def prop():
            start = len(trail)
            while True:
                changed = False
                for v in vertices:
                    chosen = [e for e in incident[v] if assignments[e] is True]
                    free = [e for e in incident[v] if assignments[e] is None]
                    if len(chosen) > 1 or (not chosen and not free):
                        undo(start)
                        return None
                    if len(chosen) == 1 and free:
                        for e in free:
                            assignments[e] = False
                            trail.append(e)
                        changed = True
                    elif not chosen and len(free) == 1:
                        assignments[free[0]] = True
                        trail.append(free[0])
                        changed = True
                if not changed:
                    return start

        def rec():
            start = prop()
            if start is None:
                return
            pivot = None
            for v in vertices:
                if not any(assignments[e] is True for e in incident[v]):
                    pivot = v
                    break
            if pivot is None:
                results.append(frozenset(e for e, val in assignments.items() if val))
            else:
                options = [e for e in incident[pivot] if assignments[e] is None]
                for e in options:
                    assignments[e] = True
                    trail.append(e)
                    rec()
                    undo(len(trail) - 1)
                    assignments[e] = False
                    trail.append(e)
                for _ in options:
                    assignments[trail.pop()] = None
            undo(start)

        rec()
        # rec refers to itself through its closure; break that cycle so the
        # matchings it holds are freed by reference counting, not by a later
        # full garbage collection
        del rec

    solve(state)
    return sorted(results, key=lambda m: tuple(sorted(m)))


def graph_positroid(graph: PlabicGraph) -> Positroid:
    """Distinct matching boundaries, cross-checked against Oh's construction."""
    boundaries = {matching_boundary(graph, m) for m in enumerate_matchings(graph)}
    if not boundaries:
        raise PreconditionError("graph admits no matching")
    pos = Positroid(frozenset(boundaries), graph.n, graph.k)
    oh = positroid_from_necklace(necklace_from_bases(boundaries, graph.n, "forward"))
    if oh.bases != pos.bases:
        raise AssertionError("matching boundaries are not a positroid")
    return pos


@dataclass(frozen=True)
class IncidenceData:
    """Downstream-wedge matrices over a fixed edge/face/vertex ordering."""

    edge_order: tuple
    face_order: tuple
    vertex_order: tuple
    u_ef: tuple  # U[e][f] = 1 iff face f downstream of e
    u_ev: tuple
    d_fe: tuple  # boundary matrix entries d[f][e]
    d_ve: tuple
    b: dict  # face id -> number of edges with that face directly downstream

    def block_products_are_identity(self) -> bool:
        E = len(self.edge_order)
        F = len(self.face_order)
        V = len(self.vertex_order)
        # first block matrix: rows (F then V), columns (1 then E)
        left = [
            [1 - self.b[self.face_order[i]]] + [-self.d_fe[i][j] for j in range(E)]
            for i in range(F)
        ] + [[1] + [self.d_ve[i][j] for j in range(E)] for i in range(V)]
        right = [[1] * F + [1] * V] + [
            [-self.u_ef[j][i] for i in range(F)] + [-self.u_ev[j][i] for i in range(V)]
            for j in range(E)
        ]
        left, right = RationalMatrix.build(left), RationalMatrix.build(right)

        def is_identity(M):
            return all(
                x == (1 if i == j else 0) for i, row in enumerate(M.rows) for j, x in enumerate(row)
            )

        return is_identity(matmul(right, left)) and is_identity(matmul(left, right))

    def face_exponents(self, matching: Iterable[str]) -> dict:
        """Exponent of each face in the minimal-matching monomial expansion."""
        matched = set(matching)
        columns = [j for j, e in enumerate(self.edge_order) if e in matched]
        return {
            fid: sum(self.d_fe[i][j] for j in columns) - (self.b[fid] - 1)
            for i, fid in enumerate(self.face_order)
        }


def incidence_data(graph: PlabicGraph) -> IncidenceData:
    graph.require_reduced()
    edge_order = tuple(sorted(graph.edges))
    face_order = tuple(f.id for f in graph.faces())
    vertex_order = tuple(sorted(graph.colors))
    down = {e: graph.downstream(e) for e in edge_order}
    dd = {e: graph.directly_downstream(e) for e in edge_order}
    u_ef = tuple(
        tuple(1 if fid in down[e][0] else 0 for fid in face_order) for e in edge_order
    )
    u_ev = tuple(
        tuple(1 if v in down[e][1] else 0 for v in vertex_order) for e in edge_order
    )
    d_fe = []
    for fid in face_order:
        row = []
        for e in edge_order:
            u, w = graph.edges[e]
            external = graph.is_boundary(u) or graph.is_boundary(w)
            if external:
                row.append(1 if dd[e] == fid else 0)
            else:
                row.append(1 if fid in graph.edge_faces(e) else 0)
        d_fe.append(tuple(row))
    d_ve = tuple(
        tuple(1 if v in graph.edges[e] else 0 for e in edge_order) for v in vertex_order
    )
    b = {fid: sum(1 for e in edge_order if dd[e] == fid) for fid in face_order}
    return IncidenceData(
        edge_order, face_order, vertex_order, u_ef, u_ev, tuple(d_fe), d_ve, b
    )


def extremal_matching(graph: PlabicGraph, face_id: str, direction: str) -> frozenset:
    """Minimal (downstream wedges) or maximal (upstream) matching at a face."""
    graph.require_reduced()
    if direction == "min":
        edges = {e for e in graph.edges if face_id in graph.downstream(e)[0]}
    elif direction == "max":
        edges = {e for e in graph.edges if face_id in graph.upstream(e)[0]}
    else:
        raise ValueError(f"bad direction {direction!r}")
    covered: dict = {}
    for e in edges:
        for x in graph.edges[e]:
            if not graph.is_boundary(x):
                covered[x] = covered.get(x, 0) + 1
    if set(covered) != set(graph.colors) or any(c != 1 for c in covered.values()):
        raise AssertionError(f"wedge edges at {face_id} are not a matching")
    return frozenset(edges)


def face_exponents(graph: PlabicGraph, matching: Iterable[str]) -> dict:
    """Exponent of each face in the minimal-matching monomial expansion."""
    return incidence_data(graph).face_exponents(matching)


def _swivelable(graph: PlabicGraph, matching: frozenset, face) -> Optional[frozenset]:
    boundary_edges = set(face.edges)
    inside = matching & boundary_edges
    if len(boundary_edges) != len(face.walk) or face.kind != "internal":
        return None
    if 2 * len(inside) != len(boundary_edges):
        return None
    return frozenset((matching - inside) | (boundary_edges - inside))


def swivel(graph: PlabicGraph, matching: frozenset, face_id: str, direction: str) -> frozenset:
    """Replace the matching's half of the face's boundary edges by the other half.

    Swiveling up moves off the downstream half (the minimal configuration);
    swiveling down moves off the upstream half.
    """
    face = graph.face_by_id(face_id)
    if face.kind != "internal":
        raise ValueError(f"face {face_id} is not internal")
    result = _swivelable(graph, matching, face)
    if result is None:
        raise ValueError(f"matching holds fewer than half the edges of {face_id}")
    down_half = {e for e in face.edges if graph.directly_downstream(e) == face_id}
    inside = set(matching) & set(face.edges)
    if direction == "up":
        if inside != down_half:
            raise ValueError(f"swivel up not applicable at {face_id}")
    elif direction == "down":
        if inside != set(face.edges) - down_half:
            raise ValueError(f"swivel down not applicable at {face_id}")
    else:
        raise ValueError(f"bad direction {direction!r}")
    return result


@dataclass
class MatchingPoset:
    """Swivel lattice of the matchings with a fixed boundary."""

    boundary: tuple
    nodes: list  # frozensets, deterministic order
    covers: list  # (lower index, upper index, face id)

    def index(self, matching: frozenset) -> int:
        return self.nodes.index(matching)

    def __post_init__(self):
        up = [set() for _ in self.nodes]
        for lo, hi, _ in self.covers:
            up[lo].add(hi)
        # transitive closure by BFS
        self._closure = []
        for i in range(len(self.nodes)):
            seen = {i}
            stack = [i]
            while stack:
                x = stack.pop()
                for y in up[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            self._closure.append(seen)

    def _above(self) -> list[set]:
        """For each node, the set of nodes above or equal to it."""
        return self._closure

    def leq(self, i: int, j: int) -> bool:
        return j in self._above()[i]

    def minimum(self) -> frozenset:
        uppers = {hi for _, hi, _ in self.covers}
        mins = [i for i in range(len(self.nodes)) if i not in uppers]
        if len(mins) != 1:
            raise AssertionError(f"poset has {len(mins)} minimal elements")
        return self.nodes[mins[0]]

    def maximum(self) -> frozenset:
        lowers = {lo for lo, _, _ in self.covers}
        maxs = [i for i in range(len(self.nodes)) if i not in lowers]
        if len(maxs) != 1:
            raise AssertionError(f"poset has {len(maxs)} maximal elements")
        return self.nodes[maxs[0]]

    def meet(self, i: int, j: int) -> int:
        above = self._above()
        below_i = {x for x in range(len(self.nodes)) if i in above[x]}
        below_j = {x for x in range(len(self.nodes)) if j in above[x]}
        commons = below_i & below_j
        tops = [x for x in commons if not any(y != x and y in above[x] for y in commons)]
        if len(tops) != 1:
            raise AssertionError("meet is not unique")
        return tops[0]

    def join(self, i: int, j: int) -> int:
        above = self._above()
        commons = above[i] & above[j]
        bottoms = [x for x in commons if not any(y != x and x in above[y] for y in commons)]
        if len(bottoms) != 1:
            raise AssertionError("join is not unique")
        return bottoms[0]

    def is_lattice(self) -> bool:
        for i in range(len(self.nodes)):
            for j in range(i + 1, len(self.nodes)):
                self.meet(i, j)
                self.join(i, j)
        return True

    def to_json(self) -> dict:
        return {
            "boundary": list(self.boundary),
            "nodes": [sorted(m) for m in self.nodes],
            "covers": [[lo, hi, fid] for lo, hi, fid in self.covers],
        }


def matching_poset(graph: PlabicGraph, boundary: Sequence[int]) -> MatchingPoset:
    """BFS over swivels from the matchings with the given boundary."""
    boundary = tuple(sorted(boundary))
    nodes = enumerate_matchings(graph, boundary)
    if not nodes:
        raise PreconditionError(f"boundary {boundary} is not matchable")
    index = {m: i for i, m in enumerate(nodes)}
    covers = []
    internal = [f for f in graph.faces() if f.kind == "internal"]
    for m in nodes:
        for f in internal:
            flipped = _swivelable(graph, m, f)
            if flipped is None:
                continue
            down_half = {e for e in f.edges if graph.directly_downstream(e) == f.id}
            if set(m) & set(f.edges) == down_half:
                covers.append((index[m], index[flipped], f.id))
    # connectivity check
    seen = {0}
    stack = [0]
    adj = {i: set() for i in range(len(nodes))}
    for lo, hi, _ in covers:
        adj[lo].add(hi)
        adj[hi].add(lo)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(nodes):
        raise AssertionError("swivel graph is disconnected")
    return MatchingPoset(boundary, nodes, covers)
