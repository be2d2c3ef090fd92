"""Matchings of a plabic graph: enumeration, the boundary matrix ∂,
incidence data, extremal matchings, face exponents and the swivel lattice.

A matching is stored as a frozenset of edge ids covering each internal
vertex exactly once; its boundary is the subset of [n] given by covered
white-adjacent and uncovered black-adjacent boundary vertices.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Positroid, necklace_from_bases, necklace_from_perm, positroid_from_necklace
from .errors import PreconditionError
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

    Backtracking that always covers the uncovered internal vertex with the
    fewest usable edges, trying its edges in sorted order; a branch is cut
    as soon as some uncovered vertex has no usable edge left.  The result is
    sorted lexicographically by sorted edge-id lists, so the order is part of
    the contract.  The unfiltered list is memoized on the graph; a boundary
    is searched for directly, which costs less than filtering that list.
    """
    if boundary is None:
        return graph._memo("matchings", lambda: _search(graph, None))
    return _search(graph, boundary)


def _search(graph: PlabicGraph, boundary: Optional[Sequence[int]]) -> list[frozenset]:
    # each uncovered internal vertex -> the edges it can still take
    usable = {v: set(graph.incident(v)) for v in graph.colors}
    ends = {e: [x for x in uw if x in usable] for e, uw in graph.edges.items()}

    if boundary is not None:
        want = set(boundary)
        for i in graph.boundary_vertices():
            pe = graph.pendant_edge(i)
            v = graph.other_end(pe, i)
            # a pendant edge that must be unused is banned; one that must be
            # used bans every other edge at its internal end
            used = (i in want) == (graph.colors[v] == "white")
            banned = [f for f in usable[v] if f != pe] if used else [pe]
            for e in banned:
                for x in ends[e]:
                    usable[x].discard(e)

    results: list[frozenset] = []
    taken: list[str] = []

    def rec():
        if not usable:
            results.append(frozenset(taken))
            return
        v = min(usable, key=lambda x: len(usable[x]))
        for e in sorted(usable[v]):
            covered = [(x, usable.pop(x)) for x in ends[e]]
            # each other edge at e's ends, with its end that is still uncovered
            lost = [(y, f) for _, fs in covered for f in fs for y in ends[f] if y in usable]
            for y, f in lost:
                usable[y].discard(f)
            if all(usable[y] for y, _ in lost):
                taken.append(e)
                rec()
                taken.pop()
            for y, f in lost:
                usable[y].add(f)
            usable.update(covered)

    rec()
    # rec refers to itself through its closure; break that cycle so the
    # matchings it holds are freed by reference counting, not by a later
    # full garbage collection
    del rec
    return sorted(results, key=lambda m: tuple(sorted(m)))


def graph_positroid(graph: PlabicGraph) -> Positroid:
    """The distinct matching boundaries.  On a reduced graph they are Oh's
    construction on the trip permutation's forward necklace (Postnikov,
    math/0609764; Oh, 0803.1018), memoized on the graph, and no matching is
    listed.  On any other graph every matching is, and their boundaries are
    cross-checked against Oh's construction from their forward necklace,
    which the result keeps."""
    if graph.is_reduced()[0]:
        return graph._memo("positroid", lambda: positroid_from_necklace(necklace_from_perm(graph.trip_permutation())))
    boundaries = {matching_boundary(graph, m) for m in enumerate_matchings(graph)}
    if not boundaries:
        raise PreconditionError("graph admits no matching")
    pos = positroid_from_necklace(necklace_from_bases(boundaries, graph.n, "forward"))
    if pos.bases != tuple(sorted(boundaries)):
        raise AssertionError("matching boundaries are not a positroid")
    return pos


class BoundaryMatrix(NamedTuple):
    """The boundary matrix ∂ of one wedge direction.

    Column e of ∂ lists the faces that the weight of edge e divides by in the
    inverse monomial map; B_f, the size of face f's half, counts the edges
    that have f directly downstream (or upstream): the face of the dart along
    the edge toward its white (black) end, so no wedge is built.
    """

    divisors: dict  # edge -> its faces: the directly-downstream one at the boundary, both sides inside
    halves: dict  # face id -> frozenset of the edges with it directly downstream, in faces() order


def boundary_matrix(graph: PlabicGraph, direction: str) -> BoundaryMatrix:
    """∂ for the downstream ("min") or upstream ("max") wedges, built once
    per graph and direction and memoized on it, from one dart lookup per
    edge (``PlabicGraph.directly_downstream``/``directly_upstream``)."""
    if direction not in ("min", "max"):
        raise ValueError(f"bad direction {direction!r}")
    return graph._memo(("boundary", direction), lambda: _boundary_matrix(graph, direction == "max"))


def _boundary_matrix(graph: PlabicGraph, upstream: bool) -> BoundaryMatrix:
    directly = graph.directly_upstream if upstream else graph.directly_downstream
    divisors = {}
    halves = {f.id: set() for f in graph.faces()}
    for e, (u, w) in graph.edges.items():
        face = directly(e)
        halves[face].add(e)
        # in a reduced graph an internal edge has two distinct faces beside it
        divisors[e] = (face,) if graph.is_boundary(u) or graph.is_boundary(w) else graph.edge_faces(e)
    return BoundaryMatrix(divisors, {fid: frozenset(es) for fid, es in halves.items()})


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
        # rows (faces then vertices), columns (1 then edges)
        left = [[1 - self.b[fid]] + [-x for x in row] for fid, row in zip(self.face_order, self.d_fe)]
        left += [[1, *row] for row in self.d_ve]
        # rows (1 then edges), columns (faces then vertices)
        right = [[1] * len(left)] + [[-x for x in fs + vs] for fs, vs in zip(self.u_ef, self.u_ev)]

        def is_identity(a, b):
            columns = list(zip(*b))
            return all(
                sum(x * y for x, y in zip(row, col)) == int(i == j)
                for i, row in enumerate(a)
                for j, col in enumerate(columns)
            )

        return is_identity(right, left) and is_identity(left, right)


def incidence_data(graph: PlabicGraph) -> IncidenceData:
    """Built once per graph and memoized on it."""
    graph.require_reduced()
    return graph._memo("incidence", lambda: _build_incidence_data(graph))


def _build_incidence_data(graph: PlabicGraph) -> IncidenceData:
    """A dense view of ∂ and of the minimal matchings' table U."""
    edge_order = tuple(sorted(graph.edges))
    face_order = tuple(f.id for f in graph.faces())
    vertex_order = tuple(sorted(graph.colors))
    plan = boundary_matrix(graph, "min")
    minimal = [extremal_matching(graph, fid, "min") for fid in face_order]
    u_ef = tuple(tuple(int(e in m) for m in minimal) for e in edge_order)
    below = [graph.downstream(e)[1] for e in edge_order]
    u_ev = tuple(tuple(int(v in down) for v in vertex_order) for down in below)
    d_fe = tuple(tuple(int(fid in plan.divisors[e]) for e in edge_order) for fid in face_order)
    d_ve = tuple(tuple(int(v in graph.edges[e]) for e in edge_order) for v in vertex_order)
    b = {fid: len(plan.halves[fid]) for fid in face_order}
    return IncidenceData(edge_order, face_order, vertex_order, u_ef, u_ev, d_fe, d_ve, b)


def extremal_matching(graph: PlabicGraph, face_id: str, direction: str) -> frozenset:
    """Minimal (downstream wedges) or maximal (upstream) matching at a face.

    The matchings of every face in one direction are built together, from
    one pass over the edges' wedges, and memoized on the graph.
    """
    graph.require_reduced()
    if direction not in ("min", "max"):
        raise ValueError(f"bad direction {direction!r}")
    table = graph._memo(("extremal", direction), lambda: _extremal_matchings(graph, direction == "max"))
    return table[face_id]


def _extremal_matchings(graph: PlabicGraph, upstream: bool) -> dict:
    """Face id -> the edges whose upstream (or downstream) wedge holds it,
    read off the set face bits of each edge's wedge mask."""
    faces = graph.faces()
    edges = [[] for _ in faces]
    face_bits = (1 << len(faces)) - 1
    for e, mask in graph._wedges(upstream).items():
        mask &= face_bits
        while mask:
            low = mask & -mask
            edges[low.bit_length() - 1].append(e)
            mask ^= low
    return {f.id: _checked_matching(graph, f.id, frozenset(es)) for f, es in zip(faces, edges)}


def _checked_matching(graph: PlabicGraph, face_id: str, edges: frozenset) -> frozenset:
    # the internal ends of the edges must be the internal vertices, each once
    ends = [x for e in edges for x in graph.edges[e] if x in graph.colors]
    if len(ends) != len(graph.colors) or set(ends) != graph.colors.keys():
        raise AssertionError(f"wedge edges at {face_id} are not a matching")
    return edges


def face_exponents(graph: PlabicGraph, matching: Iterable[str]) -> dict:
    """Exponent of each face in the minimal-matching monomial expansion: the
    matching's edges with the face in their column of ∂, less B_f - 1."""
    graph.require_reduced()
    plan = boundary_matrix(graph, "min")
    hits = Counter(fid for e in matching for fid in plan.divisors[e])
    return {fid: hits[fid] - (len(half) - 1) for fid, half in plan.halves.items()}


def _flip(matching: frozenset, face) -> Optional[frozenset]:
    """The matching with its half of the face's edges traded for the other
    half, or None when it holds some other share of them."""
    edges = frozenset(face.edges)
    inside = matching & edges
    if 2 * len(inside) != len(edges):
        return None
    return frozenset((matching - inside) | (edges - inside))


def swivel(graph: PlabicGraph, matching: frozenset, face_id: str, direction: str) -> frozenset:
    """Replace the matching's half of the face's boundary edges by the other half.

    Swiveling up moves off the downstream half (the minimal configuration);
    swiveling down moves off the upstream half.
    """
    face = graph.face_by_id(face_id)
    if face.kind != "internal":
        raise ValueError(f"face {face_id} is not internal")
    result = _flip(matching, face)
    if result is None:
        raise ValueError(f"matching holds fewer than half the edges of {face_id}")
    down_half = boundary_matrix(graph, "min").halves[face_id]
    off = {"up": down_half, "down": set(face.edges) - down_half}  # the half each direction moves off
    if direction not in off:
        raise ValueError(f"bad direction {direction!r}")
    if set(matching) & set(face.edges) != off[direction]:
        raise ValueError(f"swivel {direction} not applicable at {face_id}")
    return result


@dataclass
class MatchingPoset:
    """Swivel lattice of the matchings with a fixed boundary.  Every query
    reads the up-sets, which one search per node builds, or the down-sets,
    their transpose."""

    boundary: tuple
    nodes: list  # frozensets, deterministic order
    covers: list  # (lower index, upper index, face id)

    def __post_init__(self):
        up = [set() for _ in self.nodes]
        for lo, hi, _ in self.covers:
            up[lo].add(hi)
        # each node's up-set: itself and every node above it
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
        self._below = [set() for _ in self.nodes]
        for x, above in enumerate(self._closure):
            for y in above:
                self._below[y].add(x)

    def _holding_all(self, cones: list, members: set, what: str) -> int:
        """The member whose cone holds every member."""
        found = [x for x in members if members <= cones[x]]
        if len(found) != 1:
            raise AssertionError(f"{what} is not unique")
        return found[0]

    def minimum(self) -> frozenset:
        return self.nodes[self._holding_all(self._closure, set(range(len(self.nodes))), "minimum")]

    def maximum(self) -> frozenset:
        return self.nodes[self._holding_all(self._below, set(range(len(self.nodes))), "maximum")]

    def meet(self, i: int, j: int) -> int:
        return self._holding_all(self._below, self._below[i] & self._below[j], "meet")

    def join(self, i: int, j: int) -> int:
        return self._holding_all(self._closure, self._closure[i] & self._closure[j], "join")

    def is_lattice(self) -> bool:
        for i in range(len(self.nodes)):
            for j in range(i + 1, len(self.nodes)):
                self.meet(i, j)
                self.join(i, j)
        return True


def matching_poset(graph: PlabicGraph, boundary: Sequence[int]) -> MatchingPoset:
    """The matchings with the given boundary, each covered by its swivels up."""
    boundary = tuple(sorted(boundary))
    nodes = enumerate_matchings(graph, boundary)
    if not nodes:
        raise PreconditionError(f"boundary {boundary} is not matchable")
    index = {m: i for i, m in enumerate(nodes)}
    covers = []
    internal = [f for f in graph.faces() if f.kind == "internal"]
    halves = boundary_matrix(graph, "min").halves
    for m in nodes:
        for f in internal:
            flipped = _flip(m, f)
            if flipped is not None and m & set(f.edges) == halves[f.id]:
                covers.append((index[m], index[flipped], f.id))
    poset = MatchingPoset(boundary, nodes, covers)
    # the swivels connect the matchings: one lies below all the others
    poset.minimum()
    return poset
