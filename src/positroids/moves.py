"""Weight-preserving graph moves, lollipops, bridges, and synthesis of a
reduced graph from a bounded affine permutation.

Every move returns a new graph plus the transported edge weights; boundary
measurements are preserved exactly (urban renewal applies its gauge factor at
a recorded vertex to stay exact at the cone level).  Each move is a step of
``_Draft``, which edits plain dicts in place.  ``run_script`` runs a whole
script of moves on one draft and builds and validates one graph at the end;
``apply_move`` and the public functions are its one-step case, and
``synthesize`` runs its lollipop and bridge script on one draft as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import BoundedAffinePermutation, _inverse_window
from .linalg import Q, as_fraction
from .errors import json_shape
from .measurement import check_weighting
from .plabic import GraphError, PlabicGraph


@dataclass(frozen=True)
class MoveResult:
    graph: PlabicGraph
    weights: dict
    note: Optional[dict] = None


def contract(graph: PlabicGraph, vertex: str, weights: dict) -> MoveResult:
    """Delete a degree-2 internal vertex not at the boundary, merging its
    neighbors; edges on either side pick up the opposite connecting weight."""
    return apply_move(graph, weights, Move("contract", vertex))


def expand(
    graph: PlabicGraph,
    vertex: str,
    first_edge: str,
    count: int,
    weights: dict,
) -> MoveResult:
    """Split ``count`` cyclically consecutive edges (starting at ``first_edge``
    in the rotation) off ``vertex`` onto a same-colored vertex, joined
    through a new degree-2 vertex of the opposite color with unit weights."""
    return apply_move(graph, weights, Move("expand", vertex, {"first_edge": first_edge, "count": count}))


def remove_boundary_vertex(graph: PlabicGraph, vertex: str, weights: dict) -> MoveResult:
    """Delete a degree-2 internal vertex adjacent to the boundary; the inner
    edge keeps its weight and reaches the boundary, the merged vertex's other
    edges scale by the removed outer weight."""
    return apply_move(graph, weights, Move("boundary-remove", vertex))


def add_boundary_vertex(graph: PlabicGraph, i: int, weights: dict) -> MoveResult:
    """Insert a degree-2 vertex of the opposite color in the middle of the
    pendant edge at boundary vertex i; the new outer edge has weight 1."""
    return apply_move(graph, weights, Move("boundary-add", i))


def urban_renewal(graph: PlabicGraph, face_id: str, weights: dict) -> MoveResult:
    """The square move, with weights b_i -> b_{i+2} / (b1 b3 + b2 b4).

    Exactness at the cone level is restored by a gauge transformation by the
    denominator at the lexicographically least internal vertex of the new
    graph, recorded in the note.
    """
    return apply_move(graph, weights, Move("urban-renewal", face_id))


def add_lollipop(graph: PlabicGraph, i: int, color: str, weights: Optional[dict] = None) -> MoveResult:
    """Insert a lollipop of the given color at boundary position i."""
    return apply_move(graph, weights, Move(f"{color}-lollipop", i))


def add_bridge(
    graph: PlabicGraph,
    i: int,
    side: str,
    t: Fraction = Q(1),
    weights: Optional[dict] = None,
) -> MoveResult:
    """Add a left or right bridge between boundary vertices i and i+1.

    A left bridge hangs a white vertex over i+1 and a black one over i (the
    trip permutation becomes s_i o pi); a right bridge is mirrored (pi o s_i).
    Legality: left needs pi^{-1}(i) > pi^{-1}(i+1), right needs pi(i) > pi(i+1).
    The bridge edge gets weight t and the new pendant stubs weight 1, so the
    Plucker transform has parameter exactly t.
    """
    return apply_move(graph, weights, Move(f"{side}-bridge", i, {"t": t}))


@dataclass(frozen=True)
class Move:
    kind: str
    site: object
    params: Optional[dict] = None


# the type of each move kind's site: an internal vertex or face id, or a
# boundary position
_SITE_TYPE = {
    "contract": str,
    "expand": str,
    "boundary-remove": str,
    "urban-renewal": str,
    "boundary-add": int,
    "black-lollipop": int,
    "white-lollipop": int,
    "left-bridge": int,
    "right-bridge": int,
}


def apply_move(graph: PlabicGraph, weights: Optional[dict], move: Move) -> MoveResult:
    """One move: the one-step script of ``run_script``."""
    graph, weights, (note,) = run_script(graph, weights, (move,))
    return MoveResult(graph, weights, note)


def run_script(graph: PlabicGraph, weights: Optional[dict], moves: Iterable[Move]) -> tuple:
    """(graph, weights, notes) after the moves, run in order on one draft.

    The weighting (unit weights when none is given) is checked once, up
    front: a missing or zero weight raises ValueError naming its edge, and no
    move makes one.  Each move is taken from ``moves`` and its fields' shape
    checked only when its turn comes, so an earlier move's error is the one
    raised.  The result is built and validated once, at the end.
    """
    if weights is None:
        weights = dict.fromkeys(graph.edges, Q(1))
    draft = _Draft(graph, check_weighting(graph, weights))
    notes = [draft.step(move) for move in moves]
    return draft.graph(), draft.weights, notes


# -- the draft every move edits -------------------------------------------


_OTHER_COLOR = {"white": "black", "black": "white"}


class _Draft:
    """A graph under construction: plain color, edge and rotation dicts, the
    pendant edge at each boundary vertex and the edge weights, which the
    draft owns.  Each move is a step that changes them in place:
    ``contract``, ``expand``, ``boundary_vertex`` and
    ``remove_boundary_vertex``, ``urban_renewal``, ``lollipop`` and
    ``bridge``; ``step`` runs one ``Move``.  ``graph`` builds and validates
    the graph the dicts describe, once per state of the draft.

    Each step names its new vertices and edges with ``fresh`` over the
    current dicts, so a script run on one draft gives the same graph, ids
    included, as its moves applied one validated graph at a time.  Each
    prefix names one dict, and the scan for a prefix resumes at the index it
    last gave: names are only added between removals, and a step that
    removes a name restarts every scan at 0.
    """

    def __init__(self, graph: Optional[PlabicGraph] = None, weights: Optional[dict] = None):
        self.n, self.colors, self.edges, self.rotations, self.pendant = 0, {}, {}, {}, {}
        if graph is not None:
            self.n = graph.n
            self.colors = dict(graph.colors)
            self.edges = dict(graph.edges)
            self.rotations = {v: list(r) for v, r in graph.rotations.items()}
            self.pendant = {i: graph.pendant_edge(i) for i in graph.boundary_vertices()}
        self.weights = {} if weights is None else weights
        self._scan_from = {}  # prefix -> index below which every name is taken
        self._graph = graph  # the validated graph of the dicts as they stand, if built

    def fresh(self, prefix: str, taken: dict) -> str:
        """The first of prefix0, prefix1, ... not in taken."""
        i = self._scan_from.get(prefix, 0)
        while f"{prefix}{i}" in taken:
            i += 1
        self._scan_from[prefix] = i
        return f"{prefix}{i}"

    def graph(self) -> PlabicGraph:
        """The graph of the dicts.  Every step checks that its move is legal
        before it edits them, so an invalid graph here is a broken invariant,
        not a failed precondition."""
        if self._graph is None:
            try:
                self._graph = PlabicGraph(self.n, self.colors, self.edges, self.rotations)
            except GraphError as exc:
                raise AssertionError(f"move script built an invalid graph: {exc}") from exc
        return self._graph

    def step(self, move: Move) -> Optional[dict]:
        """Run one move and return its note; a move whose fields have the
        wrong shape (a step of a ``move --spec`` script, say) raises
        ValueError before the draft is read.  Urban renewal (a face by id)
        and the bridges (the trip permutation) read the graph, so they build
        it first."""
        kind, site = move.kind, move.site
        if not isinstance(kind, str):
            raise ValueError(f"move kind must be a string, got {kind!r:.60}")
        if kind not in _SITE_TYPE:
            raise ValueError(f"unknown move kind {kind!r}")
        if type(site) is not _SITE_TYPE[kind]:
            what = "a boundary position (an integer)" if _SITE_TYPE[kind] is int else "an id (a string)"
            raise ValueError(f"{kind} site must be {what}, got {site!r:.60}")
        params = json_shape({} if move.params is None else move.params, dict, f"{kind} params")
        side_or_color = kind.split("-")[0]
        if kind == "expand":
            first_edge, count = params.get("first_edge"), params.get("count")
            if not isinstance(first_edge, str) or type(count) is not int:
                raise ValueError(
                    f"expand params need first_edge (an edge id) and count (an integer), got {move.params!r:.60}"
                )
        elif kind == "urban-renewal":
            try:
                face = self.graph().face_by_id(site)
            except KeyError:
                raise ValueError(f"no face {site!r}") from None
            if face.kind != "internal" or len(set(face.edges)) != 4 or len(face.edges) != 4:
                raise ValueError(f"face {site} is not an internal square")
            corners = [d[2] for d in face.walk]  # corner idx has face edges idx and idx+1
            if len(set(corners)) != 4:
                raise ValueError(f"face {site} is not an embedded square")
        elif kind.endswith("-bridge"):
            t = as_fraction(params.get("t", 1))
            if t == 0:
                raise ValueError("bridge weight must be nonzero")
            pi = self.graph().trip_permutation()
            if side_or_color == "left":
                legal = pi.inverse_value(site) > pi.inverse_value(site + 1)
            else:
                legal = pi(site) > pi(site + 1)
            if not legal:
                raise ValueError(f"{side_or_color} bridge at {site} is illegal for this permutation")
        self._graph = None  # every step below edits the dicts
        if kind == "contract":
            return self.contract(site)
        if kind == "expand":
            return self.expand(site, first_edge, count)
        if kind == "boundary-remove":
            return self.remove_boundary_vertex(site)
        if kind == "boundary-add":
            return self.boundary_vertex(site)
        if kind == "urban-renewal":
            return self.urban_renewal(corners, face.edges)
        if kind.endswith("-lollipop"):
            return self.lollipop(site, side_or_color)
        return self.bridge(site, side_or_color, t)

    def other_end(self, e: str, v):
        u, w = self.edges[e]
        return w if u == v else u

    def pendant_end(self, i: int):
        """The pendant edge at boundary vertex i and its internal end."""
        if i not in self.pendant:
            raise ValueError(f"boundary vertex {i} has no edge")
        pe = self.pendant[i]
        return pe, self.other_end(pe, i)

    def contract(self, vertex: str) -> None:
        if vertex not in self.colors:
            raise ValueError(f"no internal vertex {vertex!r}")
        incident = self.rotations[vertex]
        if len(incident) != 2:
            raise ValueError(f"vertex {vertex!r} has degree {len(incident)}, need 2")
        e1, e2 = sorted(incident)
        u1, u2 = self.other_end(e1, vertex), self.other_end(e2, vertex)
        if isinstance(u1, int) or isinstance(u2, int):
            raise ValueError(f"vertex {vertex!r} is adjacent to the boundary")
        if u1 == u2:
            raise ValueError("contracting a bigon would leave a loop")
        self._scan_from.clear()
        b, c = self.weights.pop(e1), self.weights.pop(e2)
        del self.edges[e1], self.edges[e2], self.rotations[vertex]
        del self.colors[vertex], self.colors[u2]
        for e, ends in self.edges.items():
            if u1 in ends:
                self.weights[e] *= c
            if u2 in ends:
                self.weights[e] *= b
                self.edges[e] = tuple(u1 if x == u2 else x for x in ends)
        rot1, rot2 = self.rotations[u1], self.rotations.pop(u2)
        i1, i2 = rot1.index(e1), rot2.index(e2)
        self.rotations[u1] = rot1[:i1] + rot2[i2 + 1 :] + rot2[:i2] + rot1[i1 + 1 :]

    def expand(self, vertex: str, first_edge: str, count: int) -> None:
        if vertex not in self.colors:
            raise ValueError(f"no internal vertex {vertex!r}")
        rot = self.rotations[vertex]
        if first_edge not in rot:
            raise ValueError(f"{first_edge!r} is not incident to {vertex!r}")
        if not 1 <= count <= len(rot) - 1:
            raise ValueError("split must keep at least one edge on each side")
        start = rot.index(first_edge)
        moved = [rot[(start + i) % len(rot)] for i in range(count)]
        kept = [rot[(start + count + i) % len(rot)] for i in range(len(rot) - count)]
        v_new = self.fresh("sp", self.colors)
        self.colors[v_new] = self.colors[vertex]
        v_mid = self.fresh("md", self.colors)
        self.colors[v_mid] = _OTHER_COLOR[self.colors[vertex]]
        for e in moved:
            self.edges[e] = tuple(v_new if x == vertex else x for x in self.edges[e])
        e_a = self.fresh("ea", self.edges)
        self.edges[e_a] = (vertex, v_mid)
        e_b = self.fresh("eb", self.edges)
        self.edges[e_b] = (v_mid, v_new)
        self.rotations[vertex] = kept + [e_a]
        self.rotations[v_mid] = [e_a, e_b]
        self.rotations[v_new] = moved + [e_b]
        self.weights[e_a] = self.weights[e_b] = Q(1)

    def remove_boundary_vertex(self, vertex: str) -> None:
        incident = self.rotations.get(vertex, ())
        if vertex not in self.colors or len(incident) != 2:
            raise ValueError(f"vertex {vertex!r} is not a degree-2 internal vertex")
        ends = [self.other_end(e, vertex) for e in incident]
        boundary_sides = [i for i, x in enumerate(ends) if isinstance(x, int)]
        if len(boundary_sides) != 1:
            raise ValueError(f"vertex {vertex!r} is not adjacent to exactly one boundary vertex")
        e_out = incident[boundary_sides[0]]
        e_in = incident[1 - boundary_sides[0]]
        i = ends[boundary_sides[0]]
        u = ends[1 - boundary_sides[0]]
        self._scan_from.clear()
        c = self.weights.pop(e_out)
        for e in self.rotations[u]:
            if e != e_in:
                self.weights[e] *= c
        del self.edges[e_out], self.colors[vertex], self.rotations[vertex]
        self.edges[e_in] = tuple(i if x == vertex else x for x in self.edges[e_in])
        self.pendant[i] = e_in

    def urban_renewal(self, corners: list, old: tuple) -> dict:
        """The square move on the face whose walk has these corners and
        edges, corner idx between old[idx] and old[idx+1]; returns the note."""
        b = [self.weights[e] for e in old]
        denom = b[0] * b[2] + b[1] * b[3]
        if denom == 0:
            raise ValueError("urban renewal denominator b1*b3 + b2*b4 vanishes")
        inner, spoke = {}, {}
        for v in corners:
            inner[v] = self.fresh("uin", self.colors)
            self.colors[inner[v]] = _OTHER_COLOR[self.colors[v]]
            spoke[v] = self.fresh("usp", self.edges)
            self.edges[spoke[v]] = (v, inner[v])
            self.weights[spoke[v]] = Q(1)
        # replace each corner's adjacent pair of square edges by its spoke
        for idx, v in enumerate(corners):
            rot = self.rotations[v]
            # the face walk leaves each corner along the clockwise successor
            # of the edge it arrived on
            p_in = rot.index(old[idx])
            if rot[(p_in + 1) % len(rot)] != old[(idx + 1) % 4]:
                raise AssertionError(f"square edges not consecutive at corner {v!r}")
            cycled = rot[p_in:] + rot[:p_in]
            self.rotations[v] = [spoke[v]] + cycled[2:]
        # new inner square: the edge parallel to old[idx] gets weight b[idx+2]/denom
        new_sq = []
        for idx in range(4):
            v_prev, v_here = corners[(idx - 1) % 4], corners[idx]
            e_new = self.fresh("usq", self.edges)
            self.edges[e_new] = (inner[v_prev], inner[v_here])
            self.weights[e_new] = b[(idx + 2) % 4] / denom
            new_sq.append(e_new)
        self._scan_from.clear()
        for e in old:
            del self.edges[e], self.weights[e]

        # face walks keep the face on their left, so the corners always come in
        # the same rotational order: each inner vertex sees its spoke, then the
        # square edge arriving from the previous corner, then the one leaving
        for idx, v in enumerate(corners):
            self.rotations[inner[v]] = [spoke[v], new_sq[idx], new_sq[(idx + 1) % 4]]
        gauge_vertex = min(self.colors)
        for e in self.rotations[gauge_vertex]:
            self.weights[e] *= denom
        return {"gauge_vertex": gauge_vertex, "factor": denom}

    def lollipop(self, i: int, color: str) -> dict:
        """Open boundary position i (old j >= i becomes j+1) and hang a
        lollipop of the given color there; the note names its vertex and edge."""
        if not 1 <= i <= self.n + 1:
            raise ValueError(f"position {i} out of range")
        for j in range(self.n, i - 1, -1):
            pe = self.pendant.pop(j)
            self.edges[pe] = tuple(j + 1 if x == j else x for x in self.edges[pe])
            self.pendant[j + 1] = pe
        self.n += 1
        v = self.fresh("lp", self.colors)
        e = self.fresh("lpe", self.edges)
        self.colors[v] = color
        self.edges[e] = (i, v)
        self.rotations[v] = [e]
        self.pendant[i] = e
        self.weights[e] = Q(1)
        return {"vertex": v, "edge": e}

    def boundary_vertex(self, i: int) -> None:
        """Split the pendant edge at i by a vertex of the opposite color; a
        lollipop at i would become an interior leaf, so it is refused."""
        pe, u = self.pendant_end(i)
        if len(self.rotations[u]) == 1:
            raise ValueError(f"boundary vertex {i} ends at lollipop {u!r}")
        v_new = self.fresh("bd", self.colors)
        e_new = self.fresh("pe", self.edges)
        self.colors[v_new] = _OTHER_COLOR[self.colors[u]]
        self.edges[pe] = (u, v_new)
        self.edges[e_new] = (v_new, i)
        self.rotations[v_new] = [pe, e_new]
        self.pendant[i] = e_new
        self.weights[e_new] = Q(1)

    def bridge(self, i: int, side: str, t: Fraction) -> dict:
        """Add a bridge of weight t between boundary vertices i and i+1,
        without checking that it is legal; the note names the bridge edge."""
        j = i % self.n + 1
        wanted = ((i, "black"), (j, "white")) if side == "left" else ((i, "white"), (j, "black"))
        # a same-colored neighbor of degree > 1 gets an opposite-color buffer
        # vertex (a boundary move); a same-colored lollipop is consumed outright,
        # which is the contraction of the transient same-color edge
        for pos, want in wanted:
            _, u = self.pendant_end(pos)
            if self.colors[u] == want and len(self.rotations[u]) > 1:
                self.boundary_vertex(pos)
        new_vertices = {}
        for pos, want in wanted:
            pe, u = self.pendant_end(pos)
            v = self.fresh("br", self.colors)
            if self.colors[u] == want and len(self.rotations[u]) == 1:
                # consume the lollipop: the stub inherits the pendant's weight
                self._scan_from.clear()
                self.colors.pop(u)
                self.rotations.pop(u)
                self.colors[v] = want
                e_new = self.fresh("bre", self.edges)
                stub_weight = self.weights.pop(pe)
                self.edges.pop(pe)
                self.edges[e_new] = (v, pos)
                self.weights[e_new] = stub_weight
                new_vertices[pos] = (v, None, e_new)
            else:
                self.colors[v] = want
                e_new = self.fresh("bre", self.edges)
                self.edges[pe] = (u, v)
                self.edges[e_new] = (v, pos)
                self.weights[e_new] = Q(1)
                new_vertices[pos] = (v, pe, e_new)
            self.pendant[pos] = e_new
        e_bridge = self.fresh("brg", self.edges)
        v_i, pe_i, stub_i = new_vertices[i]
        v_j, pe_j, stub_j = new_vertices[j]
        self.edges[e_bridge] = (v_i, v_j)
        self.weights[e_bridge] = t
        # rotations: drawn with the disc above the boundary, i+1 lies to the left
        # of i, so clockwise order at the vertex over i is (up, stub, bridge) and
        # over i+1 it is (up, bridge, stub).
        self.rotations[v_i] = ([pe_i] if pe_i else []) + [stub_i, e_bridge]
        self.rotations[v_j] = ([pe_j] if pe_j else []) + [e_bridge, stub_j]
        return {"bridge_edge": e_bridge, "parameter": t}


def synthesis_steps(pi: BoundedAffinePermutation) -> list[Move]:
    """The lollipop/bridge script building a reduced graph for pi.

    Fixed points peel off as lollipops first; otherwise a left bridge goes in
    at the smallest i with pi^{-1}(i) < pi^{-1}(i+1), which is exactly where
    the bridge is legal once fixed points are gone.  The script is read off
    from pi down to a single lollipop and returned in build order; pi is
    edited as a plain window list.  The tests replay it with ``apply_move``
    from the first lollipop, one validated graph per step, as the oracle for
    ``synthesize(pi)``.
    """
    values = list(pi.values)
    reversed_steps = []
    while len(values) > 1:
        n = len(values)
        fixed = next((i for i, v in enumerate(values, 1) if v in (i, i + n)), None)
        if fixed is not None:
            color = "black" if values[fixed - 1] == fixed else "white"
            reversed_steps.append(Move(f"{color}-lollipop", fixed))
            values = _strip_position(values, fixed)
            continue
        inv = _inverse_window(values)
        inv.append(inv[0] + n)  # pi^{-1}(n+1)
        i = next(i for i in range(1, n + 1) if inv[i - 1] < inv[i])
        reversed_steps.append(Move("left-bridge", i))
        # s_i o pi: the values of residues i and i+1 swap, at pi^{-1}(i) and pi^{-1}(i+1)
        values[(inv[i - 1] - 1) % n] += 1
        values[(inv[i] - 1) % n] -= 1
    color = "black" if values[0] == 1 else "white"
    reversed_steps.append(Move(f"{color}-lollipop", 1))
    return reversed_steps[::-1]


def synthesize(pi: BoundedAffinePermutation) -> PlabicGraph:
    """A reduced graph with trip permutation pi.

    Runs ``synthesis_steps(pi)`` on one ``_Draft``, starting from the empty
    graph, and validates the result once.  The script makes every bridge
    legal, so no step traces strands; one trace of the finished graph checks
    the whole result instead.
    """
    draft = _Draft()
    for move in synthesis_steps(pi):
        side_or_color = move.kind.split("-")[0]
        if move.kind == "left-bridge":
            draft.bridge(move.site, side_or_color, Q(1))
        else:
            draft.lollipop(move.site, side_or_color)
    graph = draft.graph()
    got = graph.trip_permutation().values
    if got != pi.values:
        raise AssertionError(f"synthesized graph has trip permutation {got}, not {pi.values}")
    return graph


def _strip_position(values: list, i: int) -> list:
    """The window on n-1 letters left after deleting the fixed point at i.

    Uses the order embedding that matches the boundary relabeling of
    ``add_lollipop``: residues below i keep their name, the rest shift up.
    """
    n, m = len(values), len(values) - 1
    out = []
    for v in values[: i - 1] + values[i:]:
        s, r = divmod(v - 1, n)
        out.append((r + 1 if r + 1 < i else r) + s * m)
    return out
