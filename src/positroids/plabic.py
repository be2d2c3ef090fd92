"""Disc-embedded bipartite graphs with a rotation system.

A graph is described by its boundary size n (vertices 1..n clockwise on the
disc, each of degree one), internal vertices with a 2-coloring, edges with
ids, and the clockwise cyclic order of edge ids around each internal vertex.
Faces, strands, the trip permutation and downstream/upstream wedges are all
derived from this combinatorial map.  The face trace fills one dart→face map,
keyed by (edge, toward vertex): the faces beside an edge, at a boundary arc
or at a corner, and the face directly downstream (upstream) of an edge, the
face of the dart toward its white (black) end, are each read off it.  Face
labels come from one breadth-first walk across the faces: the labels of the
two faces beside an edge differ by the two strands crossing it.  A wedge is
one side of an arc of strand pieces across the strand diagram, whose atoms
(face cores and internal vertices) the pieces separate.  Atoms and pieces
get integer ids once per graph, strand by strand, so the pieces of a strand
from any crossing on are one range of ids.  One spanning tree of the atom
graph gives each piece a bitmask, the XOR of the subtree masks of its
strand's pieces from it on; a wedge is the XOR of two (four upstream).

Strand traversal rule: a strand crossing an edge toward a white vertex leaves
along the next incident edge clockwise; toward a black vertex it leaves along
the next edge counterclockwise.  Strands terminate when they cross an edge
toward a boundary vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import BoundedAffinePermutation
from .errors import json_shape


class GraphError(ValueError):
    """Raised with a list of human-readable violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _name(x, what: str) -> str:
    """x itself if it is a non-empty string: the only hashable, unambiguous
    name a graph file may give an internal vertex, an edge or a rotation entry."""
    if not isinstance(x, str) or not x:
        raise ValueError(f"{what} must be a non-empty string, got {x!r}")
    return x


@dataclass(frozen=True)
class Face:
    id: str
    walk: tuple  # cyclic sequence of darts (edge_id, from_vertex, to_vertex)
    arcs: tuple  # boundary arcs (i, i+1) crossed by this face's walk
    edges: tuple  # edge ids on the walk, in walk order (may repeat)

    @property
    def kind(self) -> str:
        return "boundary" if self.arcs else "internal"


class _FaceIndex(NamedTuple):
    faces: list  # in tracing order: by each walk's least dart
    by_id: dict  # face id -> Face
    by_dart: dict  # dart (edge id, toward vertex) -> index in faces of the face walking it


class _Atoms(NamedTuple):
    """The atom graph of the strand diagram, with integer ids (faces 0..F-1
    in ``faces()`` order, then the internal vertices), spanned by one tree."""

    vertex: dict  # internal vertex -> atom id
    pieces: dict  # crossing -> (first piece id of its strand, its own)
    suffix: list  # piece id -> XOR of the subtree masks of its strand's pieces from it on
    every: int  # the mask of all atoms


@dataclass(frozen=True)
class Strand:
    source: int
    target: int
    path: tuple  # crossings (edge_id, toward_vertex) in travel order


class PlabicGraph:
    """Validated plabic graph.

    The incidence index (edges at each vertex, the pendant edge at each
    boundary vertex, the rotation successors) is built once, before
    validation, which reads its degrees off it.  Validation traces the faces
    once, together with their map by id and the one dart→face map that every
    face adjacency reads; strands, labels and wedges are computed on first
    use: both label modes from one walk across the faces, each edge's wedge
    in each direction from an XOR of its crossings' suffix masks in one
    spanning tree of the atom graph.  All of it is memoized on the graph.
    """

    def __init__(self, n, colors, edges, rotations):
        self.n = n
        self.colors = dict(colors)
        self.edges = {e: (u, w) for e, (u, w) in edges.items()}
        self.rotations = {v: tuple(r) for v, r in rotations.items()}
        self._cache = {}
        incident = {}
        for e, (u, w) in self.edges.items():
            for x in (u, w):  # a loop twice, so its vertex's degree counts both ends
                incident.setdefault(x, []).append(e)
        self._incident = {x: tuple(es) for x, es in incident.items()}
        self._pendant = {
            i: self._incident[i][0] for i in self.boundary_vertices() if i in self._incident
        }
        # (vertex, edge) -> (next edge clockwise, next edge counterclockwise)
        self._turns = {}
        for v, rot in self.rotations.items():
            for idx, e in enumerate(rot):
                self._turns.setdefault((v, e), (rot[(idx + 1) % len(rot)], rot[idx - 1]))
        violations = self._validate()
        if violations:
            raise GraphError(violations)

    def _memo(self, key, compute):
        """compute(), run once per graph and key."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- construction and serialization --------------------------------

    @classmethod
    def from_json(cls, payload: dict) -> "PlabicGraph":
        """Internal vertex ids, edge ids and rotation entries must be non-empty
        strings and boundary vertices ints in [1, n] (not bools), since
        ``is_boundary`` tells them apart by type.  Ids must not repeat, colors
        are white or black, every edge has two ends, and only internal
        vertices have rotations."""
        payload = json_shape(payload, dict, "a graph")
        n = payload["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"graph size n must be a positive integer, got {n!r}")
        colors = {}
        for v in json_shape(payload["internal"], list, "internal"):
            v = json_shape(v, dict, "an internal vertex")
            vid = _name(v["id"], "internal vertex id")
            if vid in colors:
                raise ValueError(f"internal vertex id {vid!r} is repeated")
            color = v["color"]
            if color not in ("white", "black"):
                raise ValueError(f"internal vertex {vid!r} has bad color {color!r}")
            colors[vid] = color
        edges = {}
        for e in json_shape(payload["edges"], list, "edges"):
            eid = _name(json_shape(e, dict, "an edge")["id"], "edge id")
            if eid in edges:
                raise ValueError(f"edge id {eid!r} is repeated")
            ends = json_shape(e["ends"], list, f"the ends of edge {eid!r}")
            if len(ends) != 2:
                raise ValueError(f"edge {eid!r} has {len(ends)} ends, not 2")
            u, w = ends
            for x in (u, w):
                if not (isinstance(x, str) and x) and not (type(x) is int and 1 <= x <= n):
                    raise ValueError(
                        f"edge {eid!r} end {x!r} is neither an internal id nor in [1, {n}]"
                    )
            edges[eid] = (u, w)
        if n > len(edges):  # each boundary vertex has its own pendant edge
            raise ValueError(f"graph size n = {n} exceeds its edge count {len(edges)}")
        rotations = {}
        for v, r in json_shape(payload["rotation"], dict, "rotation").items():
            if v not in colors:
                raise ValueError(f"rotation at {v!r}, which is not an internal vertex id")
            rotations[v] = [
                _name(e, f"rotation entry at {v!r}")
                for e in json_shape(r, list, f"rotation at {v!r}")
            ]
        return cls(n, colors, edges, rotations)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "internal": [
                {"id": v, "color": c} for v, c in sorted(self.colors.items())
            ],
            "edges": [
                {"id": e, "ends": list(ends)} for e, ends in sorted(self.edges.items())
            ],
            "rotation": {v: list(r) for v, r in sorted(self.rotations.items())},
        }

    # -- basic structure ------------------------------------------------

    def is_boundary(self, v) -> bool:
        return isinstance(v, int)

    def boundary_vertices(self) -> range:
        return range(1, self.n + 1)

    def incident(self, v) -> list:
        return list(self._incident.get(v, ()))

    def other_end(self, e, v):
        u, w = self.edges[e]
        if u == v:
            return w
        if w == v:
            return u
        raise ValueError(f"{v!r} is not an endpoint of edge {e!r}")

    def _ends_by_color(self, e) -> tuple:
        """(white end, black end) of edge e; a boundary vertex takes the
        colour opposite to its neighbour's."""
        u, w = self.edges[e]
        return (u, w) if self.colors.get(u) == "white" or self.colors.get(w) == "black" else (w, u)

    def pendant_edge(self, i: int) -> str:
        if i not in self._pendant:
            raise ValueError(f"boundary vertex {i} has no edge")
        return self._pendant[i]

    @property
    def k(self) -> int:
        white = sum(1 for c in self.colors.values() if c == "white")
        black = sum(1 for c in self.colors.values() if c == "black")
        ends = {self.other_end(e, i) for i, e in self._pendant.items()}
        black_boundary = sum(1 for v in ends if self.colors.get(v) == "black")
        return white - black + black_boundary

    def _validate(self) -> list[str]:
        """The violations of the first stage that has any: colours and edge ends
        (degrees read off the incidence index), rotations, leaves and components, Euler."""
        out = []
        for v, c in self.colors.items():
            if c not in ("white", "black"):
                out.append(f"vertex {v!r} has bad color {c!r}")
        for e, (u, w) in self.edges.items():
            for x in (u, w):
                if self.is_boundary(x) and not 1 <= x <= self.n:
                    out.append(f"edge {e!r} touches unknown boundary vertex {x}")
                elif not self.is_boundary(x) and x not in self.colors:
                    out.append(f"edge {e!r} touches unknown vertex {x!r}")
            if self.is_boundary(u) and self.is_boundary(w):
                out.append(f"edge {e!r} joins two boundary vertices")
            elif u in self.colors and w in self.colors and self.colors[u] == self.colors[w]:
                out.append(f"non-bipartite edge {e!r} between two {self.colors[u]} vertices")
        for i in self.boundary_vertices():
            if (d := len(self._incident.get(i, ()))) != 1:
                out.append(f"boundary vertex {i} has degree {d}, expected 1")
        if out:
            return out
        for v in self.colors:
            rot = self.rotations.get(v)
            if rot is None:
                out.append(f"vertex {v!r} has no rotation")
                continue
            if sorted(rot) != sorted(self.incident(v)):
                out.append(f"rotation at {v!r} is not a cyclic order of its incident edges")
        if out:
            return out
        for v in self.colors:
            if len(self.rotations[v]) == 1 and not self.is_boundary(self.other_end(self.rotations[v][0], v)):
                out.append(f"interior leaf at vertex {v!r}")
        # components must reach the boundary
        seen = set()
        stack = [self.other_end(self.pendant_edge(i), i) for i in self.boundary_vertices()]
        while stack:
            v = stack.pop()
            if v in seen or self.is_boundary(v):
                continue
            seen.add(v)
            for e in self.incident(v):
                stack.append(self.other_end(e, v))
        stranded = set(self.colors) - seen
        for v in sorted(stranded):
            out.append(f"vertex {v!r} lies in a component with no boundary vertex")
        if out:
            return out
        # Euler check for a disc embedding.  The rotations permute the edges at each vertex,
        # so the face walks are the orbits of a permutation of the darts and close up
        faces = self.faces()
        if len(faces) + len(self.colors) != len(self.edges) + 1:
            out.append(
                "rotation inconsistent with planarity: "
                f"|F|={len(faces)}, |V|={len(self.colors)}, |E|={len(self.edges)}"
            )
        return out

    # -- faces -----------------------------------------------------------

    def _next_dart(self, dart):
        """Continue the face walk keeping the face on the left of each dart."""
        e, _, v = dart
        if self.is_boundary(v):
            j = (v - 2) % self.n + 1  # predecessor boundary vertex
            pe = self.pendant_edge(j)
            return (pe, j, self.other_end(pe, j))
        nxt = self._turns[(v, e)][0]
        return (nxt, v, self.other_end(nxt, v))

    def _trace_faces(self) -> _FaceIndex:
        """Walk every face once, each from its least dart by (str(edge),
        str(from)); the walks come out in that order, which fixes the
        numbering of the internal faces.  Each dart's face is recorded as it is
        walked; the stages of validation before the trace rule out a dart met twice."""
        darts = sorted(
            (d for e, (u, w) in self.edges.items() for d in ((e, u, w), (e, w, u))),
            key=lambda d: (str(d[0]), str(d[1])),
        )
        faces, by_dart = [], {}
        internal_index = 0
        for start in darts:
            if (start[0], start[2]) in by_dart:
                continue
            walk = []
            d = start
            while True:
                if (d[0], d[2]) in by_dart:
                    raise AssertionError(f"dart {d} revisited; the face walks are not a permutation")
                by_dart[d[0], d[2]] = len(faces)
                walk.append(d)
                d = self._next_dart(d)
                if d == start:
                    break
            arcs = tuple(
                ((d[2] - 2) % self.n + 1, d[2]) for d in walk if self.is_boundary(d[2])
            )
            # boundary faces named by their arc, internal faces numbered
            if arcs:
                fid = "b" + "-".join(str(a) for a, _ in sorted(arcs))
            else:
                internal_index += 1
                fid = f"f{internal_index}"
            faces.append(Face(fid, tuple(walk), arcs, tuple(d[0] for d in walk)))
        return _FaceIndex(faces, {f.id: f for f in faces}, by_dart)

    def _faces(self) -> _FaceIndex:
        return self._memo("faces", self._trace_faces)

    def _dart_face(self, e, toward) -> Face:
        """The face whose walk crosses edge e toward the given vertex."""
        index = self._faces()
        return index.faces[index.by_dart[e, toward]]

    def faces(self) -> list[Face]:
        return self._faces().faces

    def face_by_id(self, fid: str) -> Face:
        return self._faces().by_id[fid]

    def edge_faces(self, edge_id: str) -> tuple:
        """Ids of the distinct faces beside the edge, in ``faces()`` order."""
        index = self._faces()
        beside = sorted({index.by_dart[edge_id, x] for x in self.edges[edge_id]})
        return tuple(index.faces[a].id for a in beside)

    def boundary_face(self, i: int) -> Face:
        """The face whose walk runs along the boundary arc from i to i+1,
        into i+1 along its pendant edge."""
        j = i % self.n + 1
        return self._dart_face(self.pendant_edge(j), j)

    def face_of_corner(self, v, e_in, e_out) -> Face:
        """Face whose walk turns from edge e_in to edge e_out at internal v: the
        face of the dart along e_in into v, if e_out follows e_in clockwise there."""
        if self._turns[v, e_in][0] != e_out:
            raise KeyError((v, e_in, e_out))
        return self._dart_face(e_in, v)

    # -- strands ----------------------------------------------------------

    def _next_crossing(self, crossing):
        e, v = crossing
        cw, ccw = self._turns[(v, e)]
        nxt = cw if self.colors[v] == "white" else ccw
        return (nxt, self.other_end(nxt, v))

    def strands(self) -> list[Strand]:
        return self._memo("strands", self._trace_strands)

    def _trace_strands(self) -> list[Strand]:
        strands = []
        for i in self.boundary_vertices():
            pe = self.pendant_edge(i)
            crossing = (pe, self.other_end(pe, i))
            path = []
            while True:
                path.append(crossing)
                if self.is_boundary(crossing[1]):
                    break
                crossing = self._next_crossing(crossing)
            strands.append(Strand(i, path[-1][1], tuple(path)))
        return strands

    def strand_from(self, i: int) -> Strand:
        return self.strands()[i - 1]

    def trip_permutation(self) -> BoundedAffinePermutation:
        """Lifted targets of the strands; lollipops decorate fixed points."""
        values = []
        for s in self.strands():
            a, t = s.source, s.target
            if (t - a) % self.n == 0:
                neighbor = self.other_end(s.path[0][0], a)
                values.append(a if self.colors[neighbor] == "black" else a + self.n)
            else:
                lift = t if t > a else t + self.n
                values.append(lift)
        return BoundedAffinePermutation(tuple(values))

    def is_reduced(self):
        """(flag, witness): closed loops, self-crossings, same-order pairs."""
        return self._memo("reduced", self._check_reduced)

    def _check_reduced(self):
        strands = self.strands()
        # each crossing follows at most one other and a strand's first follows
        # none, so the boundary strands never share or repeat a crossing
        if sum(len(s.path) for s in strands) != 2 * len(self.edges):
            return False, "closed-loop strand (some edge crossing unused by boundary strands)"
        for s in strands:
            seen_edges = {}
            for e, _ in s.path:
                seen_edges[e] = seen_edges.get(e, 0) + 1
            allowed = self.pendant_edge(s.source) if s.source == s.target else None
            doubled = [e for e, c in seen_edges.items() if c > 1 and e != allowed]
            if doubled:
                return False, f"strand {s.source}->{s.target} self-crosses at edge {doubled[0]!r}"
        crossed = [[e for e, _ in s.path] for s in strands]
        crossed_sets = [set(es) for es in crossed]
        for a in range(len(strands)):
            for b in range(a + 1, len(strands)):
                sa, sb = strands[a], strands[b]
                common_a = [e for e in crossed[a] if e in crossed_sets[b]]
                common_b = [e for e in crossed[b] if e in crossed_sets[a]]
                if common_a and common_a != list(reversed(common_b)):
                    return False, (
                        f"strands {sa.source}->{sa.target} and {sb.source}->{sb.target} "
                        f"pass common edges in the same order"
                    )
        return True, None

    def require_reduced(self):
        ok, witness = self.is_reduced()
        if not ok:
            raise GraphError([f"graph is not reduced: {witness}"])

    # -- face labels -----------------------------------------------------
    #
    # A face's source (target) label holds the sources (targets) of the
    # strands that pass it on their left.  The two faces beside an edge lie
    # on opposite sides of exactly the two strands crossing it, so their
    # labels differ by those two strands, and the faces reached from a seed
    # across the edges carry every label.  Strand a -> t carries the mark
    # 2^a + 2^(n+t); a face's marks are the XOR of the marks of the strands
    # it lies left of, so bits 1..n are its source label and n+1..2n its
    # target label.  The seed, the face on the boundary arc from n to 1, lies
    # left of exactly the strands whose lifted trip value exceeds n: its
    # labels are the reverse necklace's I_n and the forward necklace's I_1.

    def face_labels(self, mode: str) -> dict:
        """Map face id -> sorted tuple of strand sources (or targets)."""
        if mode not in ("source", "target"):
            raise ValueError(f"bad mode {mode!r}")
        return self._memo("labels", self._label_faces)[mode == "target"]

    def _label_faces(self) -> tuple:
        """(source, target) labels, from one breadth-first walk across the faces."""
        self.require_reduced()
        n, index = self.n, self._faces()
        swap, seed_marks = dict.fromkeys(self.edges, 0), 0
        for s, value in zip(self.strands(), self.trip_permutation().values):
            mark = 1 << s.source | 1 << (n + s.target)
            for e, _ in s.path:
                swap[e] ^= mark
            if value > n:
                seed_marks ^= mark
        seed = index.by_dart[self.pendant_edge(1), 1]  # boundary_face(n)
        marks = [None] * len(index.faces)
        marks[seed] = seed_marks
        order = [seed]
        for a in order:
            for e, back, _ in index.faces[a].walk:
                b, want = index.by_dart[e, back], marks[a] ^ swap[e]
                if marks[b] is None:
                    marks[b] = want
                    order.append(b)
                elif marks[b] != want:
                    raise AssertionError(f"the labels beside edge {e!r} differ by more than its two strands")
        if None in marks:
            raise AssertionError(f"the walk across the faces misses face {index.faces[marks.index(None)].id!r}")
        source = {f.id: tuple(i for i in range(1, n + 1) if m >> i & 1) for f, m in zip(index.faces, marks)}
        target = {f.id: tuple(i for i in range(1, n + 1) if m >> n + i & 1) for f, m in zip(index.faces, marks)}
        return source, target

    # -- wedges and the faces directly beside them ---------------------------
    #
    # A wedge is the part of the disc that the two half-strands leaving (or
    # entering) an edge cut off in the strand diagram.  Between two crossings
    # a strand cuts one corner: the piece separates the internal vertex from
    # the face at that corner, and is named by the crossing (edge,
    # toward_vertex) it follows.  The atoms it separates are the faces and
    # the internal vertices, and the pieces are the edges of the atom graph.
    # A boundary vertex needs no atom: its two end stubs fence it off from the
    # two boundary faces beside it, as the corners next to them fence off the
    # pendant edge's internal end.
    #
    # In a reduced graph a strand never crosses itself, and two strands that
    # cross twice do so in opposite orders, so the two half-strands form a
    # simple arc across the disc.  Its pieces are then exactly the atom-graph
    # edges between the arc's two sides, and an atom lies across the arc from
    # atom 0 iff its path in one spanning tree crosses the arc an odd number
    # of times.  With each tree piece carrying the bitmask of the subtree
    # below it, the side away from atom 0 is the XOR of the masks of the
    # arc's pieces.  The face directly downstream (upstream) of an edge, the
    # one face beside it inside that wedge, is the face of the dart toward
    # its white (black) end.

    def _corner_atom(self, v, e_in, e_out) -> int:
        """The atom of the face a strand cuts off at internal v, turning from e_in to e_out:
        that of the dart into v along e_in if v is white (the strand turns clockwise), else e_out."""
        return self._faces().by_dart[e_in if self.colors[v] == "white" else e_out, v]

    def _atoms(self) -> _Atoms:
        return self._memo("atoms", self._span_atoms)

    def _span_atoms(self) -> _Atoms:
        """Number the atoms and the pieces, link the atoms each piece
        separates, and span the atom graph by one breadth-first tree from
        atom 0.  Strand by strand, each crossing takes the next piece id, so a
        strand's pieces from one crossing on are a range of ids, and each
        piece's suffix mask is the XOR of the subtree masks of that range."""
        self.require_reduced()
        faces = self.faces()
        vertex = {v: a for a, v in enumerate(self.colors, start=len(faces))}
        neighbors = [[] for _ in range(len(faces) + len(vertex))]
        pieces, strands = {}, []
        start = 0
        for s in self.strands():
            for piece, crossing in enumerate(s.path, start):
                pieces[crossing] = (start, piece)
            for piece, ((e, v), (e_out, _)) in enumerate(zip(s.path, s.path[1:]), start):
                f, x = self._corner_atom(v, e, e_out), vertex[v]
                neighbors[x].append((f, piece))
                neighbors[f].append((x, piece))
            strands.append(range(start, start + len(s.path)))
            start += len(s.path)
        # the tree: each atom's parent atom and piece, in breadth-first order
        parent = {0: None}
        order = [0]
        for x in order:
            for y, piece in neighbors[x]:
                if y not in parent:
                    parent[y] = (x, piece)
                    order.append(y)
        if len(order) != len(neighbors):
            raise AssertionError(
                f"the atom graph is disconnected: atom 0 reaches {len(order)} of {len(neighbors)} atoms"
            )
        below = [1 << a for a in range(len(neighbors))]
        tree = [0] * start  # piece -> the subtree mask below it, 0 off the tree
        for y in reversed(order[1:]):
            x, piece = parent[y]
            tree[piece] = below[y]
            below[x] |= below[y]
        suffix = [0] * start
        for r in strands:
            acc = 0
            for piece in reversed(r):
                acc ^= tree[piece]
                suffix[piece] = acc
        return _Atoms(vertex, pieces, suffix, (1 << len(neighbors)) - 1)

    def _wedges(self, upstream: bool) -> dict:
        """Edge id -> the bitmask of the atoms in its upstream (or
        downstream) wedge, built once per graph and direction."""
        return self._memo(("wedges", upstream), lambda: {e: self._wedge(e, upstream) for e in self.edges})

    def _wedge(self, edge_id: str, upstream: bool) -> int:
        """Atoms cut off by the two half-strands leaving (or entering) an
        edge: the side of their arc that does not hold the edge itself."""
        atoms = self._atoms()
        mask = 0
        for toward in self.edges[edge_id]:
            start, piece = atoms.pieces[(edge_id, toward)]
            mask ^= atoms.suffix[start] ^ atoms.suffix[piece] if upstream else atoms.suffix[piece]
        sides = {mask >> atoms.vertex[x] & 1 for x in self.edges[edge_id] if not self.is_boundary(x)}
        if len(sides) != 1:
            raise AssertionError(f"edge {edge_id!r} has its internal ends on both sides of its cut")
        return mask ^ atoms.every if sides.pop() else mask

    def _wedge_sets(self, mask: int):
        """(faces, vertices): the face ids and internal vertex ids in a mask."""
        atoms = self._atoms()
        faces = {f.id for a, f in enumerate(self.faces()) if mask >> a & 1}
        vertices = {v for v, a in atoms.vertex.items() if mask >> a & 1}
        return faces, vertices

    def downstream(self, edge_id: str):
        return self._wedge_sets(self._wedges(False)[edge_id])

    def upstream(self, edge_id: str):
        return self._wedge_sets(self._wedges(True)[edge_id])

    def directly_downstream(self, edge_id: str) -> str:
        """The unique adjacent face inside the downstream wedge of the edge."""
        return self._directly(edge_id, upstream=False)

    def directly_upstream(self, edge_id: str) -> str:
        return self._directly(edge_id, upstream=True)

    def _directly(self, edge_id: str, upstream: bool) -> str:
        self.require_reduced()
        white, black = self._ends_by_color(edge_id)
        return self._dart_face(edge_id, black if upstream else white).id
