"""Disc-embedded bipartite graphs with a rotation system.

A graph is described by its boundary size n (vertices 1..n clockwise on the
disc, each of degree one), internal vertices with a 2-coloring, edges with
ids, and the clockwise cyclic order of edge ids around each internal vertex.
Faces, strands, the trip permutation and downstream/upstream wedges are all
derived from this combinatorial map.

Strand traversal rule: a strand crossing an edge toward a white vertex leaves
along the next incident edge clockwise; toward a black vertex it leaves along
the next edge counterclockwise.  Strands terminate when they cross an edge
toward a boundary vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import BoundedAffinePermutation


class GraphError(ValueError):
    """Raised with a list of human-readable violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


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
    by_arc: dict  # boundary arc (i, i+1) -> the face walking along it
    by_edge: dict  # edge id -> distinct ids of the faces beside it, in face order


@dataclass(frozen=True)
class Strand:
    source: int
    target: int
    path: tuple  # crossings (edge_id, toward_vertex) in travel order


class PlabicGraph:
    """Validated plabic graph.

    The incidence index (edges at each vertex, the pendant edge at each
    boundary vertex, the rotation successors) is built once, before
    validation.  Validation traces the faces once, together with their maps
    by id, by boundary arc and by edge; strands, labels and wedges are
    computed on first use.  All of it is memoized on the graph.
    """

    def __init__(self, n, colors, edges, rotations):
        self.n = n
        self.colors = dict(colors)
        self.edges = {e: (u, w) for e, (u, w) in edges.items()}
        self.rotations = {v: tuple(r) for v, r in rotations.items()}
        self._cache = {}
        incident = {}
        for e, (u, w) in self.edges.items():
            for x in (u,) if u == w else (u, w):
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
        if not isinstance(payload["n"], int):
            raise ValueError(f"graph size n must be an integer, got {payload['n']!r}")
        colors = {v["id"]: v["color"] for v in payload["internal"]}
        edges = {}
        for e in payload["edges"]:
            u, w = e["ends"]
            edges[e["id"]] = (u, w)
        rotations = {v: list(r) for v, r in payload["rotation"].items()}
        return cls(payload["n"], colors, edges, rotations)

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
        out = []
        for v, c in self.colors.items():
            if c not in ("white", "black"):
                out.append(f"vertex {v!r} has bad color {c!r}")
        degree = {v: 0 for v in self.colors}
        bdeg = {i: 0 for i in self.boundary_vertices()}
        for e, (u, w) in self.edges.items():
            for x in (u, w):
                if self.is_boundary(x):
                    if not 1 <= x <= self.n:
                        out.append(f"edge {e!r} touches unknown boundary vertex {x}")
                    else:
                        bdeg[x] += 1
                elif x in degree:
                    degree[x] += 1
                else:
                    out.append(f"edge {e!r} touches unknown vertex {x!r}")
            if not self.is_boundary(u) and not self.is_boundary(w):
                if u in self.colors and w in self.colors and self.colors[u] == self.colors[w]:
                    out.append(f"non-bipartite edge {e!r} between two {self.colors[u]} vertices")
        for i, d in bdeg.items():
            if d != 1:
                out.append(f"boundary vertex {i} has degree {d}, expected 1")
        for e, (u, w) in self.edges.items():
            if self.is_boundary(u) and self.is_boundary(w):
                out.append(f"edge {e!r} joins two boundary vertices")
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
        for v, d in degree.items():
            if d == 1:
                neighbor = self.other_end(self.incident(v)[0], v)
                if not self.is_boundary(neighbor):
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
        # the rotation system must give a disc embedding: Euler check
        try:
            faces = self.faces()
        except Exception as exc:  # malformed rotation closes walks badly
            return [f"rotation system does not close up: {exc}"]
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
        numbering of the internal faces."""
        darts = sorted(
            (d for e, (u, w) in self.edges.items() for d in ((e, u, w), (e, w, u))),
            key=lambda d: (str(d[0]), str(d[1])),
        )
        unused = set(darts)
        faces = []
        internal_index = 0
        for start in darts:
            if start not in unused:
                continue
            walk = []
            d = start
            while True:
                if d not in unused:
                    raise ValueError(f"dart {d} revisited; rotation is not a permutation")
                unused.discard(d)
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
        by_arc, by_edge = {}, {}
        for f in faces:
            for arc in f.arcs:
                by_arc.setdefault(arc, f)
            for e in f.edges:
                beside = by_edge.setdefault(e, [])
                if f.id not in beside:
                    beside.append(f.id)
        return _FaceIndex(
            faces,
            {f.id: f for f in faces},
            by_arc,
            {e: tuple(fids) for e, fids in by_edge.items()},
        )

    def _faces(self) -> _FaceIndex:
        return self._memo("faces", self._trace_faces)

    def faces(self) -> list[Face]:
        return self._faces().faces

    def face_by_id(self, fid: str) -> Face:
        return self._faces().by_id[fid]

    def edge_faces(self, edge_id: str) -> tuple:
        """Ids of the distinct faces beside the edge, in ``faces()`` order."""
        return self._faces().by_edge[edge_id]

    def boundary_face(self, i: int) -> Face:
        """The face whose walk runs along the boundary arc from i to i+1."""
        face = self._faces().by_arc.get((i, i % self.n + 1))
        if face is None:
            raise AssertionError("every arc lies on some face")
        return face

    def face_of_corner(self, v, e_in, e_out) -> Face:
        """Face whose walk turns from edge e_in to edge e_out at internal v."""
        return self._memo("corners", self._trace_corners)[(v, e_in, e_out)]

    def _trace_corners(self):
        corners = {}
        for f in self.faces():
            walk = f.walk
            for idx, dart in enumerate(walk):
                e, _, v = dart
                if self.is_boundary(v):
                    continue
                nxt = walk[(idx + 1) % len(walk)]
                corners[(v, e, nxt[0])] = f
        return corners

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
                e, v = crossing
                if self.is_boundary(v):
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
        covered = set()
        for s in self.strands():
            for c in s.path:
                if c in covered:
                    return False, f"edge {c[0]!r} crossed twice in direction {c[1]!r}"
                covered.add(c)
        if len(covered) != 2 * len(self.edges):
            return False, "closed-loop strand (some edge crossing unused by boundary strands)"
        for s in self.strands():
            seen_edges = {}
            for e, _ in s.path:
                seen_edges[e] = seen_edges.get(e, 0) + 1
            allowed = self.pendant_edge(s.source) if s.source == s.target else None
            doubled = [e for e, c in seen_edges.items() if c > 1 and e != allowed]
            if doubled:
                return False, f"strand {s.source}->{s.target} self-crosses at edge {doubled[0]!r}"
        strands = self.strands()
        for a in range(len(strands)):
            for b in range(a + 1, len(strands)):
                sa, sb = strands[a], strands[b]
                ea = [e for e, _ in sa.path]
                eb = [e for e, _ in sb.path]
                common_a = [e for e in ea if e in set(eb)]
                common_b = [e for e in eb if e in set(ea)]
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

    # -- face labels -------------------------------------------------------

    def _left_faces(self, strand: Strand) -> set[str]:
        """Ids of faces lying to the left of the strand."""
        crossed = {}
        for e, _ in strand.path:
            crossed[e] = crossed.get(e, 0) + 1
        side = {}
        # seed from the corners the strand cuts
        for idx in range(len(strand.path) - 1):
            e_in, v = strand.path[idx]
            e_out, _ = strand.path[idx + 1]
            if self.colors[v] == "white":
                face = self.face_of_corner(v, e_in, e_out)
                want = "L"  # white vertex sits right of the strand
            else:
                face = self.face_of_corner(v, e_out, e_in)
                want = "R"
            if side.setdefault(face.id, want) != want:
                raise GraphError([f"strand {strand.source} gives face {face.id} two sides"])
        if strand.source != (strand.target - 1) % self.n + 1:
            # the boundary faces flanking the two terminal stubs
            a = strand.source
            t = (strand.target - 1) % self.n + 1
            for fid, want in (
                (self.boundary_face(a).id, "L"),
                (self.boundary_face((a - 2) % self.n + 1).id, "R"),
                (self.boundary_face((t - 2) % self.n + 1).id, "L"),
                (self.boundary_face(t).id, "R"),
            ):
                if side.setdefault(fid, want) != want:
                    raise GraphError(
                        [f"strand {strand.source} endpoint seeds disagree at face {fid}"]
                    )
        # propagate across edges the strand does not cross
        changed = True
        while changed:
            changed = False
            for e, fids in self._faces().by_edge.items():
                if e in crossed or len(fids) != 2:
                    continue
                fa, fb = sorted(fids)
                if fa in side and fb not in side:
                    side[fb] = side[fa]
                    changed = True
                elif fb in side and fa not in side:
                    side[fa] = side[fb]
                    changed = True
        missing = [f.id for f in self.faces() if f.id not in side]
        if missing:
            raise GraphError([f"strand {strand.source}: faces {missing} got no side"])
        return {fid for fid, s in side.items() if s == "L"}

    def face_labels(self, mode: str) -> dict:
        """Map face id -> sorted tuple of strand sources (or targets)."""
        if mode not in ("source", "target"):
            raise ValueError(f"bad mode {mode!r}")
        return self._memo(f"labels-{mode}", lambda: self._label_faces(mode))

    def _label_faces(self, mode: str) -> dict:
        self.require_reduced()
        labels = {f.id: [] for f in self.faces()}
        for s in self.strands():
            mark = s.source if mode == "source" else (s.target - 1) % self.n + 1
            for fid in self._left_faces(s):
                labels[fid].append(mark)
        return {fid: tuple(sorted(v)) for fid, v in labels.items()}

    # -- wedges -----------------------------------------------------------

    def _passage_strand(self):
        """Map each crossing (edge, toward_vertex) to (strand index, position)."""
        return self._memo(
            "passages",
            lambda: {
                c: (si, pos) for si, s in enumerate(self.strands()) for pos, c in enumerate(s.path)
            },
        )

    def _atom_graph(self):
        """Region adjacency of the strand-diagram complement.

        Atoms: one per face core, one per internal vertex, one per boundary
        vertex.  Every strand piece (a corner cut, or a terminal/initial stub
        along a pendant edge) separates exactly two atoms; the piece is the
        adjacency key.  Maps each atom to its (neighbor atom, piece) pairs.
        """
        return self._memo("atoms", self._cut_atoms)

    def _cut_atoms(self):
        pieces = {}  # piece key -> (atom, atom)
        passages = self._passage_strand()
        strands = self.strands()
        for c, (si, pos) in passages.items():
            e, v = c
            if self.is_boundary(v):
                # terminal stub of the strand ending at v
                i = v
                neighbor = self.other_end(e, i)
                if self.colors[neighbor] == "white":
                    facing = self.boundary_face((i - 2) % self.n + 1)  # arc (i-1, i)
                else:
                    facing = self.boundary_face(i)  # arc (i, i+1)
                pieces[("stub-end", i)] = (("b", i), ("f", facing.id))
            else:
                nxt = strands[si].path[pos + 1]
                e_out = nxt[0]
                if self.colors[v] == "white":
                    face = self.face_of_corner(v, e, e_out)
                else:
                    face = self.face_of_corner(v, e_out, e)
                pieces[("corner", c)] = (("v", v), ("f", face.id))
        for i in self.boundary_vertices():
            e = self.pendant_edge(i)
            neighbor = self.other_end(e, i)
            if self.colors[neighbor] == "white":
                facing = self.boundary_face(i)  # start stub guards arc (i, i+1)
            else:
                facing = self.boundary_face((i - 2) % self.n + 1)
            pieces[("stub-start", i)] = (("b", i), ("f", facing.id))
        neighbors = {}
        for key, (x, y) in pieces.items():
            neighbors.setdefault(x, []).append((y, key))
            neighbors.setdefault(y, []).append((x, key))
        return neighbors

    def _wedge(self, edge_id: str, upstream: bool):
        """Atoms cut off by the two half-strands leaving (or entering) an edge.

        Returns (faces, vertices): the face ids and internal vertex ids inside
        the wedge, i.e. in the component not containing the edge itself.
        """
        passages = self._passage_strand()
        strands = self.strands()
        u, w = self.edges[edge_id]
        blocked = set()
        for v_toward in (u, w):
            si, pos = passages[(edge_id, v_toward)]
            path = strands[si].path
            if not upstream:
                segment = path[pos:]
                for c in segment:
                    e, v = c
                    if self.is_boundary(v):
                        blocked.add(("stub-end", v))
                    else:
                        blocked.add(("corner", c))
            else:
                segment = path[: pos + 1]
                blocked.add(("stub-start", strands[si].source))
                for c in segment[:-1]:
                    blocked.add(("corner", c))
        neighbors = self._atom_graph()
        interior = [x for x in (u, w) if not self.is_boundary(x)]
        seeds = {("v", v) for v in interior}
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            x = stack.pop()
            for y, piece in neighbors.get(x, ()):
                if piece not in blocked and y not in seen:
                    seen.add(y)
                    stack.append(y)
        faces = {f.id for f in self.faces() if ("f", f.id) not in seen}
        vertices = {v for v in self.colors if ("v", v) not in seen}
        return faces, vertices

    def downstream(self, edge_id: str):
        return self._memo(("down", edge_id), lambda: self._wedge(edge_id, upstream=False))

    def upstream(self, edge_id: str):
        return self._memo(("up", edge_id), lambda: self._wedge(edge_id, upstream=True))

    def directly_downstream(self, edge_id: str) -> str:
        """The unique adjacent face inside the downstream wedge of the edge."""
        return self._directly(edge_id, upstream=False)

    def directly_upstream(self, edge_id: str) -> str:
        return self._directly(edge_id, upstream=True)

    def _directly(self, edge_id: str, upstream: bool) -> str:
        faces, _ = self.upstream(edge_id) if upstream else self.downstream(edge_id)
        hits = [fid for fid in self.edge_faces(edge_id) if fid in faces]
        if len(hits) != 1:
            side = "upstream" if upstream else "downstream"
            raise AssertionError(f"edge {edge_id!r} has {len(hits)} directly {side} faces")
        return hits[0]
