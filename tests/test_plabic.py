import random

import pytest

from conftest import all_bounded_affine, plan_graphs, random_bounded_affine
from positroids import cli, fixtures
from positroids.core import BoundedAffinePermutation, necklace_from_perm
from positroids.matchings import boundary_matrix
from positroids.moves import synthesize
from positroids.plabic import Face, GraphError, PlabicGraph


def lollipop_graph(color):
    return PlabicGraph(1, {"v": color}, {"e": (1, "v")}, {"v": ["e"]})


def test_square4_structure(square4):
    assert square4.n == 4
    assert square4.k == 2
    assert len(square4.colors) == 4
    assert len(square4.edges) == 8
    assert len(square4.faces()) == 5


def test_non_bipartite_rejected():
    with pytest.raises(GraphError, match="non-bipartite"):
        PlabicGraph(
            2,
            {"u": "white", "v": "white"},
            {"e1": (1, "u"), "e2": (2, "v"), "e3": ("u", "v")},
            {"u": ["e1", "e3"], "v": ["e2", "e3"]},
        )


def test_interior_leaf_rejected():
    with pytest.raises(GraphError, match="interior leaf"):
        PlabicGraph(
            1,
            {"u": "white", "v": "black"},
            {"e1": (1, "u"), "e2": ("u", "v")},
            {"u": ["e1", "e2"], "v": ["e2"]},
        )


def test_boundary_to_boundary_edge_rejected():
    with pytest.raises(GraphError, match="two boundary"):
        PlabicGraph(2, {}, {"e": (1, 2)}, {})


def test_boundary_degree_enforced():
    with pytest.raises(GraphError, match="degree"):
        PlabicGraph(
            2,
            {"u": "white"},
            {"e1": (1, "u"), "e2": (1, "u")},
            {"u": ["e1", "e2"]},
        )


def test_bad_rotation_rejected():
    with pytest.raises(GraphError, match="rotation"):
        PlabicGraph(
            1,
            {"u": "white", "v": "black", "w": "white", "x": "black"},
            {
                "e1": (1, "u"),
                "e2": ("u", "v"),
                "e3": ("v", "w"),
                "e4": ("w", "x"),
                "e5": ("x", "u"),
            },
            {
                "u": ["e1", "e2", "e5"],
                "v": ["e2", "e3"],
                "w": ["e3", "e3"],
                "x": ["e4", "e5"],
            },
        )


def test_euler_on_fixtures(square4, schubert36, d4, tri6, chamber_graph):
    for g in (square4, schubert36, d4, tri6, chamber_graph):
        assert len(g.faces()) + len(g.colors) == len(g.edges) + 1


def test_lollipop_single_face():
    for color in ("white", "black"):
        g = lollipop_graph(color)
        assert len(g.faces()) == 1


def test_lollipop_decorations():
    assert lollipop_graph("black").trip_permutation().values == (1,)
    assert lollipop_graph("white").trip_permutation().values == (2,)


def test_schubert36_faces(schubert36):
    faces = schubert36.faces()
    assert len(faces) == 9
    assert sum(1 for f in faces if f.kind == "boundary") == 6


def test_square4_strand_path(square4):
    s = square4.strand_from(1)
    assert s.path == (("leg1", "v1"), ("s12", "v2"), ("s23", "v3"), ("leg3", 3))
    assert square4.trip_permutation().values == (3, 4, 5, 6)


def test_schubert36_trip_permutation(schubert36):
    assert schubert36.trip_permutation().values == (3, 5, 6, 7, 8, 10)
    # figure check: the strand from 3 ends at 6
    assert schubert36.strand_from(3).target == 6


def test_every_edge_crossed_twice(schubert36):
    crossings = [c for s in schubert36.strands() for c in s.path]
    assert len(crossings) == 2 * len(schubert36.edges)
    assert len(set(crossings)) == len(crossings)


def test_reduced_fixtures(square4, schubert36, d4, tri6, chamber_graph):
    for g in (square4, schubert36, d4, tri6, chamber_graph):
        ok, witness = g.is_reduced()
        assert ok, witness


def test_doubled_edge_not_reduced(square4):
    # a parallel copy of one square edge creates a bigon: two strands
    # crossing twice in the same order
    g = PlabicGraph(
        4,
        dict(square4.colors),
        {**{e: ends for e, ends in square4.edges.items()}, "dup": ("v1", "v2")},
        {
            "v1": ["leg1", "s12", "dup", "s41"],
            "v2": ["dup", "s12", "leg2", "s23"],
            "v3": ["s34", "s23", "leg3"],
            "v4": ["leg4", "s41", "s34"],
        },
    )
    ok, witness = g.is_reduced()
    assert not ok
    assert witness == "strands 1->4 and 2->3 pass common edges in the same order"


def test_closed_loop_not_reduced(square4):
    # a black vertex joined to v1 by two edges: the strand around that bigon
    # closes on itself and reaches no boundary vertex
    rotations = {v: list(r) for v, r in square4.rotations.items()}
    rotations["v1"] = ["z1", "z2"] + rotations["v1"]
    rotations["u"] = ["z1", "z2"]
    g = PlabicGraph(
        4,
        {**square4.colors, "u": "black"},
        {**square4.edges, "z1": ("u", "v1"), "z2": ("u", "v1")},
        rotations,
    )
    assert g.is_reduced() == (False, "closed-loop strand (some edge crossing unused by boundary strands)")


def test_self_crossing_not_reduced(schubert36):
    # a parallel copy of edge b, first in both its ends' rotations, turns
    # the strand from 1 back across edge p
    rotations = {v: list(r) for v, r in schubert36.rotations.items()}
    rotations["b"] = ["zz"] + rotations["b"]
    rotations["bb"] = ["zz"] + rotations["bb"]
    g = PlabicGraph(6, dict(schubert36.colors), {**schubert36.edges, "zz": ("b", "bb")}, rotations)
    assert g.is_reduced() == (False, "strand 1->6 self-crosses at edge 'p'")


def test_face_labels_square4(square4):
    src = square4.face_labels("source")
    assert src["f1"] == (2, 4)
    tgt = square4.face_labels("target")
    assert tgt["f1"] == (2, 4)


def test_face_labels_schubert36_match_figures(schubert36):
    src = schubert36.face_labels("source")
    tgt = schubert36.face_labels("target")
    assert sorted(src.values()) == sorted(
        [(1, 2, 6), (2, 3, 6), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6),
         (1, 3, 6), (3, 5, 6), (2, 3, 5)]
    )
    assert sorted(tgt.values()) == sorted(
        [(3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6), (1, 2, 4), (2, 3, 4),
         (3, 4, 6), (2, 4, 6), (2, 5, 6)]
    )


def test_face_labels_d4_match_figure(d4):
    src = d4.face_labels("source")
    internal = sorted(l for f, l in src.items() if f.startswith("f"))
    assert internal == [(1, 2, 4, 8), (2, 3, 4, 6), (2, 4, 6, 8), (2, 6, 7, 8), (4, 5, 6, 8)]


def test_boundary_labels_are_necklaces():
    for g in map(fixtures.load, sorted(fixtures.NAMES)):
        pi = g.trip_permutation()
        fwd = necklace_from_perm(pi, "forward")
        rev = necklace_from_perm(pi, "reverse")
        src = g.face_labels("source")
        tgt = g.face_labels("target")
        for i in g.boundary_vertices():
            face = g.boundary_face(i)
            assert tgt[face.id] == fwd.element(i + 1)
            assert src[face.id] == rev.element(i)


def test_labels_have_size_k(square4, schubert36, d4, tri6):
    for g in (square4, schubert36, d4, tri6):
        for mode in ("source", "target"):
            assert all(len(l) == g.k for l in g.face_labels(mode).values())


def test_adjacent_labels_differ_by_one_swap(schubert36, d4):
    for g in (schubert36, d4):
        labels = g.face_labels("source")
        faces = g.faces()
        for e in g.edges:
            touching = [f.id for f in faces if e in f.edges]
            if len(touching) == 2:
                a, b = (set(labels[t]) for t in touching)
                assert len(a - b) == 1 and len(b - a) == 1


def test_trip_permutation_matches_matching_necklace(square4, schubert36):
    from positroids.core import necklace_from_bases, perm_from_necklace
    from positroids.matchings import enumerate_matchings, matching_boundary

    for g in (square4, schubert36):
        boundaries = {matching_boundary(g, m) for m in enumerate_matchings(g)}
        neck = necklace_from_bases(boundaries, g.n, "forward")
        assert perm_from_necklace(neck).values == g.trip_permutation().values


def test_face_count_formula(square4, schubert36, d4, tri6, chamber_graph):
    from positroids.core import length

    for g in (square4, schubert36, d4, tri6, chamber_graph):
        pi = g.trip_permutation()
        assert len(g.faces()) == g.k * (g.n - g.k) - length(pi) + 1


def test_json_round_trip(schubert36):
    clone = PlabicGraph.from_json(schubert36.to_json())
    assert clone.trip_permutation().values == schubert36.trip_permutation().values
    assert clone.face_labels("source") == schubert36.face_labels("source")


def test_downstream_wedges_square4(square4):
    assert square4.downstream("s12") == ({"b3", "f1"}, {"v3", "v4"})
    assert square4.downstream("s23") == ({"b2"}, set())
    assert square4.directly_downstream("leg1") == "b1"


def test_wedge_boundary_edge_rule():
    # f downstream of a white pendant at a iff f left of strand a;
    # for a black pendant, iff f right of the strand
    for g in map(fixtures.load, sorted(fixtures.NAMES)):
        all_faces = {f.id for f in g.faces()}
        for i in g.boundary_vertices():
            pe = g.pendant_edge(i)
            neighbor = g.other_end(pe, i)
            left = oracle_left_faces(g, g.strand_from(i))
            want = left if g.colors[neighbor] == "white" else all_faces - left
            assert g.downstream(pe)[0] == want


# -- face labels against the seeded propagation they replaced --------------


def oracle_left_faces(g, strand):
    """Faces left of the strand: seed the faces at its corners and beside its
    end stubs, then spread each side across every edge it does not cross."""
    crossed = {e for e, _ in strand.path}
    side = {}
    for (e_in, v), (e_out, _) in zip(strand.path, strand.path[1:]):
        if g.colors[v] == "white":  # a white vertex sits right of the strand
            seed = (g.face_of_corner(v, e_in, e_out).id, "L")
        else:
            seed = (g.face_of_corner(v, e_out, e_in).id, "R")
        assert side.setdefault(*seed) == seed[1]
    a, t = strand.source, (strand.target - 1) % g.n + 1
    if a != t:
        for i, want in ((a, "L"), ((a - 2) % g.n + 1, "R"), ((t - 2) % g.n + 1, "L"), (t, "R")):
            assert side.setdefault(g.boundary_face(i).id, want) == want
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            fids = g.edge_faces(e)
            if e in crossed or len(fids) != 2:
                continue
            fa, fb = fids
            for x, y in ((fa, fb), (fb, fa)):
                if x in side and y not in side:
                    side[y] = side[x]
                    changed = True
    assert len(side) == len(g.faces())
    return {fid for fid, s in side.items() if s == "L"}


def oracle_labels(g, mode):
    labels = {f.id: [] for f in g.faces()}
    for s in g.strands():
        mark = s.source if mode == "source" else (s.target - 1) % g.n + 1
        for fid in oracle_left_faces(g, s):
            labels[fid].append(mark)
    return {fid: tuple(sorted(v)) for fid, v in labels.items()}


def oracle_graphs():
    yield from map(fixtures.load, sorted(fixtures.NAMES))
    for n in range(1, 6):
        yield from map(synthesize, all_bounded_affine(n))
    for k in range(3, 10):
        yield synthesize(BoundedAffinePermutation(tuple(range(k + 1, 3 * k + 1))))
    rng = random.Random(8)
    for _ in range(40):
        yield synthesize(random_bounded_affine(rng.randint(6, 12), rng))


def test_labels_match_propagation_oracle():
    count = 0
    for g in oracle_graphs():
        for mode in ("source", "target"):
            assert g.face_labels(mode) == oracle_labels(g, mode), g.trip_permutation().values
        count += 1
    assert count == 6 + 414 + 7 + 40


def test_both_label_modes_come_from_one_walk_without_the_atom_graph(monkeypatch):
    walks, spans = [], []
    walk, span = PlabicGraph._label_faces, PlabicGraph._span_atoms
    monkeypatch.setattr(PlabicGraph, "_label_faces", lambda self: walks.append(self) or walk(self))
    monkeypatch.setattr(PlabicGraph, "_span_atoms", lambda self: spans.append(self) or span(self))
    for g in plan_graphs():
        g.face_labels("source")
        g.face_labels("target")
        boundary_matrix(g, "min")
        boundary_matrix(g, "max")
        # one walk across the faces for both label modes
        assert walks == [g], g.trip_permutation().values
        walks.clear()
    # labels and the directly-downstream and -upstream faces build no atom graph
    assert spans == []


def with_suffix(monkeypatch, suffix):
    """Patch the spanning-tree plan so that piece p's suffix mask is suffix(graph, plan, p)."""
    span = PlabicGraph._span_atoms

    def patched(self):
        atoms = span(self)
        return atoms._replace(suffix=[suffix(self, atoms, p) for p in range(len(atoms.suffix))])

    monkeypatch.setattr(PlabicGraph, "_span_atoms", patched)


def test_faces_that_disagree_across_an_edge_are_an_internal_error(monkeypatch, capsys):
    # the dart along s12 toward one end names the face beside its other end,
    # so the walk crosses s12 back into the face it left
    trace = PlabicGraph._trace_faces

    def patched(self):
        index = trace(self)
        u, w = self.edges["s12"]
        index.by_dart["s12", u] = index.by_dart["s12", w]
        return index

    monkeypatch.setattr(PlabicGraph, "_trace_faces", patched)
    with pytest.raises(AssertionError, match="the labels beside edge 's12' differ"):
        fixtures.load("square4").face_labels("source")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["labels", "square4", "--mode", "target"])
    assert exit_info.value.code == 3
    assert capsys.readouterr().err.startswith("internal error: the labels beside edge 's12'")
    monkeypatch.undo()
    # a face that no dart leads to is never reached
    g = fixtures.load("square4")
    g.faces().append(Face("f9", (), (), ()))
    with pytest.raises(AssertionError, match="the walk across the faces misses face 'f9'"):
        g.face_labels("target")


def test_edge_with_ends_on_two_sides_is_an_internal_error(monkeypatch, capsys):
    # one piece past s12 toward v1 whose mask holds v1 alone puts s12's two
    # internal ends on opposite sides of both of its cuts
    def suffix(g, atoms, p):
        return 1 << atoms.vertex["v1"] if p == atoms.pieces[("s12", "v1")][1] else 0

    with_suffix(monkeypatch, suffix)
    with pytest.raises(AssertionError, match="edge 's12' has its internal ends on both sides of its cut"):
        fixtures.load("square4").downstream("s12")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "square4", "--trials", "1"])
    assert exit_info.value.code == 3
    assert capsys.readouterr().err.startswith("internal error: edge 's12' has its internal ends")


def test_disconnected_atom_graph_is_an_internal_error(monkeypatch, capsys):
    # every piece cutting a corner of the first face leaves the other faces unlinked
    monkeypatch.setattr(PlabicGraph, "_corner_atom", lambda self, v, e_in, e_out: 0)
    with pytest.raises(AssertionError, match="the atom graph is disconnected"):
        fixtures.load("square4").downstream("s12")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "square4", "--trials", "1"])
    assert exit_info.value.code == 3
    assert capsys.readouterr().err.startswith("internal error: the atom graph is disconnected")


# -- wedges and strand sides against the search they replaced ---------------


def oracle_cuts(g):
    """(downstream, upstream, left): every edge's two wedges as (faces,
    vertices) and every strand's left faces, each by its own search of the
    atom graph that stops at the blocked strand pieces."""
    links = []  # (vertex atom, face atom, the crossing whose piece cuts that corner)
    for s in g.strands():
        for (e, v), (e_out, _) in zip(s.path, s.path[1:]):
            corner = g.face_of_corner(v, e, e_out) if g.colors[v] == "white" else g.face_of_corner(v, e_out, e)
            links.append((("v", v), ("f", corner.id), (e, v)))

    def reached(blocked, seeds):
        adjacent = {}
        for x, y, crossing in links:
            if crossing not in blocked:
                adjacent.setdefault(x, []).append(y)
                adjacent.setdefault(y, []).append(x)
        seen, stack = set(seeds), list(seeds)
        while stack:
            for y in adjacent.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    paths = {c: s.path for s in g.strands() for c in s.path}
    downstream, upstream = {}, {}
    for e, ends in g.edges.items():
        for wedges, upward in ((downstream, False), (upstream, True)):
            blocked = set()
            for toward in ends:
                path = paths[(e, toward)]
                i = path.index((e, toward))
                blocked.update(path[:i] if upward else path[i:])
            seen = reached(blocked, [("v", x) for x in ends if not g.is_boundary(x)])
            wedges[e] = (
                {f.id for f in g.faces() if ("f", f.id) not in seen},
                {v for v in g.colors if ("v", v) not in seen},
            )
    left = {}
    for s in g.strands():
        v = s.path[0][1]
        seen = reached(set(s.path), [("v", v)])
        left[s.source] = {f.id for f in g.faces() if (("f", f.id) in seen) != (g.colors[v] == "white")}
    return downstream, upstream, left


def test_wedges_and_strand_sides_match_the_search_oracle():
    count = 0
    gr12_24 = synthesize(BoundedAffinePermutation(tuple(range(13, 37))))
    for g in (*oracle_graphs(), gr12_24):
        downstream, upstream, left = oracle_cuts(g)
        assert {e: g.downstream(e) for e in g.edges} == downstream, g.trip_permutation().values
        assert {e: g.upstream(e) for e in g.edges} == upstream, g.trip_permutation().values
        for mode in ("source", "target"):
            labels = {f.id: [] for f in g.faces()}
            for s in g.strands():
                for fid in left[s.source]:
                    labels[fid].append(s.source if mode == "source" else s.target)
            assert g.face_labels(mode) == {fid: tuple(sorted(v)) for fid, v in labels.items()}
        count += 1
    assert count == 6 + 414 + 7 + 40 + 1


def test_directly_beside_faces_match_the_wedge_oracle():
    # the face of the dart toward an edge's white (black) end is the one face
    # beside the edge inside its downstream (upstream) wedge
    count = 0
    for g in (*oracle_graphs(), synthesize(BoundedAffinePermutation(tuple(range(13, 37))))):
        for e in g.edges:
            assert g.directly_downstream(e) == scan_directly(g, e, g.downstream), (g.trip_permutation().values, e)
            assert g.directly_upstream(e) == scan_directly(g, e, g.upstream), (g.trip_permutation().values, e)
        count += 1
    assert count == 6 + 414 + 7 + 40 + 1


# -- the graph index against the linear scans it replaced ------------------


def scan_incident(g, v):
    return [e for e, (u, w) in g.edges.items() if u == v or w == v]


def scan_pendant_edge(g, i):
    return next(e for e, (u, w) in g.edges.items() if u == i or w == i)


def scan_face_by_id(g, fid):
    return next(f for f in g.faces() if f.id == fid)


def scan_boundary_face(g, i):
    return next(f for f in g.faces() if (i, i % g.n + 1) in f.arcs)


def scan_edge_faces(g, e):
    return [f.id for f in g.faces() if e in f.edges]


def scan_corners(g):
    """(v, e_in, e_out) -> the face whose walk turns from e_in to e_out at
    internal v, read off every face walk."""
    corners = {}
    for f in g.faces():
        for dart, nxt in zip(f.walk, f.walk[1:] + f.walk[:1]):
            e, _, v = dart
            if not g.is_boundary(v):
                corners[(v, e, nxt[0])] = f
    return corners


def scan_directly(g, e, wedge):
    faces, _ = wedge(e)
    hits = [fid for fid in set(scan_edge_faces(g, e)) if fid in faces]
    assert len(hits) == 1
    return hits[0]


def scan_k(g):
    white = sum(1 for c in g.colors.values() if c == "white")
    black = sum(1 for c in g.colors.values() if c == "black")
    ends = {g.other_end(scan_pendant_edge(g, i), i) for i in g.boundary_vertices()}
    return white - black + sum(1 for v in ends if g.colors[v] == "black")


def scan_face_walks(g):
    """Face walks from min(unused darts), successors by rotation.index."""

    def next_dart(dart):
        e, _, v = dart
        if g.is_boundary(v):
            j = (v - 2) % g.n + 1
            pe = scan_pendant_edge(g, j)
            return (pe, j, g.other_end(pe, j))
        rot = g.rotations[v]
        nxt = rot[(rot.index(e) + 1) % len(rot)]
        return (nxt, v, g.other_end(nxt, v))

    unused = {d for e, (u, w) in g.edges.items() for d in ((e, u, w), (e, w, u))}
    walks = []
    while unused:
        start = min(unused, key=lambda d: (str(d[0]), str(d[1])))
        walk, d = [], start
        while True:
            unused.discard(d)
            walk.append(d)
            d = next_dart(d)
            if d == start:
                break
        walks.append(tuple(walk))
    return walks


def assert_index_matches_scans(g):
    assert [f.walk for f in g.faces()] == scan_face_walks(g)
    assert g.k == scan_k(g)
    for v in list(g.colors) + list(g.boundary_vertices()):
        assert g.incident(v) == scan_incident(g, v)
    for i in g.boundary_vertices():
        assert g.pendant_edge(i) == scan_pendant_edge(g, i)
        assert g.boundary_face(i) == scan_boundary_face(g, i)
    for f in g.faces():
        assert g.face_by_id(f.id) == scan_face_by_id(g, f.id)
    for e in g.edges:
        assert list(g.edge_faces(e)) == scan_edge_faces(g, e)
        assert g.directly_downstream(e) == scan_directly(g, e, g.downstream)
        assert g.directly_upstream(e) == scan_directly(g, e, g.upstream)
    corners = scan_corners(g)
    assert len(corners) == sum(len(rot) for rot in g.rotations.values())
    for (v, e_in, e_out), face in corners.items():
        assert g.face_of_corner(v, e_in, e_out) == face
    # a turn the other way round an internal vertex, or at a boundary vertex, is no corner
    for v, rot in g.rotations.items():
        for e_in, e_out in zip(rot, rot[1:] + rot[:1]):
            if (v, e_out, e_in) not in corners:
                with pytest.raises(KeyError):
                    g.face_of_corner(v, e_out, e_in)
    for i in g.boundary_vertices():
        with pytest.raises(KeyError):
            g.face_of_corner(i, g.pendant_edge(i), g.pendant_edge(i))


@pytest.mark.parametrize("name", sorted(fixtures.NAMES))
def test_index_matches_scans_on_fixtures(name):
    assert_index_matches_scans(fixtures.load(name))


def test_index_matches_scans_on_synthesized_graphs():
    count = 0
    for n in range(1, 5):
        for pi in all_bounded_affine(n):
            assert_index_matches_scans(synthesize(pi))
            count += 1
    rng = random.Random(25)
    cells = [synthesize(random_bounded_affine(rng.randint(1, 10), rng)) for _ in range(60)]
    for g in (*cells, synthesize(BoundedAffinePermutation(tuple(range(9, 25))))):
        assert_index_matches_scans(g)
        count += 1
    assert count == 2 + 5 + 16 + 65 + 60 + 1


# -- validation against the degree counts and face trace it replaced -------


def oracle_validate(self):
    """Violations as counted by a second pass over the edges, with a catch-all
    around the face trace."""
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
    seen = set()
    stack = [self.other_end(self.pendant_edge(i), i) for i in self.boundary_vertices()]
    while stack:
        v = stack.pop()
        if v in seen or self.is_boundary(v):
            continue
        seen.add(v)
        for e in self.incident(v):
            stack.append(self.other_end(e, v))
    for v in sorted(set(self.colors) - seen):
        out.append(f"vertex {v!r} lies in a component with no boundary vertex")
    if out:
        return out
    try:
        faces = self.faces()
    except Exception as exc:
        return [f"rotation system does not close up: {exc}"]
    if len(faces) + len(self.colors) != len(self.edges) + 1:
        out.append(
            "rotation inconsistent with planarity: "
            f"|F|={len(faces)}, |V|={len(self.colors)}, |E|={len(self.edges)}"
        )
    return out


class Unvalidated(PlabicGraph):
    """A graph whose constructor builds the index and skips validation."""

    def _validate(self):
        return []


MUTATIONS = ("recolor", "swap", "drop", "duplicate", "end", "delete-edge", "move-edge")


def mutate(colors, edges, rotations, n, rng, kinds=MUTATIONS):
    """Apply one seeded edit in place; edits of a rotation pick a vertex with one."""
    kind = rng.choice(kinds)
    rot = rotations[rng.choice([v for v, r in sorted(rotations.items()) if r])]
    if kind == "recolor":
        v = rng.choice(sorted(colors))
        colors[v] = "white" if colors[v] == "black" else "black"
    elif kind == "swap":
        i, j = rng.randrange(len(rot)), rng.randrange(len(rot))
        rot[i], rot[j] = rot[j], rot[i]
    elif kind == "drop":
        del rot[rng.randrange(len(rot))]
    elif kind == "duplicate":
        rot.insert(rng.randrange(len(rot) + 1), rng.choice(rot))
    elif kind == "end":
        e = rng.choice(sorted(edges))
        ends = list(edges[e])
        ends[rng.randrange(2)] = rng.choice([*sorted(colors), *range(n + 2)])
        edges[e] = tuple(ends)
    elif kind == "delete-edge":  # from the edges and from every rotation
        e = rng.choice(sorted(edges))
        del edges[e]
        for r in rotations.values():
            r[:] = [x for x in r if x != e]
    else:
        e = rot.pop(rng.randrange(len(rot)))
        other = rotations[rng.choice(sorted(rotations))]
        other.insert(rng.randrange(len(other) + 1), e)


# one phrase of each violation that a mutation can cause, and of a valid graph
VIOLATION_KINDS = (
    "unknown boundary vertex", "non-bipartite", "has degree", "joins two boundary",
    "not a cyclic order", "interior leaf", "no boundary vertex", "planarity", "valid",
)


def test_validation_matches_the_oracle_on_mutated_fixtures():
    rng = random.Random(6000)
    kinds = dict.fromkeys(VIOLATION_KINDS, 0)
    for trial in range(6000):
        g = fixtures.load(sorted(fixtures.NAMES)[trial % len(fixtures.NAMES)])
        colors, edges = dict(g.colors), dict(g.edges)
        rotations = {v: list(r) for v, r in g.rotations.items()}
        # one trial in three only deletes edges, two or more of which can
        # strand a leaf or a component
        deleting = trial % 3 == 0
        for _ in range(rng.randint(2, 4) if deleting else rng.randint(1, 3)):
            mutate(colors, edges, rotations, g.n, rng, ("delete-edge",) if deleting else MUTATIONS)
        try:
            PlabicGraph(g.n, colors, edges, rotations)
            got = []
        except GraphError as exc:
            got = exc.violations
        want = oracle_validate(Unvalidated(g.n, colors, edges, rotations))
        assert sorted(got) == sorted(want), (trial, colors, edges, rotations)
        for v in want or ["valid"]:
            kind = next((kind for kind in VIOLATION_KINDS if kind in v), v)
            kinds[kind] = kinds.get(kind, 0) + 1
    # every stage of validation is reached, and the oracle's catch-all never is
    assert list(kinds) == list(VIOLATION_KINDS) and all(kinds.values()), kinds


def test_a_revisited_dart_is_an_internal_error(monkeypatch, capsys):
    # a face walk that runs into one of its own darts, not back to its start
    monkeypatch.setattr(PlabicGraph, "_next_dart", lambda self, dart: ("leg1", "v1", 1))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["inspect", "square4"])
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: dart ('leg1', 'v1', 1) revisited")
    assert len(err.splitlines()) == 1
