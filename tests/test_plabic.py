from itertools import permutations, product

import pytest

from positroids import fixtures
from positroids.core import BoundedAffinePermutation, necklace_from_perm
from positroids.moves import synthesize
from positroids.plabic import GraphError, PlabicGraph


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
    assert witness


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


def test_boundary_labels_are_necklaces(square4, schubert36, d4, chamber_graph):
    for g in (square4, schubert36, d4, chamber_graph):
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


def test_wedge_boundary_edge_rule(square4, schubert36):
    # f downstream of a white pendant at a iff f left of strand a;
    # for a black pendant, iff f right of the strand
    for g in (square4, schubert36):
        all_faces = {f.id for f in g.faces()}
        for i in g.boundary_vertices():
            pe = g.pendant_edge(i)
            neighbor = g.other_end(pe, i)
            left = g._left_faces(g.strand_from(i))
            want = left if g.colors[neighbor] == "white" else all_faces - left
            assert g.downstream(pe)[0] == want


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


def bounded_affine_permutations(n):
    for perm in permutations(range(1, n + 1)):
        lifts = [(a, a + n) if r == a else (r if r > a else r + n,) for a, r in enumerate(perm, 1)]
        for values in product(*lifts):
            yield BoundedAffinePermutation(values)


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


@pytest.mark.parametrize("name", sorted(fixtures.BUILDERS))
def test_index_matches_scans_on_fixtures(name):
    assert_index_matches_scans(fixtures.load(name))


def test_index_matches_scans_on_synthesized_graphs():
    count = 0
    for n in range(1, 5):
        for pi in bounded_affine_permutations(n):
            assert_index_matches_scans(synthesize(pi))
            count += 1
    assert count == 2 + 5 + 16 + 65
