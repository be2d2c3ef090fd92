"""Cross-checks over every synthesized graph with at most five boundary
vertices: strand labels against necklaces, the incidence identity, extremal
boundaries, and the diagram itself on a sample.  These sweep lollipops,
buffer vertices and stacked bridges through all the derived machinery.
"""
from conftest import all_bounded_affine
from positroids.core import BoundedAffinePermutation, necklace_from_perm
from positroids.matchings import (
    extremal_matching,
    incidence_data,
    matching_boundary,
)
from positroids.measurement import verify_diagram
from positroids.moves import synthesize


def test_labels_and_wedges_on_all_small_graphs():
    for n in range(1, 6):
        for pi in all_bounded_affine(n):
            g = synthesize(pi)
            fwd = necklace_from_perm(pi, "forward")
            rev = necklace_from_perm(pi, "reverse")
            src = g.face_labels("source")
            tgt = g.face_labels("target")
            for i in g.boundary_vertices():
                face = g.boundary_face(i)
                assert tgt[face.id] == fwd.element(i + 1), pi.values
                assert src[face.id] == rev.element(i), pi.values
            data = incidence_data(g)
            assert sum(data.b.values()) == len(g.edges)
            assert data.block_products_are_identity(), pi.values
            for f in g.faces():
                low = extremal_matching(g, f.id, "min")
                high = extremal_matching(g, f.id, "max")
                assert matching_boundary(g, low) == src[f.id]
                assert matching_boundary(g, high) == tgt[f.id]


def test_diagram_on_synthesized_sample():
    sample = [(3, 4, 5, 6), (2, 4, 5, 7), (4, 3, 5, 6), (2, 4, 6, 8, 10)]
    for values in sample:
        pi = BoundedAffinePermutation(tuple(values))
        g = synthesize(pi)
        report = verify_diagram(g, seed=13, trials=2)
        assert all(r["status"] == "pass" for r in report), values
