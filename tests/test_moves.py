import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_bounded_affine, random_bounded_affine
from positroids import fixtures
from positroids.core import BoundedAffinePermutation, length
from positroids.linalg import minor
from positroids.matchings import graph_positroid
from positroids.measurement import boundary_measurement_matrix, measure, random_weighting, verify_diagram
from positroids.moves import (
    Move,
    add_boundary_vertex,
    add_bridge,
    add_lollipop,
    apply_move,
    contract,
    expand,
    remove_boundary_vertex,
    run_script,
    synthesis_steps,
    synthesize,
    urban_renewal,
)
from positroids.moves import _Draft
from positroids.plabic import PlabicGraph


def test_contract_expand_inverse(schubert36):
    rng = random.Random(31)
    z = random_weighting(schubert36, rng)
    p = measure(schubert36, z)
    grown = expand(schubert36, "b", "d", 2, z)
    assert measure(grown.graph, grown.weights) == p
    mid = next(v for v in grown.graph.colors if v.startswith("md"))
    back = contract(grown.graph, mid, grown.weights)
    assert measure(back.graph, back.weights) == p
    assert graph_positroid(back.graph).bases == graph_positroid(schubert36).bases


def test_contract_figure_weights(schubert36):
    # contracting a degree-2 white vertex multiplies across weights b and c
    rng = random.Random(32)
    z = random_weighting(schubert36, rng)
    grown = expand(schubert36, "g", "f", 1, z)
    mid = next(v for v in grown.graph.colors if v.startswith("md"))
    e1, e2 = sorted(grown.graph.incident(mid))
    zz = dict(grown.weights)
    zz[e1], zz[e2] = Q(3, 7), Q(5, 2)
    back = contract(grown.graph, mid, zz)
    assert measure(back.graph, back.weights) == measure(grown.graph, zz)


def test_boundary_moves_inverse(square4):
    rng = random.Random(33)
    z = random_weighting(square4, rng)
    p = measure(square4, z)
    grown = add_boundary_vertex(square4, 1, z)
    assert measure(grown.graph, grown.weights) == p
    new_vertex = next(v for v in grown.graph.colors if v.startswith("bd"))
    back = remove_boundary_vertex(grown.graph, new_vertex, grown.weights)
    assert measure(back.graph, back.weights) == p
    assert back.graph.trip_permutation().values == square4.trip_permutation().values


def test_urban_renewal_square4(square4):
    z = {e: Q(1) for e in square4.edges}
    res = urban_renewal(square4, "f1", z)
    assert res.note["factor"] == 2
    # pre-gauge, the four new square edges all carry weight 1/2
    raw = dict(res.weights)
    for e in res.graph.incident(res.note["gauge_vertex"]):
        raw[e] = raw[e] / res.note["factor"]
    assert sorted(raw[e] for e in raw if e.startswith("usq")) == [Q(1, 2)] * 4
    assert measure(res.graph, res.weights) == measure(square4, z)
    assert res.graph.is_reduced()[0]


def test_urban_renewal_rejects_non_square(schubert36):
    hexagon = next(
        f.id
        for f in schubert36.faces()
        if f.kind == "internal" and len(f.edges) == 6
    )
    with pytest.raises(ValueError):
        urban_renewal(schubert36, hexagon, {e: 1 for e in schubert36.edges})


def test_urban_renewal_preserves_measure(schubert36, d4):
    rng = random.Random(34)
    for g in (schubert36, d4):
        z = random_weighting(g, rng)
        p = measure(g, z)
        squares = [
            f.id for f in g.faces() if f.kind == "internal" and len(f.edges) == 4
        ]
        for fid in squares:
            res = urban_renewal(g, fid, z)
            assert measure(res.graph, res.weights) == p
            assert graph_positroid(res.graph).bases == graph_positroid(g).bases


def exchange_graphs():
    """The fixtures and the top cells Gr(3,6), Gr(4,8), Gr(4,9) and Gr(5,10)."""
    yield from map(fixtures.load, sorted(fixtures.NAMES))
    for k, n in ((3, 6), (4, 8), (4, 9), (5, 10)):
        yield synthesize(BoundedAffinePermutation(tuple(range(k + 1, k + n + 1))))


def test_urban_renewal_is_the_exchange_relation():
    # renewing square f trades its label I for I'; with a, b, c, d the labels
    # across its edges in walk order, p[I] p[I'] = p[a] p[c] + p[b] p[d]
    rng = random.Random(36)
    squares = 0
    for g in exchange_graphs():
        A = boundary_measurement_matrix(g, random_weighting(g, rng))
        labels = g.face_labels("source")
        for f in g.faces():
            if f.kind != "internal" or len(f.edges) != 4 or len(set(f.edges)) != 4:
                continue
            renewed = urban_renewal(g, f.id, {e: 1 for e in g.edges}).graph
            gone = set(labels.values()) - set(renewed.face_labels("source").values())
            new = set(renewed.face_labels("source").values()) - set(labels.values())
            assert gone == {labels[f.id]} and len(new) == 1, f.id
            a, b, c, d = (labels[next(x for x in g.edge_faces(e) if x != f.id)] for e in f.edges)
            (I,), (J,) = gone, new
            assert minor(A, I) * minor(A, J) == minor(A, a) * minor(A, c) + minor(A, b) * minor(A, d)
            squares += 1
    assert squares == 10


def legal_moves(graph):
    """Every contract, expand (each first edge and count), boundary-add,
    boundary-remove and urban-renewal move that applies to the graph; a
    lollipop takes no boundary-add, which would leave it an interior leaf,
    and the move refuses it by naming the site."""
    out = [
        Move("urban-renewal", f.id)
        for f in graph.faces()
        if f.kind == "internal" and len(f.edges) == 4 and len({d[2] for d in f.walk}) == 4
    ]
    for v in sorted(graph.colors):
        rot = graph.rotations[v]
        ends = [graph.other_end(e, v) for e in rot]
        at_boundary = sum(map(graph.is_boundary, ends))
        if len(rot) == 2 and at_boundary == 1:
            out.append(Move("boundary-remove", v))
        elif len(rot) == 2 and at_boundary == 0 and ends[0] != ends[1]:
            out.append(Move("contract", v))
        out += [Move("expand", v, {"first_edge": e, "count": c}) for e in rot for c in range(1, len(rot))]
    for i in graph.boundary_vertices():
        u = graph.other_end(graph.pendant_edge(i), i)
        if len(graph.rotations[u]) > 1:
            out.append(Move("boundary-add", i))
            continue
        with pytest.raises(ValueError, match=f"^boundary vertex {i} ends at lollipop {u!r}$"):
            apply_move(graph, None, Move("boundary-add", i))
    return out


# tri6's measurement has binom(18, 6) coordinates; its move scripts are a CI guard
SCRIPT_FIXTURES = sorted(set(fixtures.NAMES) - {"tri6"})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_move_scripts_preserve_measure(data):
    # scripts of one to six steps on a fixture or a random cell with n <= 6,
    # each step a legal move of a kind drawn first, so that the many expand
    # moves do not crowd out the rare squares: the measurement never changes
    name = data.draw(st.sampled_from([*SCRIPT_FIXTURES, "random cell"]))
    if name == "random cell":
        rng = data.draw(st.randoms(use_true_random=False))
        graph = synthesize(random_bounded_affine(rng.randint(1, 6), rng))
    else:
        graph = fixtures.load(name)
    assume(legal_moves(graph))  # not a row of lollipops
    z = random_weighting(graph, data.draw(st.randoms(use_true_random=False)))
    p = measure(graph, z)
    for _ in range(data.draw(st.integers(1, 6))):
        moves = legal_moves(graph)
        kind = data.draw(st.sampled_from(sorted({m.kind for m in moves})))
        move = data.draw(st.sampled_from([m for m in moves if m.kind == kind]))
        res = apply_move(graph, z, move)
        graph, z = res.graph, res.weights
        assert measure(graph, z) == p, move


def step_by_step(graph, weights, moves):
    """The oracle for ``run_script``: one ``apply_move`` per step, each on a
    fresh draft of a validated graph, its weighting checked again."""
    notes = []
    for move in moves:
        res = apply_move(graph, weights, move)
        graph, weights = res.graph, res.weights
        notes.append(res.note)
    return graph, weights, notes


MOVE_KINDS = (
    "contract", "expand", "boundary-remove", "urban-renewal", "boundary-add",
    "black-lollipop", "white-lollipop", "left-bridge", "right-bridge",
)


def any_move(data, graph):
    """A move of any kind at a site of the graph, or just outside it, that
    may or may not apply."""
    kind = data.draw(st.sampled_from(MOVE_KINDS))
    params = None
    if kind == "urban-renewal":
        site = data.draw(st.sampled_from([f.id for f in graph.faces()] + ["f99"]))
    elif kind in MOVE_KINDS[:3]:
        site = data.draw(st.sampled_from(sorted(graph.colors) + ["nope"]))
    else:
        site = data.draw(st.integers(0, graph.n + 2))
    if kind == "expand":
        params = {"first_edge": data.draw(st.sampled_from(sorted(graph.edges))), "count": data.draw(st.integers(0, 4))}
    elif kind.endswith("bridge"):
        params = {"t": data.draw(st.sampled_from([1, 3, "2/5", 0]))}
    return Move(kind, site, params)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_script_runner_matches_step_by_step(data):
    # scripts of legal moves and of moves at any site, on a fixture or a
    # random cell with n <= 6: one draft gives the graph, ids included, the
    # weights and the notes of one validated graph per step, or the same error
    name = data.draw(st.sampled_from([*SCRIPT_FIXTURES, "random cell"]))
    if name == "random cell":
        rng = data.draw(st.randoms(use_true_random=False))
        graph = synthesize(random_bounded_affine(rng.randint(1, 6), rng))
    else:
        graph = fixtures.load(name)
    z = random_weighting(graph, data.draw(st.randoms(use_true_random=False)))
    script, want, error = [], (graph, z, []), None
    for _ in range(data.draw(st.integers(1, 6))):
        moves = legal_moves(want[0])
        if moves and data.draw(st.integers(0, 3)):
            script.append(data.draw(st.sampled_from(moves)))
        else:
            script.append(any_move(data, want[0]))
        try:
            g, w, notes = step_by_step(*want[:2], script[-1:])
        except Exception as exc:
            error = exc
            break
        want = (g, w, want[2] + notes)
    if error is not None:
        with pytest.raises(Exception) as got:
            run_script(graph, z, script)
        assert (type(got.value), str(got.value)) == (type(error), str(error)), script
        return
    g, w, notes = run_script(graph, z, script)
    assert g.to_json() == want[0].to_json(), script
    assert (w, notes) == want[1:], script


def test_script_builds_one_graph(monkeypatch, schubert36):
    # after loading, a script that reads no graph on the way builds one graph
    z = random_weighting(schubert36, random.Random(18))
    script = [
        Move("expand", "b", {"first_edge": "d", "count": 2}),
        Move("contract", "md0"),
        Move("boundary-add", 2),
        Move("boundary-remove", "bd0"),
    ]
    want = step_by_step(schubert36, z, script)
    built, init = [], PlabicGraph.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(PlabicGraph, "__init__", counting_init)
    g, w, notes = run_script(schubert36, z, script)
    assert built == [6]
    assert (g.to_json(), w, notes) == (want[0].to_json(), *want[1:])


def test_illegal_moves_build_no_graph(monkeypatch, square4):
    # legality is checked on the draft's dicts: an illegal move raises before
    # any graph is built from them
    lollipop = add_lollipop(square4, 1, "white").graph
    built, init = [], PlabicGraph.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(PlabicGraph, "__init__", counting_init)
    with pytest.raises(ValueError, match="^no internal vertex 'nope'$"):
        apply_move(square4, None, Move("contract", "nope"))
    with pytest.raises(ValueError, match="^boundary vertex 1 ends at lollipop 'lp0'$"):
        apply_move(lollipop, None, Move("boundary-add", 1))
    assert built == []


def test_an_invalid_move_result_is_an_internal_error(monkeypatch, square4):
    # a legal move whose result fails validation is a bug in the move, not a
    # failed precondition: AssertionError, not GraphError
    step = _Draft.boundary_vertex

    def dropping_step(self, i):
        step(self, i)
        self.rotations["bd0"].pop()

    monkeypatch.setattr(_Draft, "boundary_vertex", dropping_step)
    with pytest.raises(AssertionError, match="^move script built an invalid graph: .*'bd0'"):
        apply_move(square4, None, Move("boundary-add", 2))


def test_moves_keep_diagram_valid(square4, schubert36):
    # the main-theorem checks survive each kind of move
    rng = random.Random(35)
    z = random_weighting(square4, rng)
    res = urban_renewal(square4, "f1", z)
    assert all(r["status"] == "pass" for r in verify_diagram(res.graph, seed=5, trials=1))
    zs = random_weighting(schubert36, rng)
    for res in (
        add_boundary_vertex(schubert36, 2, zs),
        remove_boundary_vertex(schubert36, "bb", zs),
        expand(schubert36, "b", "d", 2, zs),
    ):
        assert all(
            r["status"] == "pass" for r in verify_diagram(res.graph, seed=5, trials=1)
        )


def test_apply_move_dispatch(square4):
    z = {e: Q(1) for e in square4.edges}
    res = apply_move(square4, z, Move("urban-renewal", "f1"))
    assert res.note["factor"] == 2
    with pytest.raises(ValueError):
        apply_move(square4, z, Move("mystery", "f1"))
    # a site that is not there is named, not a bare KeyError
    with pytest.raises(ValueError, match="^no face 'f9'$"):
        apply_move(square4, z, Move("urban-renewal", "f9"))
    with pytest.raises(ValueError, match="^no internal vertex 'x'$"):
        apply_move(square4, z, Move("expand", "x", {"first_edge": "leg1", "count": 1}))


@pytest.mark.parametrize("leg1", [None, Q(0)], ids=["missing", "zero"])
def test_moves_check_the_weighting(square4, leg1):
    # boundary-add and expand read no weight, yet both refuse a bad one, by
    # name, before editing the graph
    z = {e: Q(2) for e in square4.edges}
    if leg1 is None:
        del z["leg1"]
    else:
        z["leg1"] = leg1
    for move in (Move("boundary-add", 2), Move("expand", "v1", {"first_edge": "leg1", "count": 1})):
        with pytest.raises(ValueError, match="weight .*'leg1'"):
            apply_move(square4, z, move)
    with pytest.raises(ValueError, match="'leg1'"):
        add_boundary_vertex(square4, 1, {})


def test_black_lollipop_pluecker(square4):
    rng = random.Random(36)
    z = random_weighting(square4, rng)
    p = measure(square4, z)
    res = add_lollipop(square4, 2, "black", z)
    p2 = measure(res.graph, res.weights)
    for J in combinations(range(1, 6), 2):
        if 2 in J:
            assert p2[J] == 0
        else:
            back = tuple(sorted(x if x < 2 else x - 1 for x in J))
            assert p2[J] == p[back]
    assert res.graph.trip_permutation()(2) == 2


def test_white_lollipop_pluecker(square4):
    rng = random.Random(37)
    z = random_weighting(square4, rng)
    p = measure(square4, z)
    res = add_lollipop(square4, 5, "white", z)
    p2 = measure(res.graph, res.weights)
    for J in combinations(range(1, 6), 3):
        if 5 not in J:
            assert p2[J] == 0
        else:
            assert p2[J] == p[tuple(x for x in J if x != 5)]
    assert res.graph.trip_permutation()(5) == 10


def test_bridge_pluecker_formulas(schubert36):
    rng = random.Random(38)
    z = random_weighting(schubert36, rng)
    p = measure(schubert36, z)
    t = Q(7, 4)

    res = add_bridge(schubert36, 6, "right", t, z)
    p2 = measure(res.graph, res.weights)
    for J in combinations(range(1, 7), 3):
        if 1 in J and 6 not in J:  # i+1 reduces to 1 for the bridge at (6, 7)
            want = p[J] + t * p[tuple(sorted(set(J) - {1} | {6}))]
        else:
            want = p[J]
        assert p2[J] == want

    res = add_bridge(schubert36, 3, "left", t, z)
    p3 = measure(res.graph, res.weights)
    for J in combinations(range(1, 7), 3):
        if 3 in J and 4 not in J:
            want = p[J] + t * p[tuple(sorted(set(J) - {3} | {4}))]
        else:
            want = p[J]
        assert p3[J] == want


def test_bridge_column_formula(schubert36):
    from positroids.linalg import RationalMatrix, pluecker
    from positroids.measurement import matrix_from_pluecker

    rng = random.Random(39)
    z = random_weighting(schubert36, rng)
    p = measure(schubert36, z)
    t = Q(2, 9)
    res = add_bridge(schubert36, 3, "left", t, z)
    a = matrix_from_pluecker(p)
    rows = [list(r) for r in a.rows]
    for r in range(3):
        rows[r][2] += t * rows[r][3]
    assert pluecker(RationalMatrix.build(rows)) == measure(res.graph, res.weights)


def test_bridge_changes_permutation_and_length(schubert36):
    pi = schubert36.trip_permutation()
    res = add_bridge(schubert36, 6, "right")
    pi2 = res.graph.trip_permutation()
    assert pi2.values == (4, 5, 6, 7, 8, 9)
    assert length(pi2) == length(pi) - 1
    assert len(res.graph.faces()) == len(schubert36.faces()) + 1


def test_bridge_illegal_raises(square4):
    with pytest.raises(ValueError):
        add_bridge(square4, 1, "right")


def test_bridge_on_two_lollipops():
    # the smallest synthesis step: bridging two lollipops gives uniform Gr(1,2)
    pi = BoundedAffinePermutation((2, 3))
    g = synthesize(pi)
    assert g.trip_permutation().values == (2, 3)
    assert g.is_reduced()[0]
    assert len(g.colors) == 2 and len(g.edges) == 3
    assert graph_positroid(g).bases == tuple(sorted(frozenset({(1,), (2,)})))


def test_lollipop_keeps_faces(square4):
    # face count is untouched, so the length absorbs the growth of k(n-k):
    # +k for a black lollipop, +(n-k) for a white one
    pi = square4.trip_permutation()
    k, n = pi.k, pi.n
    res = add_lollipop(square4, 3, "black")
    black, white = res.graph, add_lollipop(square4, 3, "white").graph
    # with no weights given, every edge of the result has weight 1
    assert res.weights == dict.fromkeys(black.edges, 1)
    assert len(black.faces()) == len(square4.faces())
    assert len(white.faces()) == len(square4.faces())
    assert length(black.trip_permutation()) == length(pi) + k
    assert length(white.trip_permutation()) == length(pi) + (n - k)


@pytest.mark.parametrize("n", range(1, 5))
def test_synthesize_exhaustive_small(n):
    for pi in all_bounded_affine(n):
        g = synthesize(pi)
        ok, witness = g.is_reduced()
        assert ok, witness
        assert g.trip_permutation().values == pi.values
        assert len(g.faces()) == pi.k * (n - pi.k) - length(pi) + 1


def test_synthesize_lollipop_rows():
    g = synthesize(BoundedAffinePermutation((1, 2, 3)))
    assert len(g.edges) == 3
    assert all(c == "black" for c in g.colors.values())


def test_synthesize_schubert_permutation():
    pi = BoundedAffinePermutation((3, 5, 6, 7, 8, 10))
    g = synthesize(pi)
    assert g.is_reduced()[0]
    assert g.trip_permutation().values == pi.values
    assert len(g.faces()) == 9
    assert graph_positroid(g).bases == tuple(
        sorted(frozenset(b for b in combinations(range(1, 7), 3) if b != (1, 2, 3)))
    )


def replay(pi):
    """The oracle for ``synthesize``: the first lollipop, then ``apply_move``
    over the rest of ``synthesis_steps(pi)``, one validated graph per step,
    with every bridge's legality checked by tracing the strands."""
    steps = synthesis_steps(pi)
    color = steps[0].kind.split("-")[0]
    graph = PlabicGraph(1, {"lp0": color}, {"lpe0": (1, "lp0")}, {"lp0": ["lpe0"]})
    weights = {"lpe0": Q(1)}
    for move in steps[1:]:
        res = apply_move(graph, weights, move)
        graph, weights = res.graph, res.weights
    return graph


def top_cell(k, n):
    return BoundedAffinePermutation(tuple(a + k for a in range(1, n + 1)))


def bap_synthesis_steps(pi):
    """The oracle for ``synthesis_steps``: the same peeling rule, with each
    step composing maps and validating a new ``BoundedAffinePermutation``."""
    steps = []
    while pi.n > 1:
        n = pi.n
        fixed = next((i for i, v in enumerate(pi.values, 1) if v in (i, i + n)), None)
        if fixed is not None:
            steps.append(Move(f"{'black' if pi(fixed) == fixed else 'white'}-lollipop", fixed))

            def down(y):  # drop residue `fixed`; the others keep their order
                s, r = divmod(y - 1, n)
                return (r + 1 if r + 1 < fixed else r) + s * (n - 1)

            pi = BoundedAffinePermutation(tuple(down(pi(t if t < fixed else t + 1)) for t in range(1, n)))
            continue
        inv = pi.inverse_window() + (pi.inverse_window()[0] + n,)
        i = next(i for i in range(1, n + 1) if inv[i - 1] < inv[i])
        steps.append(Move("left-bridge", i))

        def s_i(x):
            return x + 1 if (x - i) % n == 0 else x - 1 if (x - i) % n == 1 else x

        pi = BoundedAffinePermutation(tuple(s_i(pi(a)) for a in range(1, n + 1)))
    steps.append(Move(f"{'black' if pi.values[0] == 1 else 'white'}-lollipop", 1))
    return steps[::-1]


def test_synthesis_steps_match_the_permutation_oracle():
    # the window-list script against composed bounded affine permutations
    rng = random.Random(41)
    pis = [pi for n in range(1, 7) for pi in all_bounded_affine(n)]
    pis += [random_bounded_affine(rng.randint(7, 12), rng) for _ in range(200)]
    pis += [top_cell(k, n) for k, n in ((3, 7), (4, 9), (5, 11), (6, 12), (7, 14))]
    for pi in pis:
        assert synthesis_steps(pi) == bap_synthesis_steps(pi), pi.values


def test_synthesis_trace_replays():
    pi = BoundedAffinePermutation((3, 5, 6, 7, 8, 10))
    assert synthesis_steps(pi)[0].kind.endswith("lollipop")
    assert synthesize(pi).to_json() == replay(pi).to_json()


@pytest.mark.parametrize("n", range(1, 6))
def test_synthesize_matches_replay_exhaustive(n):
    for pi in all_bounded_affine(n):
        assert synthesize(pi).to_json() == replay(pi).to_json(), pi.values


@pytest.mark.parametrize("k, n", [(3, 7), (4, 9), (5, 11), (6, 12), (7, 14), (8, 16), (9, 18)])
def test_synthesize_matches_replay_top_cells(k, n):
    pi = top_cell(k, n)
    assert synthesize(pi).to_json() == replay(pi).to_json()


def test_synthesize_matches_replay_random():
    rng = random.Random(40)
    for _ in range(40):
        pi = random_bounded_affine(rng.randint(6, 12), rng)
        assert synthesize(pi).to_json() == replay(pi).to_json(), pi.values


def test_synthesize_builds_one_graph(monkeypatch):
    built, traced = [], []
    init, trip = PlabicGraph.__init__, PlabicGraph.trip_permutation

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    def counting_trip(self):
        traced.append(self.n)
        return trip(self)

    monkeypatch.setattr(PlabicGraph, "__init__", counting_init)
    monkeypatch.setattr(PlabicGraph, "trip_permutation", counting_trip)
    synthesize(top_cell(4, 9))
    assert built == [9]
    assert traced == [9]


def test_synthesize_rejects_a_wrong_result(monkeypatch):
    # the one strand trace at the end is the check: a wrong graph is a bug (exit 3)
    monkeypatch.setattr(PlabicGraph, "trip_permutation", lambda self: BoundedAffinePermutation((2, 3)))
    with pytest.raises(AssertionError, match="trip permutation"):
        synthesize(BoundedAffinePermutation((3, 4)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_synthesize_round_trip_property(n, rng):
    pi = random_bounded_affine(n, rng)
    g = synthesize(pi)
    assert g.trip_permutation() == pi
    assert len(g.faces()) == pi.k * (pi.n - pi.k) - length(pi) + 1


def test_apply_move_bridge_kinds(square4):
    rng = random.Random(77)
    z = random_weighting(square4, rng)
    res = apply_move(square4, z, Move("black-lollipop", 2))
    assert res.graph.n == 5
    assert res.graph.trip_permutation()(2) == 2


def test_synthesize_uniform24_matches_square4(square4):
    g = synthesize(BoundedAffinePermutation((3, 4, 5, 6)))
    assert graph_positroid(g).bases == graph_positroid(square4).bases
    assert len(g.faces()) == 5
