"""Seeded input generation for the benchmark workloads.

Every input family is a fixed pool of entries.  Entry ``i`` of a family is
derived only from ``i`` (its own ``random.Random`` stream), so the reference
digests in ``reference.json`` can cover the whole pool.  The run seed picks
which entries and which argv variants make up one cycle of ops, stratified
so that every seed gets the same mix of sizes, and fixes the op order.

The program sees only the files written here (graphs, weightings, move
scripts and matrices) plus plain argv values (permutations, seeds, modes).
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

FIXTURES = ("square4", "schubert36", "d4", "hex36", "chamber_s2s1s2")


class Op(NamedTuple):
    family: str
    argv: tuple


@dataclass(frozen=True)
class Family:
    name: str
    why: str
    size: Callable  # (gen) -> number of pool entries
    make: Callable  # (gen, index) -> list of ops, one per argv variant
    pick: Callable  # (gen, rng) -> list of (index, variant) for one cycle


@dataclass(frozen=True)
class Plan:
    cycle: tuple  # ops of one cycle, in run order
    digests: dict  # input file path -> sha256 of its bytes
    input_digest: str

    def key(self, op: Op) -> str:
        return op_key(op, self.digests)


class Gen:
    """Writes input files into one directory and remembers their digests."""

    def __init__(self, mods, workdir: Path):
        self.mods = mods
        self.workdir = workdir
        self.digests: dict = {}
        self._memo: dict = {}

    def write(self, name: str, payload) -> str:
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        path = self.workdir / name
        path.write_text(text)
        self.digests[str(path)] = hashlib.sha256(text.encode()).hexdigest()
        return str(path)

    def memo(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def op_key(op: Op, digests: dict) -> str:
    """Digest of an op's argv with every input file replaced by its content digest."""
    parts = ["@" + digests[a] if a in digests else a for a in op.argv]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _perm_text(values) -> str:
    return ",".join(str(v) for v in values)


def _top_cell(k: int, n: int) -> tuple:
    return tuple(a + k for a in range(1, n + 1))


def _graph_file(gen: Gen, name: str, values) -> str:
    """A synthesized graph for the bounded affine permutation ``values``."""

    def build():
        core, moves = gen.mods.core, gen.mods.moves
        graph = moves.synthesize(core.BoundedAffinePermutation(tuple(values)))
        return gen.write(f"{name}.json", graph.to_json())

    return gen.memo(("graph", name), build)


def _fixture_file(gen: Gen, name: str) -> str:
    return gen.memo(
        ("fixture", name),
        lambda: gen.write(f"{name}.json", gen.mods.fixtures.load(name).to_json()),
    )


def _rational(rng: random.Random, low: int, high: int, den: int) -> Fraction:
    return Fraction(rng.randint(low, high), rng.randint(1, den))


# -- diagram ---------------------------------------------------------------

VERIFY_SEEDS = 32
DIAGRAM_TOP_CELLS = ((3, 6), (4, 8), (4, 9), (5, 10))
# copies per cycle of 40 ops, chosen so that each reported percentile sits in
# the middle of a block of like ops: Gr(3,6) fills ranks 11-30 around p50 and
# Gr(4,8) ranks 35-38 around p90, under Gr(4,9) and Gr(5,10)
FIXTURE_COPIES = (2, 3, 4, 3, 2)  # in FIXTURES order
TOP_CELL_COPIES = (20, 4, 1, 1)
# Gr(4,9) and Gr(5,10) run once per cycle and take 80% of it; their cost moves
# by +-5% with the weighting, so they keep one verify seed whatever the run seed
FIXED_VERIFY_SEED = 0


def _verify_ops(family: str, path: str) -> list:
    return [
        Op(family, ("verify", path, "--trials", "1", "--seed", str(s)))
        for s in range(VERIFY_SEEDS)
    ]


def _diagram_families() -> list:
    def make_fixture(gen, i):
        return _verify_ops("verify-fixture", _fixture_file(gen, FIXTURES[i]))

    def make_top(gen, i):
        k, n = DIAGRAM_TOP_CELLS[i]
        return _verify_ops("verify-top-cell", _graph_file(gen, f"top{k}_{n}", _top_cell(k, n)))

    return [
        Family(
            "verify-fixture",
            "the five enumerable fixtures: the paper's examples, 7 to 175 matchings each",
            lambda gen: len(FIXTURES),
            make_fixture,
            lambda gen, rng: [
                (i, s)
                for i, copies in enumerate(FIXTURE_COPIES)
                for s in rng.sample(range(VERIFY_SEEDS), copies)
            ],
        ),
        Family(
            "verify-top-cell",
            "top cells Gr(3,6)..Gr(5,10): matchings grow 42 -> 7,234, the main theorem at scale",
            lambda gen: len(DIAGRAM_TOP_CELLS),
            make_top,
            lambda gen, rng: [
                (i, s)
                for i, copies in enumerate(TOP_CELL_COPIES)
                for s in (rng.sample(range(VERIFY_SEEDS), copies) if copies > 1 else [FIXED_VERIFY_SEED])
            ],
        ),
    ]


# -- twist -----------------------------------------------------------------

GENERIC_SHAPES = ((4, 8), (5, 10), (6, 12))
GENERIC_POOL = 48
GENERIC_COPIES = 4
# non-top cells, so their positroid matrices have vanishing minors
POSITROID_PERMS = ((3, 5, 6, 7, 8, 10), (6, 5, 7, 8, 11, 10, 9), (8, 4, 7, 5, 10, 9, 14, 11))
POSITROID_WEIGHTINGS = 8
ORBIT_DEPTHS = 48
ORBIT_BANDS = 4
TWIST_VARIANTS = (
    ("twist", "--right"),
    ("twist", "--left"),
    ("twist", "--right", "--times", "2"),
    ("twist", "--left", "--times", "2"),
    ("mu",),
)


def _matrix_ops(family: str, path: str) -> list:
    return [Op(family, (v[0], path) + v[1:]) for v in TWIST_VARIANTS]


def _cycle_variants(rng: random.Random) -> tuple:
    # right, left, one double twist, mu
    return (0, 1, rng.choice((2, 3)), 4)


def _positroid_graphs(gen: Gen) -> list:
    def build():
        graphs = [gen.mods.fixtures.load(name) for name in FIXTURES]
        core, moves = gen.mods.core, gen.mods.moves
        graphs += [moves.synthesize(core.BoundedAffinePermutation(p)) for p in POSITROID_PERMS]
        return graphs

    return gen.memo("positroid-graphs", build)


def _d4_orbit(gen: Gen, depth: int):
    """Left-twist orbit of the right twist of d4 at unit weights."""
    linalg, measurement = gen.mods.linalg, gen.mods.measurement

    def start():
        d4 = gen.mods.fixtures.load("d4")
        point = measurement.matrix_from_pluecker(measurement.measure(d4, {e: 1 for e in d4.edges}))
        return [linalg.twist(point, "right")]

    orbit = gen.memo("d4-orbit", start)
    while len(orbit) <= depth:
        orbit.append(linalg.twist(orbit[-1], "left"))
    return orbit[depth]


def _twist_families() -> list:
    n_graphs = len(FIXTURES) + len(POSITROID_PERMS)

    def make_generic(gen, i):
        k, n = GENERIC_SHAPES[i % len(GENERIC_SHAPES)]
        rng = random.Random(f"generic-{i}")
        rows = [[str(_rational(rng, -9, 9, 9)) for _ in range(n)] for _ in range(k)]
        path = gen.write(f"generic{i}.json", {"k": k, "n": n, "rows": rows})
        return _matrix_ops("twist-generic", path)

    def pick_generic(gen, rng):
        shapes = len(GENERIC_SHAPES)
        return [
            (i, v)
            for s in range(shapes)
            for i in rng.sample(range(s, GENERIC_POOL, shapes), GENERIC_COPIES)
            for v in _cycle_variants(rng)
        ]

    def make_positroid(gen, i):
        measurement = gen.mods.measurement
        graph = _positroid_graphs(gen)[i % n_graphs]
        weights = measurement.random_weighting(graph, random.Random(f"positroid-{i}"))
        matrix = measurement.matrix_from_pluecker(measurement.measure(graph, weights))
        return _matrix_ops("twist-positroid", gen.write(f"positroid{i}.json", matrix.to_json()))

    def pick_positroid(gen, rng):
        return [
            (g + n_graphs * rng.randrange(POSITROID_WEIGHTINGS), v)
            for g in range(n_graphs)
            for v in _cycle_variants(rng)
        ]

    def make_orbit(gen, depth):
        path = gen.write(f"orbit{depth}.json", _d4_orbit(gen, depth).to_json())
        return _matrix_ops("twist-d4-orbit", path)

    def pick_orbit(gen, rng):
        band = ORBIT_DEPTHS // ORBIT_BANDS
        return [
            (b * band + rng.randrange(band), v)
            for b in range(ORBIT_BANDS)
            for v in _cycle_variants(rng)
        ]

    return [
        Family(
            "twist-generic",
            "generic rational 4x8, 5x10, 6x12 matrices: uniform positroids, the linalg kernel alone",
            lambda gen: GENERIC_POOL,
            make_generic,
            pick_generic,
        ),
        Family(
            "twist-positroid",
            "matrix_from_pluecker(measure(g, z)) on fixtures and synthesized cells: non-uniform necklaces",
            lambda gen: n_graphs * POSITROID_WEIGHTINGS,
            make_positroid,
            pick_positroid,
        ),
        Family(
            "twist-d4-orbit",
            "left-twist orbit of d4 at depths 0..47: entry bit length grows with depth",
            lambda gen: ORBIT_DEPTHS,
            make_orbit,
            pick_orbit,
        ),
    ]


# -- structure -------------------------------------------------------------

PERM_POOL = 72
RANDOM_CELL_COPIES = 12
PERM_SIZES = tuple(range(7, 13))
SYNTH_TOP_CELLS = ((3, 7), (4, 9), (5, 11), (6, 12), (7, 14))
# inspect enumerates every matching (graph_positroid); a cell dimension of at
# most 9 keeps one op near the chamber ops' cost.  The picks are stratified by
# dimension, which predicts the cost.
INSPECT_MAX_DIMENSION = 9
INSPECT_COPIES = 4
MOVE_POOL = 40
# per fixture; the 1-3 ms move ops make the plateau that holds the median
MOVE_COPIES = 3
MOVE_SCRIPT_LENGTH = 4
CHAMBER_WORDS = ((2, 1, 2), (1, 2, 1), (1, 2, 1, 3, 2, 1), (3, 2, 1, 3, 2, 3))
CHAMBER_POOL = 48
# 4x4 factorizations cost about 9 ms each; their block of copies holds the
# 90th percentile of the cycle, between the three big synth ops and the rest
CHAMBER_COPIES = (1, 1, 4, 4)


def random_perm(gen: Gen, index: int):
    """Entry ``index`` of the random bounded affine permutation pool."""

    def build():
        n = PERM_SIZES[index % len(PERM_SIZES)]
        rng = random.Random(f"perm-{index}")
        while True:
            order = list(range(1, n + 1))
            rng.shuffle(order)
            values = []
            for a, r in enumerate(order, start=1):
                if r == a:
                    values.append(a if rng.random() < 0.5 else a + n)
                else:
                    values.append(r if r > a else r + n)
            pi = gen.mods.core.BoundedAffinePermutation(tuple(values))
            if 1 <= pi.k <= n - 1:
                return pi

    return gen.memo(("perm", index), build)


def _by_dimension(gen: Gen) -> list:
    """(cell dimension, pool index) of every random permutation, sorted.

    The dimension counts the faces a synthesized graph has beyond one, so it
    predicts the cost of synth, labels and inspect; picks are stratified by it.
    """

    def build():
        length = gen.mods.core.length
        return sorted(
            (pi.k * (pi.n - pi.k) - length(pi), i)
            for i, pi in ((i, random_perm(gen, i)) for i in range(PERM_POOL))
        )

    return gen.memo("by-dimension", build)


def _inspectable(gen: Gen) -> list:
    return [i for d, i in _by_dimension(gen) if d <= INSPECT_MAX_DIMENSION]


def _labels_graph(gen: Gen, i: int) -> str:
    if i < PERM_POOL:
        return _graph_file(gen, f"perm{i}", random_perm(gen, i).values)
    k, n = SYNTH_TOP_CELLS[i - PERM_POOL]
    return _graph_file(gen, f"top{k}_{n}", _top_cell(k, n))


def _stratified(rng: random.Random, size: int, copies: int) -> list:
    """One index from each of ``copies`` consecutive strata of range(size)."""
    bounds = [size * c // copies for c in range(copies + 1)]
    return [rng.randrange(bounds[c], bounds[c + 1]) for c in range(copies)]


def _random_cells(gen: Gen, rng: random.Random) -> list:
    ranked = _by_dimension(gen)
    return [ranked[j][1] for j in _stratified(rng, PERM_POOL, RANDOM_CELL_COPIES)]


def move_candidates(graph) -> list:
    """Every legal move of the kinds the move workload scripts."""
    out = [
        {"kind": "urban-renewal", "site": f.id}
        for f in graph.faces()
        if f.kind == "internal" and len(f.edges) == 4 and len(set(f.edges)) == 4
    ]
    for v in sorted(graph.colors):
        incident = graph.incident(v)
        ends = [graph.other_end(e, v) for e in incident]
        at_boundary = sum(1 for x in ends if graph.is_boundary(x))
        if len(incident) == 2 and at_boundary == 1:
            out.append({"kind": "boundary-remove", "site": v})
        elif len(incident) == 2 and at_boundary == 0 and ends[0] != ends[1]:
            out.append({"kind": "contract", "site": v})
        for first in graph.rotations[v] if len(incident) >= 3 else ():
            for count in range(1, len(incident)):
                out.append({"kind": "expand", "site": v, "params": {"first_edge": first, "count": count}})
    out += [{"kind": "boundary-add", "site": i} for i in graph.boundary_vertices()]
    return out


def _structure_families() -> list:
    def make_synth(gen, i):
        return [Op("synth-random", ("synth", "--perm", _perm_text(random_perm(gen, i).values)))]

    def make_synth_top(gen, i):
        return [Op("synth-top-cell", ("synth", "--perm", _perm_text(_top_cell(*SYNTH_TOP_CELLS[i]))))]

    def make_labels(gen, i):
        path = _labels_graph(gen, i)
        return [Op("labels", ("labels", path, "--mode", mode)) for mode in ("source", "target")]

    def pick_labels(gen, rng):
        tops = range(PERM_POOL, PERM_POOL + len(SYNTH_TOP_CELLS))
        return [(i, rng.randrange(2)) for i in _random_cells(gen, rng)] + [(t, m) for t in tops for m in (0, 1)]

    def make_inspect(gen, j):
        i = _inspectable(gen)[j]
        return [Op("inspect", ("inspect", _graph_file(gen, f"perm{i}", random_perm(gen, i).values)))]

    def make_move(gen, i):
        name = FIXTURES[i % len(FIXTURES)]
        mods = gen.mods
        rng = random.Random(f"move-{i}")
        graph = mods.fixtures.load(name)
        weights = mods.measurement.random_weighting(graph, rng)
        graph_path = _fixture_file(gen, name)
        weights_path = gen.write(f"move{i}-weights.json", {e: str(v) for e, v in sorted(weights.items())})
        script = []
        while len(script) < MOVE_SCRIPT_LENGTH:
            step = rng.choice(move_candidates(graph))
            move = mods.moves.Move(step["kind"], step["site"], step.get("params"))
            try:
                result = mods.moves.apply_move(graph, weights, move)
            except ValueError:  # e.g. a square face whose corners repeat
                continue
            graph, weights = result.graph, result.weights
            script.append(step)
        spec_path = gen.write(f"move{i}-script.json", script)
        return [Op("move", ("move", graph_path, weights_path, "--spec", spec_path))]

    def make_chamber(gen, i):
        word = CHAMBER_WORDS[i % len(CHAMBER_WORDS)]
        size = max(word) + 1
        rng = random.Random(f"chamber-{i}")
        rows = [
            [str(_rational(rng, 1, 9, 5)) if c >= r else "0" for c in range(size)]
            for r in range(size)
        ]
        path = gen.write(f"chamber{i}.json", {"k": size, "n": size, "rows": rows})
        return [Op("chamber", ("chamber", _perm_text(word), path))]

    return [
        Family(
            "synth-random",
            "random bounded affine permutations, n = 7..12, stratified by cell dimension: a new graph per bridge",
            lambda gen: PERM_POOL,
            make_synth,
            lambda gen, rng: [(i, 0) for i in _random_cells(gen, rng)],
        ),
        Family(
            "synth-top-cell",
            "top cells Gr(3,7)..Gr(7,14): the longest bridge sequences, up to 20 kB of output",
            lambda gen: len(SYNTH_TOP_CELLS),
            make_synth_top,
            lambda gen, rng: [(i, 0) for i in range(len(SYNTH_TOP_CELLS))],
        ),
        Family(
            "labels",
            "face labels on synthesized graphs: strands, reducedness and left-face sweeps, no matchings",
            lambda gen: PERM_POOL + len(SYNTH_TOP_CELLS),
            make_labels,
            pick_labels,
        ),
        Family(
            "inspect",
            "inspect on small synthesized cells: Oh's construction and the positroid cross-check",
            lambda gen: len(_inspectable(gen)),
            make_inspect,
            lambda gen, rng: [(j, 0) for j in _stratified(rng, len(_inspectable(gen)), INSPECT_COPIES)],
        ),
        Family(
            "move",
            "seeded four-step move scripts on the fixtures: every step builds and validates a graph",
            lambda gen: MOVE_POOL,
            make_move,
            lambda gen, rng: [
                (i, 0)
                for f in range(len(FIXTURES))
                for i in rng.sample(range(f, MOVE_POOL, len(FIXTURES)), MOVE_COPIES)
            ],
        ),
        Family(
            "chamber",
            "Chamber Ansatz factorization of seeded 3x3 and 4x4 unipotent-by-diagonal matrices",
            lambda gen: CHAMBER_POOL,
            make_chamber,
            lambda gen, rng: [
                (i, 0)
                for w, copies in enumerate(CHAMBER_COPIES)
                for i in rng.sample(range(w, CHAMBER_POOL, len(CHAMBER_WORDS)), copies)
            ],
        ),
    ]


WORKLOADS = {
    "diagram": _diagram_families,
    "twist": _twist_families,
    "structure": _structure_families,
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def families(workload: str) -> list:
    return WORKLOADS[workload]()


def build(workload: str, mods, seed: int, workdir: Path) -> Plan:
    """Write one seed's inputs into ``workdir`` and return its op cycle."""
    workdir.mkdir(parents=True, exist_ok=True)
    gen = Gen(mods, workdir)
    rng = random.Random(f"{workload}:{seed}")
    cycle = []
    for family in families(workload):
        for index, variant in family.pick(gen, rng):
            entry = gen.memo((family.name, index), lambda: family.make(gen, index))
            cycle.append(entry[variant])
    rng.shuffle(cycle)
    keys = "\n".join(op_key(op, gen.digests) for op in cycle)
    return Plan(tuple(cycle), dict(gen.digests), hashlib.sha256(keys.encode()).hexdigest())


def pool(workload: str, mods, workdir: Path) -> tuple:
    """Every op of every pool entry, for recording reference digests."""
    workdir.mkdir(parents=True, exist_ok=True)
    gen = Gen(mods, workdir)
    ops = []
    for family in families(workload):
        for index in range(family.size(gen)):
            ops.extend(family.make(gen, index))
    return ops, gen.digests
