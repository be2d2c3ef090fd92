"""Built-in graphs: the canonical small fixtures and two parametric families.

All fixtures are transcribed from drawings: internal vertices carry plane
coordinates and the clockwise rotation at each vertex is recovered by sorting
incident edges by decreasing angle.  The JSON files under ``fixtures/`` are
generated from these builders and are the single source of truth for tests;
``load`` reads them back.  ``json_text`` is the one indented-JSON writer: it
writes these files, the ``inspect`` goldens and every CLI payload.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .plabic import PlabicGraph

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"

_ESCAPE = json.encoder.encode_basestring_ascii  # the C escaper, where there is one


class _NotPlain(Exception):
    """A value that ``json_text`` leaves to ``json.dumps``."""


def json_text(payload) -> str:
    """``json.dumps(payload, indent=1, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs the stdlib's pure-Python
    encoder.  This writes str-keyed dicts, lists, strings, ints, bools and
    None itself, escaping each string with ``encode_basestring_ascii``, and
    leaves a payload holding anything else to ``json.dumps``.
    """
    parts = []
    try:
        _write(payload, parts, "\n")
    except _NotPlain:
        return json.dumps(payload, indent=1, sort_keys=True)
    return "".join(parts)


def _write(x, parts: list, newline: str) -> None:
    """Append the text of x, whose lines inside start with ``newline``."""
    kind = type(x)
    if kind is str:
        parts.append(_ESCAPE(x))
    elif kind is int:
        parts.append(int.__repr__(x))
    elif kind is list:
        if not x:
            parts.append("[]")
            return
        inner, sep = newline + " ", "["
        for item in x:
            parts.append(sep + inner)
            _write(item, parts, inner)
            sep = ","
        parts.append(newline + "]")
    elif kind is dict:
        if not x:
            parts.append("{}")
            return
        inner, sep = newline + " ", "{"
        for key in sorted(x):
            if type(key) is not str:
                raise _NotPlain
            parts.append(sep + inner + _ESCAPE(key) + ": ")
            _write(x[key], parts, inner)
            sep = ","
        parts.append(newline + "}")
    elif x is None:
        parts.append("null")
    elif x is True:
        parts.append("true")
    elif x is False:
        parts.append("false")
    else:
        raise _NotPlain


def _rotations_from_coords(coords, edges, internal):
    """Clockwise rotation at each internal vertex from plane coordinates."""
    rotations = {}
    for v in internal:
        incident = [e for e, (a, b) in edges.items() if a == v or b == v]

        def angle(e):
            a, b = edges[e]
            other = b if a == v else a
            dx = coords[other][0] - coords[v][0]
            dy = coords[other][1] - coords[v][1]
            return math.atan2(dy, dx)

        rotations[v] = sorted(incident, key=angle, reverse=True)
    return rotations


def _build(n, colors, edges, coords):
    rotations = _rotations_from_coords(coords, edges, colors.keys())
    return PlabicGraph(n=n, colors=colors, edges=edges, rotations=rotations)


def square4() -> PlabicGraph:
    """n=4 square with alternating colors; positroid is uniform Gr(2,4)."""
    return PlabicGraph(
        n=4,
        colors={"v1": "white", "v2": "black", "v3": "white", "v4": "black"},
        edges={
            "leg1": (1, "v1"),
            "leg2": (2, "v2"),
            "leg3": (3, "v3"),
            "leg4": (4, "v4"),
            "s12": ("v1", "v2"),
            "s23": ("v2", "v3"),
            "s34": ("v3", "v4"),
            "s41": ("v4", "v1"),
        },
        rotations={
            "v1": ["leg1", "s12", "s41"],
            "v2": ["s12", "leg2", "s23"],
            "v3": ["s34", "s23", "leg3"],
            "v4": ["leg4", "s41", "s34"],
        },
    )


def schubert36() -> PlabicGraph:
    """The running n=6 example whose positroid is the Schubert divisor in Gr(3,6).

    Edge ids are the weight letters a..u of the drawing.
    """
    deg = math.pi / 180

    def on_circle(theta):
        return (4 * math.cos(theta * deg), 4 * math.sin(theta * deg))

    coords = {
        1: on_circle(-120), 2: on_circle(180), 3: on_circle(120),
        4: on_circle(60), 5: on_circle(0), 6: on_circle(-60),
        "a": (-2.75, 0.25), "b": (-1.5, 2.0), "c": (1.5, 2.0),
        "d": (2.75, 0.25), "e": (-1.5, -0.8), "f": (-0.45, 0.75),
        "g": (0.45, 0.75), "h": (1.5, -0.8), "i": (0.5, -2.0),
        "j": (-0.5, -2.0), "bb": (-1.75, 2.75), "dd": (3.4, 0.125),
        "ii": (1.25, -2.75),
    }
    colors = {
        "a": "white", "b": "black", "c": "white", "d": "black",
        "e": "black", "f": "white", "g": "black", "h": "white",
        "i": "black", "j": "white", "bb": "white", "dd": "white",
        "ii": "white",
    }
    edges = {
        "a": ("bb", 3), "b": ("b", "bb"), "c": ("c", 4), "d": ("a", "b"),
        "e": ("b", "f"), "f": ("f", "g"), "g": ("g", "c"), "h": ("c", "d"),
        "i": (2, "a"), "j": ("e", "a"), "k": ("e", "f"), "l": ("g", "h"),
        "m": ("d", "h"), "n": ("d", "dd"), "o": ("dd", 5), "p": ("j", "e"),
        "q": ("i", "j"), "r": ("h", "i"), "s": ("j", 1), "t": ("i", "ii"),
        "u": ("ii", 6),
    }
    return _build(6, colors, edges, coords)


def d4() -> PlabicGraph:
    """n=8 fixture in Gr(4,8) whose left-twist orbit has infinite order."""
    deg = math.pi / 180

    def on_circle(theta):
        return (4 * math.cos(theta * deg), 4 * math.sin(theta * deg))

    coords = {
        1: on_circle(22.5), 2: on_circle(-22.5), 3: on_circle(-67.5),
        4: on_circle(-112.5), 5: on_circle(-157.5), 6: on_circle(157.5),
        7: on_circle(112.5), 8: on_circle(67.5),
        "a": (-0.75, 2.75), "b": (0.75, 2.75), "c": (-0.75, 1.5), "d": (0.75, 1.5),
        "e": (-2.75, 0.75), "f": (-1.5, 0.75), "g": (-2.75, -0.75), "h": (-1.5, -0.75),
        "i": (1.5, 0.75), "j": (2.75, 0.75), "k": (1.5, -0.75), "l": (2.75, -0.75),
        "m": (-0.75, -1.5), "n": (0.75, -1.5), "o": (-0.75, -2.75), "p": (0.75, -2.75),
    }
    colors = {
        "a": "white", "b": "black", "c": "black", "d": "white",
        "e": "black", "f": "white", "g": "white", "h": "black",
        "i": "black", "j": "white", "k": "white", "l": "black",
        "m": "white", "n": "black", "o": "black", "p": "white",
    }
    edges = {
        "p1": (1, "j"), "p2": (2, "l"), "p3": (3, "p"), "p4": (4, "o"),
        "p5": (5, "g"), "p6": (6, "e"), "p7": (7, "a"), "p8": (8, "b"),
        "ab": ("a", "b"), "bd": ("b", "d"), "cd": ("c", "d"), "ca": ("c", "a"),
        "ef": ("e", "f"), "eg": ("e", "g"), "fh": ("f", "h"), "gh": ("g", "h"),
        "ij": ("i", "j"), "ik": ("i", "k"), "jl": ("j", "l"), "kl": ("k", "l"),
        "mn": ("m", "n"), "mo": ("m", "o"), "np": ("n", "p"), "op": ("o", "p"),
        "di": ("d", "i"), "kn": ("k", "n"), "mh": ("m", "h"), "fc": ("f", "c"),
    }
    return _build(8, colors, edges, coords)


def hex36() -> PlabicGraph:
    """Hexagonal n=6 graph for the dense cell of Gr(3,6).

    Its central face is target-labeled 246; the corresponding twisted Plucker
    coordinate is the one cluster variable on Gr(3,6) that is not a Plucker
    coordinate, up to a frozen-monomial rescaling.
    """
    deg = math.pi / 180

    def pol(theta, r):
        return (r * math.cos(theta * deg), r * math.sin(theta * deg))

    inner = "abcdef"
    outer_angle = {"a": 10, "b": -70, "c": -110, "d": -190, "e": -230, "f": -310}
    coords = {}
    colors = {}
    for idx, name in enumerate(inner):
        coords[name] = pol(-60 * idx, 1.5)
        colors[name] = "white" if idx % 2 == 0 else "black"
        coords[name * 2] = pol(outer_angle[name], 2.75)
        colors[name * 2] = "black" if idx % 2 == 0 else "white"
        coords[idx + 1] = pol(-60 * idx, 4.0)
    edges = {}
    for idx, name in enumerate(inner):
        nxt = inner[(idx + 1) % 6]
        edges[f"hex{name}{nxt}"] = (name, nxt)
        edges[f"spoke{name}"] = (name, name * 2)
        edges[f"pen{idx + 1}"] = (idx + 1, name * 2)
    for x, y in (("a", "f"), ("c", "b"), ("e", "d")):
        edges[f"chord{x}{y}"] = (x * 2, y * 2)
    return _build(6, colors, edges, coords)


def tri(m: int) -> PlabicGraph:
    """Honeycomb graph of three transverse flags: rank m on 3m boundary vertices.

    White vertices sit at triples (a, b, c) with a + b + c = m - 1, black at
    sum m - 2, with black (a, b, c) joined to the whites raising one entry.
    """
    if m < 2:
        raise ValueError("tri(m) needs m >= 2")
    u = (math.cos(math.pi / 2), math.sin(math.pi / 2))
    v = (math.cos(-math.pi / 6), math.sin(-math.pi / 6))
    w = (math.cos(-5 * math.pi / 6), math.sin(-5 * math.pi / 6))

    def pos(a, b, c):
        return (
            a * u[0] + b * v[0] + c * w[0],
            a * u[1] + b * v[1] + c * w[1],
        )

    def triples(total):
        return [
            (a, b, total - a - b)
            for a in range(total, -1, -1)
            for b in range(total - a, -1, -1)
        ]

    colors = {}
    coords = {}
    for t in triples(m - 1):
        name = "w" + "_".join(map(str, t))
        colors[name] = "white"
        coords[name] = pos(*t)
    for t in triples(m - 2):
        name = "k" + "_".join(map(str, t))
        colors[name] = "black"
        coords[name] = pos(*t)

    edges = {}
    for (a, b, c) in triples(m - 2):
        black = f"k{a}_{b}_{c}"
        for da, db, dc in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            white = f"w{a + da}_{b + db}_{c + dc}"
            edges[f"e{a}_{b}_{c}_{'abc'[(da, db, dc).index(1)]}"] = (black, white)

    def white_for_boundary(i):
        if i <= m:
            return (m - i, i - 1, 0)
        if i <= 2 * m:
            j = i - m
            return (0, m - j, j - 1)
        j = i - 2 * m
        return (j - 1, 0, m - j)

    def boundary_pos(i):
        # just outside the attached white vertex, spread so angles stay distinct
        a, b, c = white_for_boundary(i)
        base = pos(a, b, c)
        if i <= m:
            direction = (u[0] + v[0], u[1] + v[1])
            tilt = (i - 0.5) / m
            ortho = (v[0] - u[0], v[1] - u[1])
        elif i <= 2 * m:
            direction = (v[0] + w[0], v[1] + w[1])
            tilt = (i - m - 0.5) / m
            ortho = (w[0] - v[0], w[1] - v[1])
        else:
            direction = (w[0] + u[0], w[1] + u[1])
            tilt = (i - 2 * m - 0.5) / m
            ortho = (u[0] - w[0], u[1] - w[1])
        shift = tilt - 0.5
        return (
            base[0] + direction[0] + 0.9 * shift * ortho[0],
            base[1] + direction[1] + 0.9 * shift * ortho[1],
        )

    for i in range(1, 3 * m + 1):
        a, b, c = white_for_boundary(i)
        edges[f"pen{i}"] = (i, f"w{a}_{b}_{c}")
        coords[i] = boundary_pos(i)

    return _build(3 * m, colors, edges, coords)


def chamber(word) -> PlabicGraph:
    """Wiring-diagram graph of a reduced word in the simple transpositions.

    ``word`` is a sequence of letters i (1-based); letter i adds a vertical
    edge between wire i and wire i+1 with a white top and black bottom.  The
    number of wires is max(word) + 1.  Wires are numbered 1 (top) to N, with
    right boundary labels 1..N top to bottom and left labels N+1..2N bottom to
    top.  Two-valent white vertices keep the graph bipartite with all
    boundary vertices adjacent to white; if a reduced word still leaves two
    adjacent whites on a wire, a black buffer vertex is inserted.
    """
    word = list(word)
    if not word:
        raise ValueError("empty word")
    wires = max(word) + 1
    # nodes per wire: (x position, name, color)
    per_wire = {wire_no: [] for wire_no in range(1, wires + 1)}
    colors = {}
    coords = {}
    edges = {}
    verticals = []
    for pos, letter in enumerate(word):
        x = 2.0 * (pos + 1)
        top = f"t{pos}"
        bot = f"b{pos}"
        colors[top] = "white"
        colors[bot] = "black"
        coords[top] = (x, -2.0 * letter)
        coords[bot] = (x, -2.0 * (letter + 1))
        per_wire[letter].append((x, top))
        per_wire[letter + 1].append((x, bot))
        edges[f"v{pos}"] = (top, bot)
        verticals.append(f"v{pos}")

    width = 2.0 * (len(word) + 1)
    n = 2 * wires
    aux = 0
    for wire in range(1, wires + 1):
        y = -2.0 * wire
        nodes = sorted(per_wire[wire])
        fixed = []
        prev_color = None
        for x, name in nodes:
            if colors[name] == prev_color:
                buffer_color = "black" if colors[name] == "white" else "white"
                bname = f"x{aux}"
                aux += 1
                colors[bname] = buffer_color
                coords[bname] = ((x + fixed[-1][0]) / 2, y)
                fixed.append(((x + fixed[-1][0]) / 2, bname))
            fixed.append((x, name))
            prev_color = colors[name]
        if not fixed or colors[fixed[0][1]] == "black":
            bname = f"x{aux}"
            aux += 1
            colors[bname] = "white"
            coords[bname] = (fixed[0][0] - 1.0 if fixed else 1.0, y)
            fixed.insert(0, (coords[bname][0], bname))
        if colors[fixed[-1][1]] == "black":
            bname = f"x{aux}"
            aux += 1
            colors[bname] = "white"
            coords[bname] = (fixed[-1][0] + 1.0, y)
            fixed.append((coords[bname][0], bname))
        right_label = wire
        left_label = 2 * wires - wire + 1
        coords[right_label] = (width, y)
        coords[left_label] = (-width, y)
        chain = [(None, left_label)] + fixed + [(None, right_label)]
        for idx in range(len(chain) - 1):
            a, b = chain[idx][1], chain[idx + 1][1]
            edges[f"h{wire}_{idx}"] = (a, b)
    return _build(n, colors, edges, coords)


BUILDERS = {
    "square4": square4,
    "schubert36": schubert36,
    "d4": d4,
    "hex36": hex36,
    "tri6": lambda: tri(6),
    "chamber_s2s1s2": lambda: chamber([2, 1, 2]),
}


def write_fixture_files(directory: Path | None = None) -> list[Path]:
    directory = Path(directory) if directory else FIXTURE_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in BUILDERS.items():
        path = directory / f"{name}.json"
        path.write_text(json_text(builder().to_json()) + "\n")
        written.append(path)
    return written


def load(name: str, directory: Path | None = None) -> PlabicGraph:
    """Load a fixture graph by name from the JSON files."""
    directory = Path(directory) if directory else FIXTURE_DIR
    path = directory / f"{name}.json"
    if path.exists():
        return PlabicGraph.from_json(json.loads(path.read_text()))
    if name in BUILDERS:
        return BUILDERS[name]()
    raise FileNotFoundError(f"no fixture named {name!r}")
