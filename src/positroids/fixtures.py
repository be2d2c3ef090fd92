"""Built-in graphs: the six fixtures, the wiring-diagram family and the
JSON writer.

The fixtures are package data: ``data/<name>.json`` for each name in
``NAMES``, read back by ``load``.  ``chamber(word)`` builds the one family
the library needs, straight from its wiring grid.  ``json_text`` is the one
indented-JSON writer: the fixture files are in its format, and it writes the
``inspect`` goldens and every CLI payload.
"""
from __future__ import annotations

import json
from pathlib import Path

from .plabic import PlabicGraph

_ESCAPE = json.encoder.encode_basestring_ascii  # the C escaper, where there is one


def json_text(payload) -> str:
    """``json.dumps(payload, indent=1, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs the stdlib's pure-Python
    encoder.  This writes str-keyed dicts, lists, strings, ints, bools and
    None itself, escaping each string with ``encode_basestring_ascii``, and
    raises ``TypeError`` on anything else: every payload is plain.
    """
    parts = []
    _write(payload, parts, "\n")
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
                raise TypeError(f"a JSON key must be a str, not {type(key).__name__}")
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
        raise TypeError(f"{kind.__name__} is not a plain JSON value")


def chamber(word) -> PlabicGraph:
    """Wiring-diagram graph of a word in the simple transpositions.

    ``word`` is a sequence of letters i (1-based); letter i adds a vertical
    edge between wire i and wire i+1 with a white top and black bottom.  The
    number of wires is max(word) + 1.  Wires are numbered 1 (top) to N, with
    right boundary labels 1..N top to bottom and left labels N+1..2N bottom to
    top.  Two-valent white vertices keep the graph bipartite with all
    boundary vertices adjacent to white; if the word leaves two adjacent
    vertices of one color on a wire, a buffer of the other color goes
    between them.

    The rotations are read off the grid, clockwise: a wire vertex is
    (west, east), a crossing's top vertex (west, east, down) and its bottom
    vertex (west, up, east).
    """
    word = list(word)
    if not word:
        raise ValueError("empty word")
    wires = max(word) + 1
    per_wire = {wire: [] for wire in range(1, wires + 1)}  # vertices, west to east
    colors = {}
    edges = {}
    for pos, letter in enumerate(word):
        top, bot = f"t{pos}", f"b{pos}"
        colors[top], colors[bot] = "white", "black"
        per_wire[letter].append(top)
        per_wire[letter + 1].append(bot)
        edges[f"v{pos}"] = (top, bot)

    def buffer(color):
        """A new wire vertex: x0, x1, ... in the order they are made."""
        name = f"x{len(colors) - 2 * len(word)}"
        colors[name] = color
        return name

    rotations = {}
    for wire, vertices in per_wire.items():
        chain = []
        for v in vertices:
            if chain and colors[chain[-1]] == colors[v]:
                chain.append(buffer("black" if colors[v] == "white" else "white"))
            chain.append(v)
        if not chain or colors[chain[0]] == "black":
            chain.insert(0, buffer("white"))
        if colors[chain[-1]] == "black":
            chain.append(buffer("white"))
        chain = [2 * wires - wire + 1, *chain, wire]
        for idx in range(len(chain) - 1):
            edges[f"h{wire}_{idx}"] = (chain[idx], chain[idx + 1])
            if idx:
                rotations[chain[idx]] = [f"h{wire}_{idx - 1}", f"h{wire}_{idx}"]
    for pos in range(len(word)):
        rotations[f"t{pos}"].append(f"v{pos}")
        rotations[f"b{pos}"].insert(1, f"v{pos}")
    return PlabicGraph(
        n=2 * wires, colors=colors, edges=edges, rotations={v: rotations[v] for v in colors}
    )


NAMES = ("square4", "schubert36", "d4", "hex36", "tri6", "chamber_s2s1s2")


def load(name: str) -> PlabicGraph:
    """Load a fixture graph by name from the package's ``data`` directory."""
    if name not in NAMES:
        raise FileNotFoundError(f"no fixture named {name!r}")
    path = Path(__file__).parent / "data" / f"{name}.json"
    return PlabicGraph.from_json(json.loads(path.read_text()))
