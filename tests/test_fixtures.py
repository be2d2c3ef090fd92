"""The fixtures as package data, ``chamber(word)`` against the coordinate
builder it replaced, and exact arithmetic throughout the package."""
import ast
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from positroids import fixtures
from positroids.fixtures import chamber, json_text
from positroids.plabic import PlabicGraph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "positroids"


def coordinate_chamber(word) -> PlabicGraph:
    """The wiring-diagram graph drawn in the plane: each vertex's clockwise
    rotation is its edges sorted by decreasing angle to the other end."""
    word = list(word)
    wires = max(word) + 1
    per_wire = {wire_no: [] for wire_no in range(1, wires + 1)}
    colors, coords, edges = {}, {}, {}
    for pos, letter in enumerate(word):
        x = 2.0 * (pos + 1)
        top, bot = f"t{pos}", f"b{pos}"
        colors[top], colors[bot] = "white", "black"
        coords[top] = (x, -2.0 * letter)
        coords[bot] = (x, -2.0 * (letter + 1))
        per_wire[letter].append((x, top))
        per_wire[letter + 1].append((x, bot))
        edges[f"v{pos}"] = (top, bot)

    width = 2.0 * (len(word) + 1)
    aux = 0
    for wire in range(1, wires + 1):
        y = -2.0 * wire
        fixed = []
        prev_color = None
        for x, name in sorted(per_wire[wire]):
            if colors[name] == prev_color:
                bname = f"x{aux}"
                aux += 1
                colors[bname] = "black" if colors[name] == "white" else "white"
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
        right_label, left_label = wire, 2 * wires - wire + 1
        coords[right_label], coords[left_label] = (width, y), (-width, y)
        chain = [(None, left_label)] + fixed + [(None, right_label)]
        for idx in range(len(chain) - 1):
            edges[f"h{wire}_{idx}"] = (chain[idx][1], chain[idx + 1][1])

    rotations = {}
    for v in colors:
        incident = [e for e, (a, b) in edges.items() if v in (a, b)]

        def angle(e):
            a, b = edges[e]
            other = b if a == v else a
            return math.atan2(coords[other][1] - coords[v][1], coords[other][0] - coords[v][0])

        rotations[v] = sorted(incident, key=angle, reverse=True)
    return PlabicGraph(n=2 * wires, colors=colors, edges=edges, rotations=rotations)


def test_chamber_matches_the_coordinate_builder():
    # every word of length <= 6 on 2 to 4 wires, reduced or not; the dict
    # orders too, since face ids follow them
    words = [w for length in range(1, 7) for w in product((1, 2, 3), repeat=length)]
    for word in words:
        got, want = chamber(word), coordinate_chamber(word)
        assert json_text(got.to_json()) == json_text(want.to_json()), word
        assert (list(got.colors), list(got.edges), list(got.rotations)) == (
            list(want.colors), list(want.edges), list(want.rotations)
        ), word


def test_chamber_fixture_is_chamber_of_its_word():
    assert fixtures.load("chamber_s2s1s2").to_json() == chamber([2, 1, 2]).to_json()


def test_fixtures_load_by_name_from_outside_the_checkout(tmp_path):
    script = (
        "import json, sys\n"
        "from importlib.resources import files\n"
        "from positroids import fixtures\n"
        "for name in fixtures.NAMES:\n"
        "    text = (files('positroids') / 'data' / f'{name}.json').read_text()\n"
        "    assert fixtures.load(name).to_json() == json.loads(text), name\n"
        "print(' '.join(fixtures.NAMES))\n"
    )
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:  # so the run leaves no __pycache__ in src/
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == list(fixtures.NAMES)
    assert sorted(p.stem for p in (PACKAGE / "data").glob("*.json")) == sorted(fixtures.NAMES)


@pytest.mark.parametrize("name", ["nope", "../../../pyproject"])
def test_load_reads_only_the_six_names(name):
    with pytest.raises(FileNotFoundError, match=f"^no fixture named {name!r}$"):
        fixtures.load(name)


def float_uses(tree: ast.AST) -> list[str]:
    """Float constants, ``float(`` calls and ``math`` imports other than
    gcd, lcm and prod, each named with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float constant {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float() call")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = sorted({a.name for a in node.names} - {"gcd", "lcm", "prod"})
            if extra:
                found.append(f"line {node.lineno}: from math import {', '.join(extra)}")
    return found


def test_no_module_builds_a_float():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = {p.name: float_uses(ast.parse(p.read_text())) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_float_guard_sees_each_kind():
    source = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float('1')\n"
    assert float_uses(ast.parse(source)) == [
        "line 1: import math",
        "line 2: from math import sqrt",
        "line 3: float constant 0.5",
        "line 4: float() call",
    ]
