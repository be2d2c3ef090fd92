import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "positroids" / "data"


def run_cli(*args, expect=0):
    return run_cli_result(*args, expect=expect).stdout


def run_cli_result(*args, expect):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:  # so the run leaves no __pycache__ in src/
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    result = subprocess.run(
        [sys.executable, "-m", "positroids.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert result.returncode == expect, result.stderr
    return result


def test_inspect_square4():
    out = json.loads(run_cli("inspect", str(FIXTURES / "square4.json")))
    assert out["k"] == 2
    assert out["trip_permutation"] == [3, 4, 5, 6]
    assert out["reduced"] is True
    assert out["faces"] == 5
    assert out["face_count_ok"] is True


def test_inspect_is_deterministic():
    a = run_cli("inspect", str(FIXTURES / "schubert36.json"))
    b = run_cli("inspect", str(FIXTURES / "schubert36.json"))
    assert a == b


def test_inspect_by_fixture_name():
    out = json.loads(run_cli("inspect", "d4"))
    assert out["n"] == 8 and out["k"] == 4


def test_inspect_dot():
    out = json.loads(run_cli("inspect", str(FIXTURES / "square4.json"), "--dot"))
    assert out["dot"].startswith("graph plabic {")


def test_inspect_dot_escapes_quotes_and_backslashes(tmp_path):
    # square4 with the vertex v1 renamed v"1 and the edge s12 renamed s\12
    text = (FIXTURES / "square4.json").read_text()
    path = tmp_path / "quoted.json"
    path.write_text(text.replace('"v1"', '"v\\"1"').replace('"s12"', '"s\\\\12"'))
    lines = json.loads(run_cli("inspect", str(path), "--dot"))["dot"].splitlines()
    assert '  "v\\"1" [shape=circle, style=filled, fillcolor=white, label=""];' in lines
    assert '  "v\\"1" -- "v2" [label="s\\\\12"];' in lines


def dot_node_ids(dot: str):
    """(declared node ids, edge endpoint ids) of a DOT graph, quotes stripped."""
    nodes, ends = [], []
    for line in dot.splitlines()[1:-1]:
        head = line.split(" [")[0].strip()
        if " -- " in head:
            ends += [x.strip('"') for x in head.split(" -- ")]
        else:
            nodes.append(head.strip('"'))
    return nodes, ends


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_inspect_dot_declares_one_node_per_vertex(name):
    from positroids import cli, fixtures

    g = fixtures.load(name)
    nodes, ends = dot_node_ids(cli.to_dot(g))
    assert len(set(nodes)) == len(nodes) == g.n + len(g.colors)
    assert set(ends) <= set(nodes) and len(ends) == 2 * len(g.edges)


def test_inspect_dot_renames_a_boundary_node_that_is_an_internal_id(tmp_path):
    # square4 with v1 renamed b1 and v2 renamed b1_: boundary vertex 1 is node b1__
    text = (FIXTURES / "square4.json").read_text()
    path = tmp_path / "b1.json"
    path.write_text(text.replace('"v1"', '"b1"').replace('"v2"', '"b1_"'))
    out = json.loads(run_cli("inspect", str(path), "--dot"))
    nodes, ends = dot_node_ids(out["dot"])
    assert nodes[:4] == ["b1__", "b2", "b3", "b4"]
    assert len(set(nodes)) == len(nodes) == 4 + 4
    assert set(ends) <= set(nodes) and len(ends) == 2 * out["edges"]


def test_inspect_of_a_reduced_graph_lists_no_matching(monkeypatch, capsys):
    from positroids import cli, matchings

    listed = []
    monkeypatch.setattr(matchings, "enumerate_matchings", lambda *args: listed.append(args))
    cli.main(["inspect", "tri6"])
    assert json.loads(capsys.readouterr().out)["positroid_size"] == 9842
    assert listed == []


def test_matchings_filter():
    out = json.loads(
        run_cli("matchings", str(FIXTURES / "square4.json"), "--boundary", "2,4")
    )
    assert out["count"] == 2
    assert out["matchings"][0]["edges"] == ["s12", "s34"]


def test_measure_and_labels(tmp_path):
    graph = json.loads((FIXTURES / "square4.json").read_text())
    weights = {e["id"]: "1" for e in graph["edges"]}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    out = json.loads(run_cli("measure", str(FIXTURES / "square4.json"), str(wpath)))
    values = {tuple(item["I"]): item["value"] for item in out["pluecker"]}
    assert values[(2, 4)] == "2"
    labels = json.loads(
        run_cli("labels", str(FIXTURES / "square4.json"), "--mode", "source")
    )
    assert labels["f1"] == [2, 4]


def test_twist_chain(tmp_path):
    m = {"k": 3, "n": 5, "rows": [["1", "0", "1", "0", "1"],
                                  ["-1", "1", "0", "0", "0"],
                                  ["1", "-1", "0", "1", "1"]]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(m))
    out = json.loads(run_cli("twist", str(mpath), "--right", "--times", "2"))
    assert out["rows"] == [
        ["1", "-1", "0", "0", "0"],
        ["0", "1", "1", "-1", "0"],
        ["1", "-1", "0", "1", "1"],
    ]
    out = json.loads(run_cli("twist", str(mpath), "--left", "--times", "0"))
    assert out["rows"] == m["rows"]


def test_mu(tmp_path):
    m = {"rows": [["2", "3", "0", "-7"], ["0", "0", "5", "11"]]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(m))
    out = json.loads(run_cli("mu", str(mpath)))
    assert out["rows"] == [["2", "3", "35/11", "0"], ["0", "-33/7", "0", "11"]]


def test_verify():
    out = json.loads(
        run_cli("verify", str(FIXTURES / "d4.json"), "--seed", "7", "--trials", "3")
    )
    assert out["all_passed"] is True


@pytest.mark.parametrize("perm, k", [("1,2,3", 0), ("4,5,6", 3)])
def test_verify_on_extreme_cells(tmp_path, perm, k):
    # a k = 0 point has no matrix to twist; k = n is a single point
    graph = tmp_path / "g.json"
    graph.write_text(run_cli("synth", "--perm", perm))
    if k == 0:
        result = run_cli_result("verify", str(graph), expect=2)
        assert result.stderr.startswith("precondition failed: k = 0")
        assert result.stderr.count("\n") == 1, result.stderr
    else:
        assert json.loads(run_cli("verify", str(graph)))["all_passed"] is True


def test_synth():
    out = json.loads(run_cli("synth", "--perm", "3,5,6,7,8,10"))
    assert out["n"] == 6


def test_move_script(tmp_path):
    graph = json.loads((FIXTURES / "square4.json").read_text())
    weights = {e["id"]: "1" for e in graph["edges"]}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    spec = [{"kind": "urban-renewal", "site": "f1"}]
    spath = tmp_path / "moves.json"
    spath.write_text(json.dumps(spec))
    out = json.loads(
        run_cli("move", str(FIXTURES / "square4.json"), str(wpath), "--spec", str(spath))
    )
    assert out["notes"][0]["factor"] == "2"


@pytest.mark.parametrize("leg1", [None, "0"], ids=["missing", "zero"])
def test_move_checks_the_weighting_first(tmp_path, leg1):
    # boundary-add reads no weight, so without a check up front the script
    # would print a weighting with leg1 missing or 0
    weights = {e["id"]: "1" for e in json.loads((FIXTURES / "square4.json").read_text())["edges"]}
    if leg1 is None:
        del weights["leg1"]
    else:
        weights["leg1"] = leg1
    wpath, spath = tmp_path / "w.json", tmp_path / "moves.json"
    wpath.write_text(json.dumps(weights))
    spath.write_text(json.dumps([{"kind": "boundary-add", "site": 1}]))
    result = run_cli_result("move", "square4", str(wpath), "--spec", str(spath), expect=1)
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "'leg1'" in result.stderr, result.stderr


@pytest.mark.parametrize("command", ["measure", "move"])
def test_weights_naming_an_edge_the_graph_lacks(tmp_path, command):
    # every square4 edge weighted, plus two ids square4 lacks: the first of
    # them in sorted order is named, and the file is not read with them dropped
    weights = json.loads(square4_weights()) | {"zz": "2", "typo": "5"}
    wpath, spath = tmp_path / "w.json", tmp_path / "moves.json"
    wpath.write_text(json.dumps(weights))
    spath.write_text("[]")
    spec = ["--spec", str(spath)] if command == "move" else []
    result = run_cli_result(command, "square4", str(wpath), *spec, expect=1)
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "'typo'" in result.stderr and "'zz'" not in result.stderr, result.stderr


def test_move_refuses_boundary_add_at_a_lollipop(tmp_path):
    # 1 is a fixed point of the permutation, so boundary vertex 1 ends at a
    # lollipop, which a boundary vertex would turn into an interior leaf
    gpath, wpath, spath = tmp_path / "g.json", tmp_path / "w.json", tmp_path / "moves.json"
    gpath.write_text(run_cli("synth", "--perm", "1,3,5"))
    wpath.write_text(json.dumps({e["id"]: "1" for e in json.loads(gpath.read_text())["edges"]}))
    spath.write_text(json.dumps([{"kind": "boundary-add", "site": 1}]))
    result = run_cli_result("move", str(gpath), str(wpath), "--spec", str(spath), expect=1)
    assert result.stderr == "error: boundary vertex 1 ends at lollipop 'lp0'\n", result.stderr


def test_move_that_builds_an_invalid_graph_exits_3(tmp_path, monkeypatch, capsys):
    # a legal script whose result fails validation is a broken invariant (exit
    # 3), not a failed precondition (exit 2): here boundary-add drops a
    # rotation entry of the vertex it makes
    from positroids import cli
    from positroids.moves import _Draft

    step = _Draft.boundary_vertex

    def dropping_step(self, i):
        step(self, i)
        self.rotations["bd0"].pop()

    monkeypatch.setattr(_Draft, "boundary_vertex", dropping_step)
    wpath, spath = tmp_path / "w.json", tmp_path / "moves.json"
    wpath.write_text(square4_weights())
    spath.write_text(json.dumps([{"kind": "boundary-add", "site": 2}]))
    with pytest.raises(SystemExit) as exc:
        cli.main(["move", "square4", str(wpath), "--spec", str(spath)])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "internal error: move script built an invalid graph: "
        "rotation at 'bd0' is not a cyclic order of its incident edges\n"
    )


def test_laurent():
    out = json.loads(run_cli("laurent", str(FIXTURES / "d4.json"), "--J", "2,4,6,8"))
    assert len(out["terms"]) == 17


def square4_with_string_n():
    payload = json.loads((FIXTURES / "square4.json").read_text())
    payload["n"] = "4"
    return json.dumps(payload)


def square4_with_vertex_id(new_id):
    """square4 with its first internal vertex renamed to a non-string id."""
    payload = json.loads((FIXTURES / "square4.json").read_text())
    old = payload["internal"][0]["id"]
    payload["internal"][0]["id"] = new_id
    for edge in payload["edges"]:
        edge["ends"] = [new_id if x == old else x for x in edge["ends"]]
    payload["rotation"][json.dumps(new_id)] = payload["rotation"].pop(old)
    return json.dumps(payload)


def square4_with(where, value):
    """square4 with its first edge id, the first entry of its first rotation
    or that whole rotation replaced by value."""
    payload = json.loads((FIXTURES / "square4.json").read_text())
    first = next(iter(payload["rotation"]))
    if where == "edge":
        payload["edges"][0]["id"] = value
    elif where == "rotation-entry":
        payload["rotation"][first][0] = value
    elif where == "ends":
        payload["edges"][0]["ends"] = value
    elif where == "internal-entry":
        payload["internal"][0] = value
    elif where in payload:  # a whole top-level field
        payload[where] = value
    else:
        payload["rotation"][first] = value
    return json.dumps(payload)


def square4_edited(edit):
    """square4's JSON after edit(payload) has changed it in place."""
    payload = json.loads((FIXTURES / "square4.json").read_text())
    edit(payload)
    return json.dumps(payload)


def with_repeated_key(text, after, key, value):
    """The JSON text with ``"key": value`` inserted just after its first
    occurrence of ``after``, so that an object repeats the key."""
    return text.replace(after, f"{after}{json.dumps(key)}: {json.dumps(value)}, ", 1)


def square4_weights():
    graph = json.loads((FIXTURES / "square4.json").read_text())
    return json.dumps({e["id"]: "1" for e in graph["edges"]})


def repeat_edge(payload):
    payload["edges"].append(next(e for e in payload["edges"] if e["id"] == "s12"))


def recolor_repeat(payload):
    payload["internal"].append({"id": "v1", "color": "black"})


MALFORMED = {
    "not-json": (("inspect",), "not json"),
    "float-in-matrix": (("twist", "--right"), json.dumps({"rows": [[1.5, 2], [0, 1]]})),
    "string-n": (("inspect",), square4_with_string_n()),
    "zero-n": (("inspect",), square4_with("n", 0)),
    "negative-n": (("inspect",), json.dumps({"n": -1, "internal": [], "edges": [], "rotation": {}})),
    # more boundary vertices than edges; building the graph would take O(n)
    "huge-n": (("inspect",), json.dumps({"n": 10**9, "internal": [], "edges": [], "rotation": {}})),
    # deeper than the JSON decoder recurses
    "deep-nesting": (("inspect",), "[" * 100_000),
    "deep-nesting-matrix": (("twist", "--right"), "[" * 100_000),
    "deep-nesting-weights": (("measure", "square4"), "[" * 100_000),
    "deep-nesting-script": (("move", "square4"), "[" * 100_000),
    "int-vertex-id": (("inspect",), square4_with_vertex_id(7)),
    "bool-vertex-id": (("verify",), square4_with_vertex_id(True)),
    "list-edge-id": (("inspect",), square4_with("edge", ["x"])),
    "list-in-rotation": (("inspect",), square4_with("rotation-entry", ["x"])),
    "int-rotation": (("inspect",), square4_with("first-rotation", 5)),
    "int-rotation-map": (("inspect",), square4_with("rotation", 5)),
    "int-ends": (("inspect",), square4_with("ends", 5)),
    "int-edges": (("inspect",), square4_with("edges", 7)),
    "int-internal": (("inspect",), square4_with("internal", 3)),
    "string-internal-entry": (("inspect",), square4_with("internal-entry", "v1")),
    "list-graph": (("inspect",), json.dumps([4, []])),
    "list-weights": (("measure", "square4"), json.dumps([1, 2])),
    "int-rows": (("twist", "--right"), json.dumps({"rows": 5})),
    "int-row": (("mu",), json.dumps({"rows": [5]})),
    "list-matrix": (("twist", "--left"), json.dumps([[1, 0], [0, 1]])),
    "list-matrix-mu": (("mu",), json.dumps([[1, 0], [0, 1]])),
    "bool-in-matrix": (("twist", "--right"), json.dumps({"rows": [[True, 1]]})),
    "bool-in-matrix-mu": (("mu",), json.dumps({"rows": [[True, 1]]})),
    "int-move-script": (("move", "square4"), "5"),
    "int-move-step": (("move", "square4"), "[5]"),
    "expand-without-params": (("move", "square4"), json.dumps([{"kind": "expand", "site": "v1"}])),
    "string-bridge-site": (("move", "square4"), json.dumps([{"kind": "left-bridge", "site": "x"}])),
    "zero-trials": (("verify", "--trials", "0"), (FIXTURES / "square4.json").read_text()),
    "negative-trials": (("verify", "--trials", "-1"), (FIXTURES / "square4.json").read_text()),
    "negative-times": (("twist", "--right", "--times", "-3"), json.dumps({"rows": [[1, 0], [0, 1]]})),
    # square4 has n = 4 and k = 2
    "J-out-of-range": (("laurent", "--J", "1,9"), (FIXTURES / "square4.json").read_text()),
    "J-below-range": (("laurent", "--J", "0,2"), (FIXTURES / "square4.json").read_text()),
    "J-repeated": (("laurent", "--J", "1,1"), (FIXTURES / "square4.json").read_text()),
    "J-wrong-size": (("laurent", "--J", "1"), (FIXTURES / "square4.json").read_text()),
    "boundary-out-of-range": (("matchings", "--boundary", "1,9"), (FIXTURES / "square4.json").read_text()),
    "boundary-below-range": (("matchings", "--boundary", "0,2"), (FIXTURES / "square4.json").read_text()),
    "boundary-repeated": (("matchings", "--boundary", "1,1"), (FIXTURES / "square4.json").read_text()),
    "boundary-wrong-size": (("matchings", "--boundary", "1,2,3"), (FIXTURES / "square4.json").read_text()),
    "boundary-empty": (("matchings", "--boundary", ""), (FIXTURES / "square4.json").read_text()),
    "J-empty": (("laurent", "--J", ""), (FIXTURES / "square4.json").read_text()),
    # usage errors that argparse reports
    "bad-label-mode": (("labels", "--mode", "foo"), (FIXTURES / "square4.json").read_text()),
    "non-integer-trials": (("verify", "--trials", "x"), (FIXTURES / "square4.json").read_text()),
    "synth-without-perm": (("synth",), ""),
    "repeated-edge-id": (("inspect",), square4_edited(repeat_edge)),
    "ghost-rotation": (("inspect",), square4_edited(lambda p: p["rotation"].update(ghost=["nope"]))),
    "repeated-internal-id": (("inspect",), square4_edited(recolor_repeat)),
    "three-ends": (("inspect",), square4_edited(lambda p: p["edges"][4]["ends"].append("v3"))),
    "one-end": (("inspect",), square4_edited(lambda p: p["edges"][4]["ends"].pop())),
    "bad-color": (("inspect",), square4_edited(lambda p: p["internal"][0].update(color="red"))),
    # a second "v1" rotation ahead of the real one, and leg1 weighted twice
    "repeated-rotation-key": (
        ("inspect",),
        with_repeated_key((FIXTURES / "square4.json").read_text(), '"rotation": {', "v1", ["zzz"]),
    ),
    "repeated-weight": (("measure", "square4"), with_repeated_key(square4_weights(), "{", "leg1", "2")),
    "zero-denominator-twist": (("twist", "--right"), json.dumps({"rows": [["1/0", 1], [0, 1]]})),
    "zero-denominator-mu": (("mu",), json.dumps({"rows": [[1, "1/0"]]})),
    "zero-denominator-weight": (("measure", "square4"), square4_weights().replace('"1"', '"1/0"', 1)),
    # Fraction would build 10**999999999
    "huge-exponent-matrix": (("twist", "--right"), json.dumps({"rows": [["1e999999999", 1]]})),
    "huge-exponent-weight": (("measure", "square4"), square4_weights().replace('"1"', '"1e999999999"', 1)),
    "huge-exponent-bridge": (
        ("move", "square4"),
        json.dumps([{"kind": "left-bridge", "site": 1, "params": {"t": "1e999999999"}}]),
    ),
}

# the id that the one-line error must name
MALFORMED_NAMES = {
    "negative-n": -1,
    "huge-n": 10**9,
    "repeated-edge-id": "s12",
    "ghost-rotation": "ghost",
    "repeated-internal-id": "v1",
    "three-ends": "s12",
    "one-end": "s12",
    "bad-color": "v1",
    "repeated-rotation-key": "v1",
    "repeated-weight": "leg1",
    "bad-label-mode": "foo",
    "non-integer-trials": "x",
    "zero-denominator-twist": "1/0",
    "zero-denominator-mu": "1/0",
    "zero-denominator-weight": "1/0",
    "huge-exponent-matrix": "1e999999999",
    "huge-exponent-weight": "1e999999999",
    "huge-exponent-bridge": "1e999999999",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_code(tmp_path, case):
    (command, *flags), text = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    # the bad file comes first, except a weights file, which follows its graph,
    # a move script, which follows a graph and good weights, and synth, which
    # reads no file
    if command == "synth":
        args = list(flags)
    elif command == "measure":
        args = [*flags, str(bad)]
    elif command == "move":
        weights = tmp_path / "w.json"
        graph = json.loads((FIXTURES / f"{flags[0]}.json").read_text())
        weights.write_text(json.dumps({e["id"]: "1" for e in graph["edges"]}))
        args = [*flags, str(weights), "--spec", str(bad)]
    else:
        args = [str(bad), *flags]
    result = run_cli_result(command, *args, expect=1)
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1, result.stderr
    if case in MALFORMED_NAMES:
        assert repr(MALFORMED_NAMES[case]) in result.stderr, result.stderr


@pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
def test_help_exits_0(argv):
    assert run_cli(*argv).startswith("usage: positroids")


def test_internal_error_exit_code(monkeypatch, capsys):
    from positroids import cli

    def broken(*args, **kwargs):
        raise AssertionError("invariant broke")

    monkeypatch.setattr(cli, "verify_diagram", broken)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "square4"])
    assert exc.value.code == 3
    assert capsys.readouterr().err == "internal error: invariant broke\n"


def test_precondition_exit_code(tmp_path):
    m = {"rows": [["1", "2"], ["2", "4"]]}  # rank deficient
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(m))
    run_cli("twist", str(mpath), "--right", expect=2)


# text with the characters JSON escapes: quotes, backslashes, controls, non-ASCII
JSON_TEXT = st.text(st.characters() | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\U0001d11e"]))
PLAIN_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**40), 10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PLAIN_JSON)
def test_json_text_matches_json_dumps(payload):
    from positroids.fixtures import json_text

    assert json_text(payload) == json.dumps(payload, indent=1, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [1.5, {"a": (1, [2.0])}, {"x": [{2: "y", 1: None}]}, {True: 1}, [float("nan"), -0.0]],
    ids=["float", "tuple", "int-keys", "bool-key", "nan"],
)
def test_json_text_falls_back_to_json_dumps(payload):
    """There is no fallback: json_text refuses a payload that is not plain."""
    from positroids.fixtures import json_text

    with pytest.raises(TypeError):
        json_text(payload)


def test_regen_golden_rewrites_the_same_bytes(tmp_path):
    # the inspect goldens of the six fixtures, byte for byte, from the one writer
    from positroids import cli, fixtures

    with redirect_stdout(io.StringIO()):
        cli.main(["regen-golden", "--directory", str(tmp_path)])
    committed = {p.name: p for p in (ROOT / "tests" / "golden").glob("inspect_*.json")}
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(committed) == sorted(f"inspect_{name}.json" for name in fixtures.NAMES)
    for name in written:
        assert (tmp_path / name).read_bytes() == committed[name].read_bytes(), name


def test_regen_golden_outside_a_checkout_writes_nothing(tmp_path):
    # an installed package, two levels below a directory with no tests/ in it
    site = tmp_path / "lib" / "site-packages"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "positroids", site / "positroids", ignore=skip)
    before = sorted(tmp_path.rglob("*"))
    result = subprocess.run(
        [sys.executable, "-B", "-m", "positroids.cli", "regen-golden"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(site), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "--directory" in result.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_golden_inspect_outputs():
    # regenerating goldens is the regen-golden subcommand's job; CI compares
    golden_dir = ROOT / "tests" / "golden"
    for path in sorted(golden_dir.glob("inspect_*.json")):
        name = path.stem.removeprefix("inspect_")
        fresh = json.loads(run_cli("inspect", name))
        assert fresh == json.loads(path.read_text()), name


# ways to break a graph file: (kind, a, b) edits a field picked by a and b
FUZZ_KINDS = (
    "rename-vertex", "rename-edge", "recolor", "end", "rotation-shuffle",
    "rotation-drop", "rotation-key", "drop-vertex", "drop-edge", "n",
)


def fuzz_edit(payload, kind, a, b):
    """Apply one edit of the given kind to the graph payload in place."""
    vertices, edges, rotation = payload["internal"], payload["edges"], payload["rotation"]
    keys = sorted(rotation)
    entries = rotation[keys[a % len(keys)]] if keys else []
    if not (vertices and edges and entries):
        return  # an earlier edit emptied what this one would change
    if kind == "rename-vertex":
        vertices[a % len(vertices)]["id"] = ["v1", "w", 3, "", None][b % 5]
    elif kind == "rename-edge":
        edges[a % len(edges)]["id"] = [edges[b % len(edges)]["id"], "x", 0, ""][b % 4]
    elif kind == "recolor":
        vertices[a % len(vertices)]["color"] = ["white", "black", "red", 1][b % 4]
    elif kind == "end":
        ends = edges[a % len(edges)]["ends"]
        ends[b % 2] = [vertices[b % len(vertices)]["id"], b % 12, "ghost", True, [1]][a % 5]
    elif kind == "rotation-shuffle":
        entries.insert(b % len(entries), entries.pop(0))
    elif kind == "rotation-drop":
        del entries[b % len(entries)]
    elif kind == "rotation-key":
        rotation[["ghost", "1", keys[b % len(keys)] + "x"][a % 3]] = rotation.pop(keys[b % len(keys)])
    elif kind == "drop-vertex":
        del vertices[a % len(vertices)]
    elif kind == "drop-edge":
        del edges[a % len(edges)]
    else:
        payload["n"] += [-1, 1, -payload["n"]][a % 3]


def inspect_in_process(path):
    """(exit code, stderr) of ``inspect`` on the file, run in this process."""
    from positroids import cli

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            cli.main(["inspect", str(path)])
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["square4", "schubert36", "d4", "hex36", "chamber_s2s1s2"]),
    st.lists(st.tuples(st.sampled_from(FUZZ_KINDS), st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=3),
)
def test_mutated_graph_files_fail_in_one_line(tmp_path_factory, name, edits):
    payload = json.loads((FIXTURES / f"{name}.json").read_text())
    for kind, a, b in edits:
        fuzz_edit(payload, kind, a, b)
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(payload))
    code, err = inspect_in_process(path)
    # 0 valid, 1 malformed, 2 a failed precondition; never a traceback or exit 3
    assert code in (0, 1, 2), err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
