import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_cli(*args, expect=0):
    return run_cli_result(*args, expect=expect).stdout


def run_cli_result(*args, expect):
    env_path = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "positroids.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
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


def test_laurent():
    out = json.loads(run_cli("laurent", str(FIXTURES / "d4.json"), "--J", "2,4,6,8"))
    assert len(out["terms"]) == 17


def square4_with_string_n():
    payload = json.loads((FIXTURES / "square4.json").read_text())
    payload["n"] = "4"
    return json.dumps(payload)


MALFORMED = {
    "not-json": (("inspect",), "not json"),
    "float-in-matrix": (("twist", "--right"), json.dumps({"rows": [[1.5, 2], [0, 1]]})),
    "string-n": (("inspect",), square4_with_string_n()),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_code(tmp_path, case):
    (command, *flags), text = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    result = run_cli_result(command, str(bad), *flags, expect=1)
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1, result.stderr


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


def test_fixture_files_match_builders():
    from positroids import fixtures

    for name, builder in fixtures.BUILDERS.items():
        on_disk = json.loads((FIXTURES / f"{name}.json").read_text())
        assert on_disk == builder().to_json(), name


def test_golden_inspect_outputs():
    # regenerating goldens is the regen-golden subcommand's job; CI compares
    golden_dir = ROOT / "tests" / "golden"
    for path in sorted(golden_dir.glob("inspect_*.json")):
        name = path.stem.removeprefix("inspect_")
        fresh = json.loads(run_cli("inspect", name))
        assert fresh == json.loads(path.read_text()), name
