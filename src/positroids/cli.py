"""Command-line front end.

Every subcommand prints a deterministic JSON payload on stdout.  Exit codes:
0 success, 1 malformed input (argument usage errors too, each on one
``error:`` line), 2 a mathematical precondition failed (with a
witness in the error message), 3 an internal invariant broke (a bug).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fixtures
from .core import BoundedAffinePermutation, ksubset, length
from .errors import PreconditionError, json_shape
from .linalg import RationalMatrix, as_fraction, double_twist_mu, twist
from .matchings import enumerate_matchings, graph_positroid, matching_boundary
from .measurement import measure, twisted_pluecker_laurent, verify_diagram
from .moves import Move, run_script, synthesize
from .plabic import GraphError, PlabicGraph


def load_graph(path: str) -> PlabicGraph:
    if not Path(path).exists() and not any(ch in path for ch in "/\\."):
        try:
            return fixtures.load(path)
        except FileNotFoundError:
            pass
    return PlabicGraph.from_json(read_json(path))


def read_json(path: str):
    """The JSON value in the file; an object that repeats a key is malformed
    input, not one whose last value silently wins."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{path} nests JSON too deeply to read") from None


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} is repeated in a JSON object")
        out[key] = value
    return out


def load_matrix(path: str) -> RationalMatrix:
    return RationalMatrix.from_json(read_json(path))


def load_weights(path: str, graph: PlabicGraph) -> dict:
    payload = json_shape(read_json(path), dict, "a weights file")
    unknown = sorted(payload.keys() - graph.edges.keys())
    if unknown:
        raise ValueError(f"the weights file names edge {unknown[0]!r}, which the graph lacks")
    return {e: as_fraction(v) for e, v in payload.items()}


def parse_subset(graph: PlabicGraph, text: str) -> tuple:
    """The sorted subset that the text lists, which must be a k-subset of [n]."""
    subset = ksubset((int(x) for x in text.split(",") if x.strip()), graph.n)
    if len(subset) != graph.k:
        raise ValueError(f"subset {text!r} has {len(subset)} elements, not k = {graph.k}")
    return subset


def emit(payload) -> None:
    """The payload as indented JSON with sorted keys, in one write."""
    sys.stdout.write(fixtures.json_text(payload) + "\n")


def cmd_inspect(args) -> None:
    g = load_graph(args.graph)
    payload = inspect_payload(g)
    if args.dot:
        payload["dot"] = to_dot(g)
    emit(payload)


def to_dot(g: PlabicGraph) -> str:
    node = {v: _dot_string(v) for v in g.colors}
    lines = ["graph plabic {"]
    for i in g.boundary_vertices():
        node[i] = f"b{i}"
        while node[i] in g.colors:  # DOT reads b1 and "b1" as one node
            node[i] += "_"
        lines.append(f'  {node[i]} [shape=plaintext, label="{i}"];')
    for v, c in sorted(g.colors.items()):
        lines.append(f'  {node[v]} [shape=circle, style=filled, fillcolor={c}, label=""];')
    for e, (u, w) in sorted(g.edges.items()):
        lines.append(f'  {node[u]} -- {node[w]} [label={_dot_string(e)}];')
    lines.append("}")
    return "\n".join(lines)


def _dot_string(text: str) -> str:
    """A quoted DOT string; ids may hold any character."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_matchings(args) -> None:
    g = load_graph(args.graph)
    boundary = None if args.boundary is None else parse_subset(g, args.boundary)
    ms = enumerate_matchings(g, boundary)
    emit(
        {
            "count": len(ms),
            "matchings": [
                {"edges": sorted(m), "boundary": list(matching_boundary(g, m))}
                for m in ms
            ],
        }
    )


def cmd_measure(args) -> None:
    g = load_graph(args.graph)
    p = measure(g, load_weights(args.weights, g))
    emit({"n": p.n, "k": p.k, "pluecker": p.to_json()})


def cmd_labels(args) -> None:
    g = load_graph(args.graph)
    emit({f: list(l) for f, l in g.face_labels(args.mode).items()})


def cmd_twist(args) -> None:
    if args.times < 0:
        raise ValueError(f"--times must be at least 0, got {args.times}")
    m = load_matrix(args.matrix)
    direction = "left" if args.left else "right"
    for _ in range(args.times):
        m = twist(m, direction)
    emit(m.to_json())


def cmd_mu(args) -> None:
    m = load_matrix(args.matrix)
    emit(double_twist_mu(m).to_json())


def cmd_verify(args) -> None:
    g = load_graph(args.graph)
    report = verify_diagram(g, seed=args.seed, trials=args.trials)
    emit({"report": report, "all_passed": all(r["status"] == "pass" for r in report)})


def cmd_synth(args) -> None:
    values = tuple(int(x) for x in args.perm.split(","))
    pi = BoundedAffinePermutation(values)
    g = synthesize(pi)
    emit(g.to_json())


def cmd_move(args) -> None:
    g = load_graph(args.graph)
    g, z, notes = run_script(g, load_weights(args.weights, g), _script(args.spec))
    emit(
        {
            "graph": g.to_json(),
            "weights": {e: str(v) for e, v in sorted(z.items())},
            "notes": [{k: str(v) for k, v in (note or {}).items()} for note in notes],
        }
    )


def _script(path: str):
    """The moves of a ``move --spec`` file.  A generator: the file is read
    after ``run_script`` has checked the weighting, and each step's shape is
    checked when its turn comes, after the steps before it have run."""
    for step in json_shape(read_json(path), list, "a move script"):
        step = json_shape(step, dict, "a move step")
        yield Move(step["kind"], step.get("site"), step.get("params"))


def cmd_laurent(args) -> None:
    g = load_graph(args.graph)
    J = parse_subset(g, args.subset)
    terms = twisted_pluecker_laurent(g, J)
    emit(
        {
            "J": list(J),
            "terms": [
                {
                    "matching": sorted(t.matching),
                    "exponents": {f: x for f, x in sorted(t.exponents.items()) if x},
                }
                for t in terms
            ],
        }
    )


def inspect_payload(graph: PlabicGraph) -> dict:
    reduced, witness = graph.is_reduced()
    pi = graph.trip_permutation()
    pos = graph_positroid(graph)
    payload = {
        "n": graph.n,
        "k": graph.k,
        "vertices": len(graph.colors),
        "edges": len(graph.edges),
        "faces": len(graph.faces()),
        "euler_ok": len(graph.faces()) + len(graph.colors) == len(graph.edges) + 1,
        "reduced": reduced,
        "trip_permutation": list(pi.values),
        "length": length(pi),
        "forward_necklace": [list(e) for e in pos.forward_necklace().elements],
        "reverse_necklace": [list(e) for e in pos.reverse_necklace().elements],
        "positroid_size": len(pos.bases),
    }
    if reduced:
        payload["face_count_ok"] = len(graph.faces()) == graph.k * (graph.n - graph.k) - length(pi) + 1
        payload["source_labels"] = {f: list(l) for f, l in graph.face_labels("source").items()}
        payload["target_labels"] = {f: list(l) for f, l in graph.face_labels("target").items()}
    else:
        payload["witness"] = witness
    return payload


def cmd_regen_golden(args) -> None:
    """Rewrite the ``inspect`` golden of each fixture; by default into the
    ``tests/golden`` of the checkout that holds the package, if it has ``tests``."""
    tests = Path(__file__).resolve().parents[2] / "tests"
    if not (args.directory or tests.is_dir()):
        raise ValueError(f"{tests} is not a checkout's tests directory; name one with --directory")
    golden_dir = Path(args.directory or tests / "golden")
    golden_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(fixtures.NAMES):
        payload = inspect_payload(fixtures.load(name))
        path = golden_dir / f"inspect_{name}.json"
        path.write_text(fixtures.json_text(payload) + "\n")
        paths.append(path)
    emit({"written": [str(p) for p in paths]})


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: one ``error:`` line and exit 1,
    not argparse's usage message and exit 2, the precondition code.  The
    subcommand parsers are of this class too."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    It holds no handler: ``main`` looks up ``cmd_<command>`` at call time."""
    parser = _Parser(
        prog="positroids",
        description="plabic graphs, matchings, boundary measurement and the twist",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="structure, permutation, labels, checks")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("matchings", help="enumerate matchings")
    p.add_argument("graph")
    p.add_argument("--boundary", default=None)

    p = sub.add_parser("measure", help="boundary measurement of a weighting")
    p.add_argument("graph")
    p.add_argument("weights")

    p = sub.add_parser("labels", help="face labels")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["source", "target"], required=True)

    p = sub.add_parser("twist", help="left/right twist of a matrix")
    p.add_argument("matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--left", action="store_true")
    group.add_argument("--right", action="store_true")
    p.add_argument("--times", type=int, default=1)

    p = sub.add_parser("mu", help="the double-twist monomial map")
    p.add_argument("matrix")

    p = sub.add_parser("verify", help="main-theorem diagram checks")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)

    p = sub.add_parser("synth", help="reduced graph from a bounded affine permutation")
    p.add_argument("--perm", required=True, help="window values pi(1),...,pi(n)")

    p = sub.add_parser("move", help="apply a move script")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--spec", required=True)

    p = sub.add_parser("laurent", help="twisted Plucker as a matching sum")
    p.add_argument("graph")
    p.add_argument("--J", dest="subset", required=True)

    p = sub.add_parser("regen-golden", help="rewrite the inspect goldens of the fixtures")
    p.add_argument("--directory", default=None)

    return parser


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        handler(args)
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        sys.exit(3)
    except (GraphError, PreconditionError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
