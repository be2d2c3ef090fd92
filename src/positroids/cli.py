"""Command-line front end.

Every subcommand prints a deterministic JSON payload on stdout.  Exit codes:
0 success, 1 malformed input, 2 a mathematical precondition failed (with a
witness in the error message), 3 an internal invariant broke (a bug).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .core import BoundedAffinePermutation, length
from .errors import PreconditionError
from .linalg import RationalMatrix, as_fraction, double_twist_mu, twist
from .matchings import enumerate_matchings, graph_positroid, matching_boundary
from .measurement import measure, twisted_pluecker_laurent, verify_diagram
from .moves import Move, apply_move, synthesize
from .plabic import GraphError, PlabicGraph


def load_graph(path: str) -> PlabicGraph:
    if not Path(path).exists() and not any(ch in path for ch in "/\\."):
        try:
            return fixtures.load(path)
        except FileNotFoundError:
            pass
    payload = json.loads(Path(path).read_text())
    return PlabicGraph.from_json(payload)


def load_matrix(path: str) -> RationalMatrix:
    return RationalMatrix.from_json(json.loads(Path(path).read_text()))


def load_weights(path: str) -> dict:
    payload = json.loads(Path(path).read_text())
    return {e: as_fraction(v) for e, v in payload.items()}


def parse_subset(text: str) -> tuple:
    return tuple(sorted(int(x) for x in text.split(",") if x.strip()))


def emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def cmd_inspect(args) -> None:
    g = load_graph(args.graph)
    payload = inspect_payload(g)
    if args.dot:
        payload["dot"] = to_dot(g)
    emit(payload)


def to_dot(g: PlabicGraph) -> str:
    lines = ["graph plabic {"]
    for i in g.boundary_vertices():
        lines.append(f'  b{i} [shape=plaintext, label="{i}"];')
    for v, c in sorted(g.colors.items()):
        fill = "white" if c == "white" else "black"
        lines.append(f'  "{v}" [shape=circle, style=filled, fillcolor={fill}, label=""];')
    for e, (u, w) in sorted(g.edges.items()):
        uu = f"b{u}" if g.is_boundary(u) else f'"{u}"'
        ww = f"b{w}" if g.is_boundary(w) else f'"{w}"'
        lines.append(f'  {uu} -- {ww} [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_matchings(args) -> None:
    g = load_graph(args.graph)
    boundary = parse_subset(args.boundary) if args.boundary else None
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
    z = load_weights(args.weights)
    p = measure(g, z)
    emit({"n": p.n, "k": p.k, "pluecker": p.to_json()})


def cmd_labels(args) -> None:
    g = load_graph(args.graph)
    if not g.is_reduced()[0]:
        raise PreconditionError("face labels need a reduced graph")
    emit({f: list(l) for f, l in g.face_labels(args.mode).items()})


def cmd_twist(args) -> None:
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
    z = load_weights(args.weights)
    script = json.loads(Path(args.spec).read_text())
    notes = []
    for step in script:
        move = Move(step["kind"], step.get("site"), step.get("params"))
        result = apply_move(g, z, move)
        g, z = result.graph, result.weights
        notes.append(
            {k: str(v) for k, v in (result.note or {}).items()}
        )
    emit(
        {
            "graph": g.to_json(),
            "weights": {e: str(v) for e, v in sorted(z.items())},
            "notes": notes,
        }
    )


def cmd_laurent(args) -> None:
    g = load_graph(args.graph)
    J = parse_subset(args.subset)
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
    paths = fixtures.write_fixture_files(args.directory)
    golden_dir = (Path(args.directory) if args.directory else fixtures.FIXTURE_DIR.parent / "tests" / "golden")
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(fixtures.BUILDERS):
        if name == "tri6":
            continue  # its positroid enumeration is deliberately not cheap
        payload = inspect_payload(fixtures.load(name))
        path = golden_dir / f"inspect_{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    emit({"written": [str(p) for p in paths]})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="positroids",
        description="plabic graphs, matchings, boundary measurement and the twist",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="structure, permutation, labels, checks")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("matchings", help="enumerate matchings")
    p.add_argument("graph")
    p.add_argument("--boundary", default=None)
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("measure", help="boundary measurement of a weighting")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("labels", help="face labels")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["source", "target"], required=True)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("twist", help="left/right twist of a matrix")
    p.add_argument("matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--left", action="store_true")
    group.add_argument("--right", action="store_true")
    p.add_argument("--times", type=int, default=1)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("mu", help="the double-twist monomial map")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("verify", help="main-theorem diagram checks")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="reduced graph from a bounded affine permutation")
    p.add_argument("--perm", required=True, help="window values pi(1),...,pi(n)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("move", help="apply a move script")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("laurent", help="twisted Plucker as a matching sum")
    p.add_argument("graph")
    p.add_argument("--J", dest="subset", required=True)
    p.set_defaults(func=cmd_laurent)

    p = sub.add_parser("regen-golden", help="rewrite the fixture JSON files")
    p.add_argument("--directory", default=None)
    p.set_defaults(func=cmd_regen_golden)

    args = parser.parse_args(argv)
    try:
        args.func(args)
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
