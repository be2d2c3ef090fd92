"""Running one op in-process and checking its output.

An op is a CLI argv handed to ``positroids.cli.main`` with stdout and stderr
captured, except the ``chamber`` op, which has no subcommand and calls
``chamber.factorization_parameters`` on a matrix file instead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from pathlib import Path
from typing import NamedTuple


class Outcome(NamedTuple):
    seconds: float
    code: int  # the exit code; -1 for an uncaught exception
    stdout: str
    stderr: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def _load_matrix(mods, path: str):
    return mods.linalg.RationalMatrix.from_json(json.loads(Path(path).read_text()))


def _chamber(mods, argv) -> None:
    word = [int(x) for x in argv[1].split(",")]
    _, ts, ds = mods.chamber.factorization_parameters(word, _load_matrix(mods, argv[2]))
    print(json.dumps({"d": [str(d) for d in ds], "t": [str(t) for t in ts]}))


def execute(mods, argv) -> Outcome:
    """Run one op; only the call itself is inside the timed window."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if argv[0] == "chamber":
                _chamber(mods, argv)
            else:
                mods.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash is a failed op, not a failed benchmark
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue())


# -- mathematical checks, run outside the timed region ---------------------


def _graph(mods, payload):
    return mods.plabic.PlabicGraph.from_json(payload)


def _check_verify(mods, argv, out) -> bool:
    return out["all_passed"] is True


def _check_twist(mods, argv, out) -> bool:
    """The opposite twist, applied as many times, returns the input."""
    times = int(argv[argv.index("--times") + 1]) if "--times" in argv else 1
    back = "left" if "--right" in argv else "right"
    m = mods.linalg.RationalMatrix.from_json(out)
    for _ in range(times):
        m = mods.linalg.twist(m, back)
    return m == _load_matrix(mods, argv[1])


def _check_synth(mods, argv, out) -> bool:
    want = tuple(int(x) for x in argv[argv.index("--perm") + 1].split(","))
    return _graph(mods, out).trip_permutation().values == want


def _check_move(mods, argv, out) -> bool:
    """The script preserves the boundary measurement."""
    measure, as_fraction = mods.measurement.measure, mods.linalg.as_fraction
    before = _graph(mods, json.loads(Path(argv[1]).read_text()))
    weights = {e: as_fraction(v) for e, v in json.loads(Path(argv[2]).read_text()).items()}
    after_weights = {e: as_fraction(v) for e, v in out["weights"].items()}
    return measure(before, weights) == measure(_graph(mods, out["graph"]), after_weights)


def _check_inspect(mods, argv, out) -> bool:
    return out["reduced"] is True and out["euler_ok"] is True and out["face_count_ok"] is True


def _check_chamber(mods, argv, out) -> bool:
    """E_{i1}(t1) ... E_{il}(tl) D(d1..dn), from the printed t and d, is the input."""
    chamber, as_fraction = mods.chamber, mods.linalg.as_fraction
    word = [int(x) for x in argv[1].split(",")]
    matrix = _load_matrix(mods, argv[2])
    ts = [as_fraction(t) for t in out["t"]]
    product = chamber.diagonal([as_fraction(d) for d in out["d"]])
    for letter, t in reversed(list(zip(word, ts, strict=True))):
        product = chamber.matmul(chamber.elementary(matrix.k, letter, t), product)
    return product == matrix


CHECKS = {
    "verify": _check_verify,
    "twist": _check_twist,
    "synth": _check_synth,
    "move": _check_move,
    "inspect": _check_inspect,
    "chamber": _check_chamber,
}


def check(mods, argv, stdout: str) -> str | None:
    """None if the op's output passes its mathematical check, else the reason."""
    checker = CHECKS.get(argv[0])
    if checker is None:  # labels and mu: the digest is the whole check
        return None
    try:
        ok = checker(mods, argv, json.loads(stdout))
    except Exception as exc:  # a malformed output fails the check
        return f"{argv[0]} check raised {exc!r}"
    return None if ok else f"{argv[0]} check failed"
