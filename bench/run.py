"""Benchmark of the positroids CLI: seeded inputs, in-process ops, traced layers.

Run from the repository root:

    python3 bench/run.py --workload diagram --seed 1 --seconds 20 --trace 0

``--workload`` is ``diagram``, ``twist``, ``structure`` or ``all``.  The load
is a closed loop in one process and one thread: each op calls
``positroids.cli.main(argv)`` only after the previous op has returned.  Ops
run in whole cycles of the seed's op list until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced pass that repeats
an untraced pass op for op.  Every op is checked against the reference stdout
digest and, outside the timed region, by a mathematical check.  The exit
code is 1 if any check failed and 2 if the program cannot be loaded.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer  # noqa: E402

PACKAGE = "positroids"
MODULES = ("core", "plabic", "matchings", "linalg", "measurement", "moves", "chamber", "fixtures", "cli")
WORK_DIR = ".bench_work"
SETUP_REPEATS = 9
# p90 must have at least ten samples beyond it
MIN_OPS = 100
REPORTED_FAILURES = 5
# ops_per_s and op_p50_ms are medians over this many windows of a run, so a
# burst of load from other tenants of the host that spans under half the
# run does not move them
WINDOWS = 5
HASH_SEED = "0"


def import_program(src: Path) -> SimpleNamespace:
    """A fresh import of every program module from ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {mods.cli.__file__}, not from {src}")
    return mods


class Pass:
    """Whole cycles of a plan's ops, run back to back and judged one by one."""

    def __init__(self, plan, mods, reference, outputs, tracer=None):
        self.latencies: list[float] = []
        self.failed: list[int] = []  # indices of failed executions
        self.reasons: list[str] = []
        self.cycle_ends: list[tuple[int, float]] = []  # (executions, wall) at each cycle's end
        self.wall = 0.0
        self._plan, self._mods = plan, mods
        self._want = {op: reference.get(plan.key(op)) for op in plan.cycle}
        self._outputs = outputs  # op -> stdout of its first successful run
        self._tracer = tracer

    def run(self, stop) -> "Pass":
        cycle, tracer = self._plan.cycle, self._tracer
        start = time.perf_counter()
        while True:
            for op in cycle:
                if tracer is not None:
                    tracer.op = len(self.latencies)
                outcome = ops.execute(self._mods, op.argv)
                self._judge(op, outcome)
            self.wall = time.perf_counter() - start
            self.cycle_ends.append((len(self.latencies), self.wall))
            if stop(self):
                return self

    @property
    def cycles(self) -> int:
        return len(self.cycle_ends)

    def windows(self) -> list[tuple[list[float], float]]:
        """(latencies, wall) of up to WINDOWS runs of whole consecutive cycles."""
        ends = [(0, 0.0)] + self.cycle_ends
        count = min(WINDOWS, self.cycles)
        cuts = [round(i * self.cycles / count) for i in range(count + 1)]
        return [
            (self.latencies[ends[a][0] : ends[b][0]], ends[b][1] - ends[a][1])
            for a, b in zip(cuts, cuts[1:])
        ]

    def _judge(self, op, outcome) -> None:
        index = len(self.latencies)
        self.latencies.append(outcome.seconds)
        if self._tracer is not None and op.argv[0] != "chamber":
            self._tracer.counters["output_bytes"] += len(outcome.stdout.encode())
        want = self._want[op]
        if outcome.code != 0:
            lines = outcome.stderr.strip().splitlines() or [""]
            reason = f"exit {outcome.code}: {lines[-1]}"
        elif want is None:
            reason = "no reference digest for this op"
        elif outcome.digest != want:
            reason = "stdout digest differs from the reference"
        else:
            self._outputs.setdefault(op, outcome.stdout)
            return
        self.failed.append(index)
        self.reasons.append(f"{' '.join(op.argv)}: {reason}")

    def executed(self):
        """The op of every execution, in order."""
        cycle = self._plan.cycle
        return (cycle[i % len(cycle)] for i in range(len(self.latencies)))


def math_failures(passes, outputs, mods) -> tuple[int, list[str]]:
    """Failed executions once each op's mathematical check has run."""
    bad = {}
    for op, stdout in outputs.items():
        reason = ops.check(mods, op.argv, stdout)
        if reason is not None:
            bad[op] = f"{' '.join(op.argv)}: {reason}"
    failed, reasons = 0, []
    for p in passes:
        already = set(p.failed)
        for i, op in enumerate(p.executed()):
            if i in already or op in bad:
                failed += 1
        reasons += p.reasons
    return failed, reasons + sorted(set(bad.values()))


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, reference: dict) -> dict:
    src = root / "src"
    workdir = root / WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting a file in place can wait
            # on the disk (ext4 flushes truncated-and-rewritten files on close)
            start = time.perf_counter()
            mods = import_program(src)
            plan = inputs.build(name, mods, seed, workdir / f"setup{repeat}")
            setup_times.append(time.perf_counter() - start)

        outputs: dict = {}
        tracer = None
        if trace:
            untraced = Pass(plan, mods, reference, outputs).run(lambda p: p.wall >= seconds / 3)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Pass(plan, mods, reference, outputs, tracer).run(lambda p: p.cycles >= untraced.cycles)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
        else:
            timed = Pass(plan, mods, reference, outputs).run(
                lambda p: p.wall >= seconds and len(p.latencies) >= MIN_OPS
            )
            passes = [timed]
        failed, reasons = math_failures(passes, outputs, mods)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "input_digest": plan.input_digest,
        "families": {f.name: f.why for f in inputs.families(name)},
        "cycle_ops": len(plan.cycle),
        "cycles": passes[-1].cycles,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "failures": reasons[:REPORTED_FAILURES],
        "setup_runs_s": setup_times,
    }
    if trace:
        overhead = traced.wall / untraced.wall
        result["metrics"] = tracer.layer_metrics(len(traced.latencies), overhead)
        result["unwrapped"] = tracer.unwrapped()
        # one file per workload, overwritten by its next traced run, so spans never pile up
        spans = root / WORK_DIR / "spans" / f"{name}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        result["spans"] = str(spans.relative_to(root))
    else:
        lat, windows = timed.latencies, timed.windows()
        p90 = statistics.quantiles(lat, n=10)[8]
        result["p90_samples"] = len(lat)
        result["p90_tail_samples"] = sum(1 for x in lat if x > p90)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": statistics.median(len(w) / wall for w, wall in windows), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(statistics.median(w) for w, _ in windows) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": p90 * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    return result


def describe(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"  inputs sha256:{result['input_digest']}  ({result['cycle_ops']} ops per cycle, {result['cycles']} cycles)")
    for family, why in result["families"].items():
        print(f"  family {family}: {why}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<38} {m['value']:>14.6g} {m['unit']}")
    if result.get("unwrapped"):
        print(f"  WARNING: never wrapped, so their metrics read 0: {', '.join(result['unwrapped'])}")
    if "p90_samples" in result:
        print(f"  op_p90_ms from {result['p90_samples']} samples, {result['p90_tail_samples']} beyond it")
    print(f"  failed_ops_ratio {result['failed_ops_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import_program(src)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["ops"]

    names = inputs.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root, reference) for n in names]
    for result in results:
        describe(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    # String hashing is randomized per process; it reorders set iteration,
    # and with it the order of Fraction products, which moves diagram by about
    # 5% between otherwise equal runs.  One fixed seed keeps runs comparable.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
