"""Record the benchmark's reference digests or its baseline numbers.

Run from the repository root, on the commit whose output is the reference:

    python3 bench/record.py references
    python3 bench/record.py baseline

``references`` runs every op of every input pool once, checks it, and writes
the stdout sha256 of each to ``bench/reference.json``.  ``baseline`` runs
``bench/run.py`` untraced on seeds 1..10 for every workload, then all of that
once more, then traced on seed 1 for each workload, all at the
``run_seconds`` of ``BENCHMARK.json``.  It writes the medians, quartiles and
spreads of both sets, and the shift between their medians, to
``bench/baseline.json``, and exits 1 if a shift or a spread (other than that
of ``setup_s``) is outside its metric's bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import ops  # noqa: E402
from run import WORK_DIR, import_program  # noqa: E402

RUN_TIMEOUT_S = 180
SEEDS = tuple(range(1, 11))


def record_references(root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    mods = import_program(root / "src")
    reference, failures = {}, []
    for name in inputs.WORKLOAD_NAMES:
        workdir = root / WORK_DIR / f"reference-{name}-{os.getpid()}"
        try:
            pool, digests = inputs.pool(name, mods, workdir)
            for op in pool:
                outcome = ops.execute(mods, op.argv)
                if outcome.code != 0:
                    reason = f"exit {outcome.code}: {outcome.stderr.strip()}"
                else:
                    reason = ops.check(mods, op.argv, outcome.stdout)
                if reason is None:
                    reference[inputs.op_key(op, digests)] = outcome.digest
                else:
                    failures.append(f"{' '.join(op.argv)}: {reason}")
            print(f"{name}: {len(pool)} pool ops")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if failures:
        return 1
    payload = {"ops": dict(sorted(reference.items()))}
    (BENCH_DIR / "reference.json").write_text(json.dumps(payload, indent=0) + "\n")
    print(f"wrote {len(reference)} reference digests")
    return 0


def _run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("inputs sha256:"))
    return json.loads(lines[-1]), digest.split(":", 1)[1]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def _measure_set(root: Path, workload: str, seconds: int) -> tuple[dict, dict]:
    """End-to-end summaries and input digests of untraced runs on SEEDS."""
    lines, digests = [], {}
    for seed in SEEDS:
        line, digests[seed] = _run(root, workload, seed, seconds, 0)
        lines.append(line)
    metrics = lines[0]["metrics"]
    summary = {
        m: {"unit": metrics[m]["unit"], **summarize([line["metrics"][m]["value"] for line in lines])}
        for m in metrics
    }
    return summary, digests


def record_baseline(root: Path) -> int:
    config = json.loads((root / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    declared = {m["name"]: m for m in config["end_to_end"]}
    baseline = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    # the whole first set runs before the repeat, so host drift between them shows as a shift
    sets = []
    for _ in range(2):
        sets.append({w: _measure_set(root, w, seconds) for w in inputs.WORKLOAD_NAMES})
    ok = True
    for workload in inputs.WORKLOAD_NAMES:
        (first, digests), (repeat, repeat_digests) = sets[0][workload], sets[1][workload]
        if repeat_digests != digests:
            raise RuntimeError(f"{workload}: the repeat saw other inputs than the first set")
        agreement = {}
        for metric, m in first.items():
            bound = declared[metric]["bound"]
            sign = 1 if declared[metric]["better"] == "lower" else -1
            shift = (repeat[metric]["median"] - m["median"]) / m["median"]
            spreads = (m["spread"], repeat[metric]["spread"])
            within = sign * shift <= bound and (metric == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            agreement[metric] = {"bound": bound, "shift": shift, "within": within}
            flag = "" if max(spreads) < bound / 3 else "  <-- spread above a third of the bound"
            flag += "" if within else "  <-- OUTSIDE THE BOUND"
            print(
                f"{workload:<10} {metric:<12} median {m['median']:.6g} -> {repeat[metric]['median']:.6g}"
                f" shift {shift:+.4f} spreads {spreads[0]:.4f} {spreads[1]:.4f}{flag}"
            )
        traced, _ = _run(root, workload, SEEDS[0], seconds, 1)
        baseline["workloads"][workload] = {
            "input_digests": digests,
            "end_to_end": first,
            "repeat": {"end_to_end": repeat, "agreement": agreement},
            f"per_layer_seed{SEEDS[0]}": traced["metrics"],
        }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    sub.add_parser("baseline")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.what == "references":
        return record_references(root)
    return record_baseline(root)


if __name__ == "__main__":
    sys.exit(main())
