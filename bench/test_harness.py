"""Self-test of the benchmark harness: tracing changes no output and every
wrapped binding is restored afterwards.

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, source_functions  # noqa: E402


def bindings() -> dict:
    """Every module global and class attribute of the loaded program."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != run.PACKAGE and not name.startswith(run.PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, entry in vars(value).items():
                    out[(name, attr, member)] = entry
    return out


@pytest.fixture(scope="module")
def program():
    return run.import_program(ROOT / "src")


def test_traced_stdout_equals_untraced_and_bindings_are_restored(program, tmp_path):
    plans = [inputs.build(w, program, 0, tmp_path / w) for w in inputs.WORKLOAD_NAMES]
    # the big top cells add seconds and no coverage
    selected = [op for plan in plans for op in plan.cycle if op.family != "verify-top-cell"]
    before = bindings()
    plain = [ops.execute(program, op.argv) for op in selected]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [ops.execute(program, op.argv) for op in selected]
    finally:
        tracer.uninstall()
    assert all(o.code == 0 for o in plain + traced)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert len(tracer.span_name) > 0 and "cli.main" in tracer.names


def test_every_binding_of_a_function_is_wrapped(program):
    originals = {
        "cli": program.cli.enumerate_matchings,
        "measurement": program.measurement.enumerate_matchings,
        "matchings": program.matchings.enumerate_matchings,
    }
    faces = vars(program.plabic.PlabicGraph)["faces"]
    from_json = vars(program.plabic.PlabicGraph)["from_json"]
    tracer = Tracer()
    tracer.install()
    try:
        for module, original in originals.items():
            assert getattr(program, module).enumerate_matchings is not original
        assert vars(program.plabic.PlabicGraph)["faces"] is not faces
        assert isinstance(vars(program.plabic.PlabicGraph)["from_json"], classmethod)
        assert vars(program.plabic.PlabicGraph)["from_json"] is not from_json
    finally:
        tracer.uninstall()
    assert program.cli.enumerate_matchings is originals["cli"]
    assert vars(program.plabic.PlabicGraph)["faces"] is faces


def test_every_metric_source_is_a_wrapped_function(program):
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.unwrapped() == []
    assert source_functions() <= tracer._ids.keys()


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(LAYER_METRICS)
    for m in declared:
        unit, better, _ = LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better), m["name"]
