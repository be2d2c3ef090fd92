"""A tracer installed from outside the program.

``Tracer.install`` replaces every binding of every public ``positroids``
function with a timing wrapper: module globals (including the copies that
``from .x import f`` makes in other modules and the package's re-exports) and
the methods on each class.  ``uninstall`` puts every original object back.

Each call records a span (name, start, end, parent span, op id) into compact
in-memory arrays, written out by ``dump`` when the run ends.  The functions
in ``AGGREGATE_ONLY`` run up to hundreds of thousands of times per op; they
get counts and times but no span records, which bounds memory.  Self time is
exact either way: every wrapped call, recorded or not, subtracts its duration
from its caller's self time.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from array import array
from pathlib import Path

PACKAGE = "positroids"

# dunder methods that do real work; dataclass-generated ones are skipped
WORK_DUNDERS = ("__init__", "__post_init__", "__call__", "__getitem__", "__eq__")

AGGREGATE_ONLY = frozenset(
    {
        "plabic.PlabicGraph.is_boundary",
        "plabic.PlabicGraph.boundary_vertices",
        "plabic.PlabicGraph.incident",
        "plabic.PlabicGraph.other_end",
        "plabic.PlabicGraph.pendant_edge",
        "matchings.matching_boundary",
        "measurement.monomial",
        "linalg.as_fraction",
        "linalg.det",
        "linalg.minor",
        "linalg.RationalMatrix.build",
        "linalg.RationalMatrix.column",
        "linalg.PlueckerVector.__getitem__",
        "core.BoundedAffinePermutation.__call__",
        "core.BoundedAffinePermutation.inverse_value",
        "core.cyclic_rank",
        "core.gale_key",
        "core.gale_leq",
        "core.ksubset",
    }
)

def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


# per-layer metric -> (unit, better, source); times and counts are per op.
# The sources name functions as module.qualname.
LAYER_METRICS = {
    "cli.load_s": ("s", "lower", _self("cli.load_graph", "cli.load_matrix", "cli.load_weights")),
    "cli.emit_s": ("s", "lower", _self("cli.emit")),
    "cli.output_bytes": ("bytes", "lower", ("counter", "output_bytes")),
    "plabic.graphs_built": ("count", "lower", _calls("plabic.PlabicGraph.__init__")),
    "plabic.init_s": ("s", "lower", _self("plabic.PlabicGraph.__init__", "plabic.PlabicGraph.from_json")),
    "plabic.faces_s": (
        "s",
        "lower",
        _self(
            "plabic.PlabicGraph.faces",
            "plabic.PlabicGraph.face_by_id",
            "plabic.PlabicGraph.boundary_face",
            "plabic.PlabicGraph.face_of_corner",
        ),
    ),
    "plabic.strands_s": (
        "s",
        "lower",
        _self("plabic.PlabicGraph.strands", "plabic.PlabicGraph.strand_from", "plabic.PlabicGraph.trip_permutation"),
    ),
    "plabic.reduced_s": ("s", "lower", _self("plabic.PlabicGraph.is_reduced", "plabic.PlabicGraph.require_reduced")),
    "plabic.labels_s": ("s", "lower", _self("plabic.PlabicGraph.face_labels")),
    "plabic.wedge_calls": ("count", "lower", _calls("plabic.PlabicGraph.downstream", "plabic.PlabicGraph.upstream")),
    "plabic.wedge_s": (
        "s",
        "lower",
        _self(
            "plabic.PlabicGraph.downstream",
            "plabic.PlabicGraph.upstream",
            "plabic.PlabicGraph.directly_downstream",
            "plabic.PlabicGraph.directly_upstream",
        ),
    ),
    "plabic.pendant_edge_calls": ("count", "lower", _calls("plabic.PlabicGraph.pendant_edge")),
    "plabic.incident_calls": ("count", "lower", _calls("plabic.PlabicGraph.incident")),
    "plabic.self_s": ("s", "lower", ("layer", "plabic")),
    "core.positroid_s": (
        "s",
        "lower",
        _self(
            "core.positroid_from_necklace",
            "core.Positroid.__post_init__",
            "core.Positroid.forward_necklace",
            "core.Positroid.reverse_necklace",
            "core.Positroid.perm",
        ),
    ),
    "core.necklace_s": (
        "s",
        "lower",
        _self(
            "core.necklace_from_bases",
            "core.necklace_from_perm",
            "core.perm_from_necklace",
            "core.GrassmannNecklace.__post_init__",
            "core.GrassmannNecklace.element",
            "core.GrassmannNecklace.check",
        ),
    ),
    "core.self_s": ("s", "lower", ("layer", "core")),
    "moves.apply_move_calls": ("count", "lower", _calls("moves.apply_move")),
    "moves.apply_move_s": (
        "s",
        "lower",
        _self(
            "moves.apply_move",
            "moves.contract",
            "moves.expand",
            "moves.remove_boundary_vertex",
            "moves.add_boundary_vertex",
            "moves.urban_renewal",
            "moves.add_lollipop",
            "moves.add_bridge",
        ),
    ),
    "moves.synthesize_s": ("s", "lower", _self("moves.synthesize", "moves.synthesis_steps")),
    "moves.self_s": ("s", "lower", ("layer", "moves")),
    "matchings.enumerate_calls": ("count", "lower", _calls("matchings.enumerate_matchings")),
    "matchings.enumerate_s": ("s", "lower", _self("matchings.enumerate_matchings")),
    "matchings.listed": ("count", "lower", ("counter", "listed")),
    "matchings.filter_yield": ("ratio", "higher", ("ratio", "filtered_returned", "filtered_full")),
    "matchings.boundary_calls": ("count", "lower", _calls("matchings.matching_boundary")),
    "matchings.boundary_s": ("s", "lower", _self("matchings.matching_boundary")),
    "matchings.incidence_s": (
        "s",
        "lower",
        _self("matchings.incidence_data", "matchings.IncidenceData.block_products_are_identity"),
    ),
    "matchings.extremal_s": ("s", "lower", _self("matchings.extremal_matching")),
    "matchings.self_s": ("s", "lower", ("layer", "matchings")),
    "measurement.measure_s": ("s", "lower", _self("measurement.measure")),
    "measurement.monomial_calls": ("count", "lower", _calls("measurement.monomial")),
    "measurement.monomial_s": ("s", "lower", _self("measurement.monomial")),
    "measurement.matrix_from_pluecker_s": ("s", "lower", _self("measurement.matrix_from_pluecker")),
    "measurement.face_maps_s": ("s", "lower", _self("measurement.face_pluecker", "measurement.monomial_map")),
    "measurement.boundary_partial_s": ("s", "lower", _self("measurement.boundary_partial")),
    "measurement.laurent_s": (
        "s",
        "lower",
        _self("measurement.twisted_pluecker_laurent", "measurement.LaurentTerm.evaluate"),
    ),
    "measurement.laurent_terms": ("count", "lower", ("counter", "laurent_terms")),
    "measurement.self_s": ("s", "lower", ("layer", "measurement")),
    "linalg.pluecker_s": ("s", "lower", _self("linalg.pluecker")),
    "linalg.minor_calls": ("count", "lower", _calls("linalg.minor")),
    "linalg.det_s": ("s", "lower", _self("linalg.det")),
    "linalg.rank_calls": ("count", "lower", _calls("linalg.rank")),
    "linalg.rank_s": ("s", "lower", _self("linalg.rank")),
    "linalg.necklace_s": ("s", "lower", _self("linalg.matrix_necklace")),
    "linalg.twist_s": ("s", "lower", _self("linalg.twist")),
    "linalg.mu_s": ("s", "lower", _self("linalg.double_twist_mu")),
    "linalg.max_entry_bits": ("bits", "lower", ("max", "max_entry_bits")),
    "linalg.self_s": ("s", "lower", ("layer", "linalg")),
    "chamber.factorization_s": ("s", "lower", _self("chamber.factorization_parameters")),
    "trace.overhead_ratio": ("ratio", "lower", ("given", "overhead_ratio")),
}


# functions whose results feed a counter -> the Tracer method that reads them
OBSERVERS = {
    "matchings.enumerate_matchings": "_observe_enumerate",
    "measurement.twisted_pluecker_laurent": "_observe_laurent",
    "linalg.pluecker": "_observe_bits",
    "linalg.twist": "_observe_bits",
    "linalg.double_twist_mu": "_observe_bits",
}


def source_functions() -> set[str]:
    """Every function that a metric, an observer or AGGREGATE_ONLY names."""
    names = set(AGGREGATE_ONLY) | set(OBSERVERS)
    for _, _, (kind, *rest) in LAYER_METRICS.values():
        if kind in ("self", "calls"):
            names.update(rest[0])
    return names


def _entry_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {
            "output_bytes": 0,
            "listed": 0,
            "filtered_returned": 0,
            "filtered_full": 0,
            "laurent_terms": 0,
            "max_entry_bits": 0,
        }
        self.op = -1
        self._stack = [[0.0, -1]]  # frames of [child time, recorded span index]
        self._patches: list[tuple] = []
        self._full_counts = weakref.WeakKeyDictionary()  # graph -> matchings count

    # -- observers of results -----------------------------------------------

    def _observe_enumerate(self, args, kwargs, result):
        graph = args[0]
        boundary = args[1] if len(args) > 1 else kwargs.get("boundary")
        self.counters["listed"] += len(result)
        if boundary is None:
            self._full_counts[graph] = len(result)
        elif graph in self._full_counts:
            self.counters["filtered_returned"] += len(result)
            self.counters["filtered_full"] += self._full_counts[graph]

    def _observe_laurent(self, args, kwargs, result):
        self.counters["laurent_terms"] += len(result)

    def _observe_bits(self, args, kwargs, result):
        if hasattr(result, "coords"):
            bits = _entry_bits(result.coords.values())
        else:
            bits = _entry_bits(x for row in result.rows for x in row)
        if bits > self.counters["max_entry_bits"]:
            self.counters["max_entry_bits"] = bits

    def _observer(self, name):
        return getattr(self, OBSERVERS[name]) if name in OBSERVERS else None

    # -- wrapping -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        observe = self._observer(name)

        if name in AGGREGATE_ONLY:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    calls[nid] += 1
                    total[nid] += elapsed
                    self_time[nid] += elapsed - frame[0]

            return wrapper

        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1][1])
            ops.append(self.op)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[nid] += 1
                total[nid] += elapsed
                self_time[nid] += elapsed - frame[0]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every binding of every public function of the loaded package."""
        modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper), one wrapper per function

        def wrapper_for(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, name))
            return wrapped[id(fn)][1]

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(value, wrapper_for)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if _is_package_function(value) and not value.__name__.startswith("_"):
                    short = value.__module__[len(PACKAGE) + 1 :]
                    self._patch(module, attr, value, wrapper_for(value, f"{short}.{value.__qualname__}"))

    def _install_class(self, cls, wrapper_for) -> None:
        short = cls.__module__[len(PACKAGE) + 1 :]
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WORK_DUNDERS:
                continue
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not _is_package_function(fn):
                continue
            wrapper = wrapper_for(fn, f"{short}.{fn.__qualname__}")
            if isinstance(value, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(value, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patch(cls, attr, value, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def unwrapped(self) -> list[str]:
        """Source functions that install found nowhere; their metrics read 0."""
        return sorted(n for n in source_functions() if n not in self._ids)

    def _sum(self, kind: str, names) -> float:
        series = self.calls if kind == "calls" else self.self_time
        return sum(series[self._ids[n]] for n in names if n in self._ids)

    def layer_metrics(self, ops: int, overhead_ratio: float) -> dict:
        """Every per-layer metric; times and counts are means per op."""
        out = {}
        for metric, (unit, _, source) in LAYER_METRICS.items():
            kind = source[0]
            if kind in ("self", "calls"):
                value = self._sum(kind, source[1]) / ops
            elif kind == "layer":
                prefix = source[1] + "."
                value = sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix)) / ops
            elif kind == "counter":
                value = self.counters[source[1]] / ops
            elif kind == "ratio":
                base = self.counters[source[2]]
                value = self.counters[source[1]] / base if base else 0.0
            elif kind == "max":
                value = self.counters[source[1]]
            else:
                value = overhead_ratio
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header beside five raw arrays in native byte order."""
        arrays = (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "layout": [["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "names": self.names,
            "aggregate_only": sorted(AGGREGATE_ONLY),
            "functions": {
                n: {"calls": c, "total_s": t, "self_s": s}
                for n, c, t, s in zip(self.names, self.calls, self.total, self.self_time)
            },
        }
        path.write_text(json.dumps(header, indent=1) + "\n")


def _is_package_function(value) -> bool:
    return (
        inspect.isfunction(value)
        and (value.__module__ or "").startswith(PACKAGE + ".")
        and value.__code__.co_filename.endswith(".py")
    )
