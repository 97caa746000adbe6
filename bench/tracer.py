"""Outside-in layer trace of loopsing, installed from the benchmark's files.

The tracer replaces functions at each layer boundary with wrappers that
record a span (name, start, end, parent) per call, and counts constructions of
the exact-arithmetic values.  Spans stay in memory until the run ends.  A
function that another module bound with `from ... import` is replaced there
too: every loopsing module attribute that is the original function object is
swapped, which covers `loopsing.cli.main` importing `jet_coefficient` and the
`check_*` functions by name.  (`loopsing.cli.main`, read as an attribute,
is the function `main`; the module is reached through sys.modules.)
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Span name -> (module, attribute).  Private functions are traced where the
# work of a layer happens in them; a name the program no longer has is
# skipped, and its metrics then read zero.
FUNCTIONS = {
    "loopfun.jet": ("loopsing.loopfun", "_jet_of_poly"),
    "loopfun.jet_coefficient": ("loopsing.loopfun", "jet_coefficient"),
    "loopfun.lambda_of": ("loopsing.loopfun", "lambda_of"),
    "loopfun.support": ("loopsing.loopfun", "check_support_bound"),
    "loopfun.linearity": ("loopsing.loopfun", "check_top_linearity"),
    "loopfun.derivative": ("loopsing.loopfun", "check_derivative_identity"),
    "grobner.milnor_number": ("loopsing.grobner", "milnor_number"),
    "grobner.buchberger": ("loopsing.grobner", "buchberger"),
    "grobner.normal_form": ("loopsing.grobner", "normal_form"),
    "grobner.s_polynomial": ("loopsing.grobner", "s_polynomial"),
    "grobner.verify": ("loopsing.grobner", "_verify_basis"),
    "grobner.standard_monomials": ("loopsing.grobner", "standard_monomials"),
    "grobner.oracle": ("loopsing.grobner", "milnor_number_oracle"),
    "cohom.solve": ("loopsing.cohom", "solve_les_detailed"),
    "cohom.gysin_step": ("loopsing.cohom", "gysin_step"),
    "cohom.truncation": ("loopsing.cohom", "truncation_cohomology"),
    "cohom.renormalized": ("loopsing.cohom", "renormalized_nearby_cohomology"),
    "cohom.escape": ("loopsing.cohom", "escape_table"),
    "cli.run": ("loopsing.cli.main", "run"),
    "cli.parse": ("loopsing.cli.parser", "parse_function"),
    "cli.emit": ("loopsing.cli.parser", "loop_poly_string"),
}
# Span name -> (module, class, method).
METHODS = {"cli.render": ("loopsing.cli.report", "Report", "to_json")}
# Counter name -> (module, class) whose constructions are counted.
CONSTRUCTORS = {
    "exactalg.poly_new": ("loopsing.exactalg", "LoopPoly"),
    "exactalg.mono_new": ("loopsing.exactalg", "Monomial"),
}
# Counters fed from a traced function's return value.
RESULT_COUNTS = {
    "loopfun.jet": ("loopfun.jet_terms", len),
    "grobner.buchberger": ("grobner.basis_len", lambda gb: len(gb.elements)),
}

# Per-layer metric -> (kind, span or counter).  Times are self times: a
# span's duration minus the time covered by its child spans.
METRICS = {
    "loopfun.jet_calls": ("calls", "loopfun.jet"),
    "loopfun.jet_s": ("self", "loopfun.jet"),
    "loopfun.jet_terms": ("count", "loopfun.jet_terms"),
    "loopfun.lambda_s": ("self", "loopfun.lambda_of"),
    "loopfun.support_s": ("self", "loopfun.support"),
    "loopfun.linearity_s": ("self", "loopfun.linearity"),
    "loopfun.derivative_s": ("self", "loopfun.derivative"),
    "grobner.buchberger_calls": ("calls", "grobner.buchberger"),
    "grobner.buchberger_s": ("self", "grobner.buchberger"),
    "grobner.normal_form_calls": ("calls", "grobner.normal_form"),
    "grobner.normal_form_s": ("self", "grobner.normal_form"),
    "grobner.s_polynomial_calls": ("calls", "grobner.s_polynomial"),
    "grobner.basis_len": ("count", "grobner.basis_len"),
    "grobner.verify_s": ("self", "grobner.verify"),
    "grobner.standard_monomials_s": ("self", "grobner.standard_monomials"),
    "grobner.oracle_calls": ("calls", "grobner.oracle"),
    "grobner.oracle_s": ("self", "grobner.oracle"),
    "cohom.solve_calls": ("calls", "cohom.solve"),
    "cohom.solve_s": ("self", "cohom.solve"),
    "cohom.gysin_step_calls": ("calls", "cohom.gysin_step"),
    "cohom.truncation_s": ("self", "cohom.truncation"),
    "cohom.renormalized_s": ("self", "cohom.renormalized"),
    "cohom.escape_s": ("self", "cohom.escape"),
    "exactalg.poly_new": ("count", "exactalg.poly_new"),
    "exactalg.mono_new": ("count", "exactalg.mono_new"),
    "cli.parse_s": ("self", "cli.parse"),
    "cli.run_s": ("self", "cli.run"),
    "cli.emit_s": ("self", "cli.emit"),
    "cli.render_s": ("self", "cli.render"),
}
# Layers whose share of report time the trace reports.
SHARED_LAYERS = ("loopfun", "grobner", "cohom")

ROOT = "report"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` recording one span per call, under the innermost open span."""
        nid = self._name_id(name)
        counted = RESULT_COUNTS.get(name)
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counted is not None:
                counts[counted[0]] += counted[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, init):
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return counted_init

    def install(self) -> None:
        importlib.import_module("loopsing.cli")
        modules = [m for n, m in sys.modules.items() if n == "loopsing" or n.startswith("loopsing.")]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, (module_name, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))
        for name, (module_name, cls_name) in CONSTRUCTORS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, "__init__", self._count(name, vars(cls)["__init__"]))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def metrics(self, reports: int, scale: float) -> dict[str, float]:
        """Per-report layer numbers, and each layer's share of report time.

        Seconds are multiplied by `scale`, which converts them to reference
        speed.
        """
        count = len(self.span_name)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * count
        bit_of = [
            1 << SHARED_LAYERS.index(n.split(".")[0]) if n.split(".")[0] in SHARED_LAYERS else 0
            for n in self.names
        ]
        enclosing = [0] * count  # layers of the spans enclosing each span
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
                enclosing[i] = enclosing[parent] | bit_of[self.span_name[parent]]
        calls: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        layer_time: Counter[str] = Counter()
        root_time = 0.0
        for i in range(count):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_time[name] += (durations[i] - child[i]) * scale
            bit = bit_of[self.span_name[i]]
            if bit and not enclosing[i] & bit:
                layer_time[name.split(".")[0]] += durations[i]
            if name == ROOT:
                root_time += durations[i]
        sources = {"calls": calls, "self": self_time, "count": self.counts}
        out = {metric: sources[kind][key] / reports for metric, (kind, key) in METRICS.items()}
        for layer in SHARED_LAYERS:
            out[f"{layer}.share"] = layer_time[layer] / root_time if root_time else 0.0
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "counts": dict(self.counts),
                },
                fh,
            )
