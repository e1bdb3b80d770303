"""Per-layer tracing of latuni from outside the package.

The tracer wraps the public functions of each layer and rebinds the wrapper
in every ``latuni`` module namespace that holds the original, because
``from .binop import validate_uninorm`` copies the reference into
``search``, ``cli`` and ``construct``.  Each call is a span; a generator is
timed per resumption, so a search's span covers only the work it does
between two yields.  A span's self time is its duration minus the time of
the spans it caused.  The hottest ``BoundedLattice`` methods are counted
without spans.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "lattice": ("build_lattice",),
    "unary": ("validate_unary", "pointwise_leq_on", "range_avoids"),
    "search": (
        "enumerate_unary",
        "enumerate_admissible_pairs",
        "brute_force_uninorms",
        "enumerate_partial_binops",
    ),
    "construct": ("check_hypotheses", "check_characteristic", "construct"),
    "binop": ("validate_uninorm", "validate_partial", "classify"),
    "documents": (
        "parse_lattice",
        "parse_operator",
        "parse_binop",
        "serialize_binop",
        "render_table",
    ),
    "cli": ("cli_main",),
}
COUNTED_METHODS = ("leq", "meet", "join", "interval")

ADMIT = "search.enumerate_admissible_pairs"
BRUTE = "search.brute_force_uninorms"
UNINORM = "binop.validate_uninorm"
HYPOTHESES = "construct.check_hypotheses"
UNARY = "search.enumerate_unary"

_DONE = object()


def metric_units() -> dict:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    for name in COUNTED_METHODS:
        units[f"lattice.{name}.calls"] = "count"
    units["search.admit_ratio"] = "ratio"
    units[f"{BRUTE}.yield_ratio"] = "ratio"
    units[f"{UNINORM}.ok_ratio"] = "ratio"
    units[f"{UNARY}.yielded"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.yields = Counter()
        self.caused = Counter()  # (parent span, child span) -> calls
        self.uninorms_ok = 0
        self._stack = [["root", 0.0]]
        self._undo = []

    def _span(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self._stack.pop()
            self.self_s[name] += took - frame[1]
            self._stack[-1][1] += took

    def _called(self, name):
        self.calls[name] += 1
        self.caused[self._stack[-1][0], name] += 1

    def _wrap_function(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._called(name)
            result = self._span(name, fn, args, kwargs)
            if name == UNINORM:
                self.uninorms_ok += result.ok
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._called(name)
            return self._resumptions(name, fn(*args, **kwargs))

        return traced

    def _resumptions(self, name, gen):
        while True:
            item = self._span(name, next, (gen, _DONE), {})
            if item is _DONE:
                return
            self.yields[name] += 1
            yield item

    def _wrap_counted(self, name, method):
        calls = self.calls

        @functools.wraps(method)
        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "latuni" or n.startswith("latuni.")]
        lattice_class = sys.modules["latuni.lattice"].BoundedLattice
        for module_name, names in LAYERS.items():
            module = sys.modules[f"latuni.{module_name}"]
            for fname in names:
                original = getattr(module, fname)
                wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap_function
                wrapper = wrap(f"{module_name}.{fname}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._undo.append((namespace, attr, original))
        for name in COUNTED_METHODS:
            original = lattice_class.__dict__[name]
            setattr(lattice_class, name, self._wrap_counted(f"lattice.{name}", original))
            self._undo.append((lattice_class, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, overhead_s: float) -> dict:
        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for module, names in LAYERS.items():
            for name in names:
                key = f"{module}.{name}"
                values[f"{key}.calls"] = self.calls[key]
                values[f"{key}.self_s"] = self.self_s[key]
        for name in COUNTED_METHODS:
            values[f"lattice.{name}.calls"] = self.calls[f"lattice.{name}"]
        values["search.admit_ratio"] = ratio(self.yields[ADMIT], self.caused[ADMIT, HYPOTHESES])
        values[f"{BRUTE}.yield_ratio"] = ratio(self.yields[BRUTE], self.caused[BRUTE, UNINORM])
        values[f"{UNINORM}.ok_ratio"] = ratio(self.uninorms_ok, self.calls[UNINORM])
        values[f"{UNARY}.yielded"] = self.yields[UNARY]
        values["trace.overhead_s"] = overhead_s
        units = metric_units()
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}
