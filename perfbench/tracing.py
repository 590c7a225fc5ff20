"""Per-layer tracing from outside the library.

`Tracer.install` wraps the public functions of every poissonkit module
and the methods of its public classes (with their poissonkit bases),
then rebinds each wrapped function in every module that imported it, so
calls between modules go through the wrappers too.  Nothing under src/
changes; `uninstall` puts every original back.

Each call adds to a call count and to its layer's self time (duration
minus the time of wrapped calls inside it).  Calls outside the hot
arithmetic classes also record a span (name, start, end, parent span);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import fractions
import inspect
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 100_000
_SKIP = {"__setattr__", "__repr__", "__str__", "__init_subclass__"}
# Classes called per term or per scalar: counted and timed, but no spans.
_NO_SPAN_LAYERS = {"scalars", "polynomials", "multivectors"}

# Wrapped name -> key whose outermost calls add up to an inclusive time.
INCLUSIVE = {
    "polynomials.reduce_mod": "polynomials.reduce_mod",
    "polynomials.Polynomial.evaluate_float": "polynomials.evaluate_float",
    "automorphisms.pushforward": "automorphisms.pushforward",
    "structures.chart_extend": "structures.chart_extend",
    "structures.jacobi_check": "structures.jacobi_check",
    "structures.degeneracy_divisor": "structures.degeneracy_divisor",
    "diagonal.make_diagonal": "diagonal.make_diagonal",
    "rigidity.diagonality_constraints": "rigidity.constraints",
    "rigidity.solve_rigidity": "rigidity.solve",
    "linalg.rref": "linalg.rref",
    "deform.DeformationFamily.bivector": "deform.family_setup",
    "deform.DeformationFamily.curl_field": "deform.family_setup",
    "deform.track_degenerate_point": "deform.track",
    "documents.serialize": "documents.serialize",
    "documents.loads": "documents.loads",
    "cli.main": "cli.verb",
}


def _term_products(tracer, args, result):
    left, right = args[0], args[1]
    width = len(right.terms) if hasattr(right, "terms") else 1
    tracer.counters["term_products"] += len(left.terms) * width


def _peak_terms(tracer, args, result):
    tracer.peaks["terms"] = max(tracer.peaks["terms"], len(args[0].terms))


def _constraint_table(tracer, args, system):
    tracer.peaks["table_width"] = max(tracer.peaks["table_width"],
                                      system.table.width)
    tracer.counters["rows"] += len(system.rows)


def _pivots(tracer, args, result):
    tracer.counters["pivots"] += len(result[1])


def _newton_iters(tracer, args, result):
    tracer.counters["newton_iters"] += result.newton_iters


def _document_bytes(tracer, args, text):
    tracer.counters["bytes"] += len(text)


# Wrapped name -> hook(tracer, args, result), run after a call returns.
HOOKS = {
    "polynomials.Polynomial.__mul__": _term_products,
    "polynomials.Polynomial.__rmul__": _term_products,
    "polynomials.Polynomial.__init__": _peak_terms,
    "rigidity.diagonality_constraints": _constraint_table,
    "linalg.rref": _pivots,
    "deform.track_degenerate_point": _newton_iters,
    "documents.serialize": _document_bytes,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.peaks = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self._stack = []
        self._active = defaultdict(int)
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, layer, fn, spanned):
        tracer = self
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        active = self._active
        group = INCLUSIVE.get(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent_span = stack[-1][1] if stack else -1
            span = -1
            if spanned:
                if len(tracer.spans) < SPAN_LIMIT:
                    span = len(tracer.spans)
                    tracer.spans.append([name, 0.0, 0.0, parent_span])
                else:
                    tracer.dropped_spans += 1
            frame = [0.0, span if span >= 0 else parent_span]
            stack.append(frame)
            if group:
                active[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if group:
                    active[group] -= 1
                    if not active[group]:
                        tracer.inclusive_s[group] += duration
                if span >= 0:
                    tracer.spans[span][1] = start
                    tracer.spans[span][2] = end
            if hook:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(
            owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, done):
        for klass in cls.__mro__:
            if klass in done or not klass.__module__.startswith("poissonkit."):
                continue
            done.add(klass)
            layer = klass.__module__.rsplit(".", 1)[1]
            spanned = layer not in _NO_SPAN_LAYERS
            for attr, obj in list(vars(klass).items()):
                if attr in _SKIP or (attr.startswith("_")
                                     and not attr.startswith("__")):
                    continue
                name = f"{layer}.{klass.__name__}.{attr}"
                if inspect.isfunction(obj):
                    self._set(klass, attr, self._wrap(name, layer, obj, spanned))
                elif isinstance(obj, (classmethod, staticmethod)):
                    wrapped = self._wrap(name, layer, obj.__func__, spanned)
                    self._set(klass, attr, type(obj)(wrapped))

    def install(self, extra_namespaces=()):
        """Wrap poissonkit; also rebind names in `extra_namespaces`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("poissonkit.")]
        replaced = {}
        done = set()
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(
                        f"{layer}.{attr}", layer, obj,
                        layer != "scalars"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, done)
        namespaces = modules + [sys.modules["poissonkit"]] + list(extra_namespaces)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        self._count_fraction_news()

    def _count_fraction_news(self):
        original = fractions.Fraction.__dict__["__new__"]
        create = original.__func__
        counters = self.counters

        def counted_new(cls, *args, **kwargs):
            counters["fraction_news"] += 1
            return create(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def sum_calls(self, names) -> int:
        return sum(self.calls.get(name, 0) for name in names)
