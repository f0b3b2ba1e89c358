"""Span tracer for the qborel layers, installed from outside the library.

Each public function and method of a qborel module, and the arithmetic
operators of its classes, is replaced by a wrapper that counts the call
and records a span on one stack.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum
over its spans.  Calls from ``coeffring`` into ``coeffring`` are counted
but not timed, because that layer is the leaf and its calls number in
the millions.  ``import_traced`` also records the execution of each
module during import as a span of that module's layer, so the import
cost that set-up pays lands on the layer that causes it.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "qborel"
LAYERS = ("coeffring", "rootdata", "latticemod", "opalg", "rootvec",
          "drinfeld", "microrec", "chars")
_OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
              "__pow__")
_LEAF = "coeffring"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.layer_self = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.fn_total = defaultdict(float)   # outermost spans only
        self.mul_calls = 0
        self.mul_term_pairs = 0
        self.add_calls = 0
        self.max_terms = 0
        self.e_keys = set()
        self.enumerated = 0
        self._stack = []
        self._active = Counter()
        self._hooks = {
            "coeffring.LaurentPoly.__mul__": self._on_mul,
            "coeffring.LaurentPoly.__add__": self._on_add,
            "coeffring.LaurentPoly.__sub__": self._on_add,
            "latticemod.LatticeModule.e_on_datum": self._on_e,
            "latticemod.LatticeModule.enumerate_data": self._on_enumerate,
        }

    # -- counters at the layer boundaries ---------------------------------

    def _on_mul(self, args, out):
        if hasattr(args[1], "terms"):   # a product of two Laurent polynomials
            self.mul_calls += 1
            self.mul_term_pairs += len(args[0].terms) * len(args[1].terms)
            self.max_terms = max(self.max_terms, len(out.terms))

    def _on_add(self, args, out):
        self.add_calls += 1
        self.max_terms = max(self.max_terms, len(out.terms))

    def _on_e(self, args, out):
        module, i, datum = args
        self.e_keys.add((id(module), i, datum))

    def _on_enumerate(self, args, out):
        self.enumerated += len(out)

    # -- spans ------------------------------------------------------------

    def span(self, layer, key, fn):
        """Call-through wrapper of fn that records a span of `layer`."""
        stack, active, calls = self._stack, self._active, self.calls
        layer_self, fn_self, fn_total = self.layer_self, self.fn_self, self.fn_total
        hook = self._hooks.get(key)
        leaf = layer == _LEAF
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if leaf and stack and stack[-1][0] == _LEAF:
                out = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                active[key] += 1
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    active[key] -= 1
                    own = dur - frame[1]
                    layer_self[layer] += own
                    fn_self[key] += own
                    if not active[key]:
                        fn_total[key] += dur
                    if stack:
                        stack[-1][1] += dur
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        for attr in ("cache_clear", "cache_info"):   # functools.lru_cache
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- installation -----------------------------------------------------

    def import_traced(self):
        """Import a fresh qborel with import spans, then wrap its layers."""
        finder = _ImportSpans(self)
        sys.meta_path.insert(0, finder)
        try:
            pkg = importlib.import_module(PACKAGE)
        finally:
            sys.meta_path.remove(finder)
        self.install(pkg)
        return pkg

    def install(self, pkg):
        """Wrap every public callable of each layer module of `pkg`."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif not name.startswith("_") and callable(obj):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = self.span(layer, key, obj)
        # rebind every name that refers to a wrapped callable, so calls
        # through `from .x import f` aliases are traced too
        for modname, module in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, layer, cls):
        wrapped = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in wrapped:   # __rmul__ = __mul__ share a wrapper
                key = f"{layer}.{cls.__name__}.{fn.__name__}"
                wrapped[id(fn)] = self.span(layer, key, fn)
            w = wrapped[id(fn)]
            setattr(cls, name, staticmethod(w) if static else w)


class _ImportSpans:
    """Meta-path finder that times each qborel module's execution."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        layer = name.rpartition(".")[2]
        spec.loader.exec_module = self.tracer.span(
            layer, f"{layer}.<import>", spec.loader.exec_module)
        return spec
