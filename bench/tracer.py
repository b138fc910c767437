"""Per-layer tracer that instruments tconvex from outside the library.

``Tracer.install`` wraps every public function of each layer module and a
few hot methods, and patches every namespace that binds them: the module
itself, the package re-exports and every ``from .x import y`` copy in the
other modules.  ``Tracer.uninstall`` puts every original back.

Element-level calls only update counters and aggregated self time.
Coarse entry points also record a span (id, parent id, request id, name,
start, end) kept in memory and written out by the caller at exit.

Self time of a call is its duration minus the time of the instrumented
calls nested in it; inclusive time of a function counts only its outermost
activation, so recursion is not counted twice.  ``rationals`` and
``report`` are too fine-grained to wrap; their time lands in the callers'
self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

PACKAGE = "tconvex"
LAYERS = ("groups", "endos", "sets", "functions", "linalg", "derive", "suites",
          "generators", "cli")
# Hot methods wrapped on their classes, with the name they are reported under.
METHODS = {
    ("groups", "GroupSpec", "add"): "add",
    ("groups", "GroupSpec", "reduce"): "reduce",
    ("endos", "Endo", "apply"): "apply",
    ("sets", "GroundSet", "__contains__"): "contains",
    ("functions", "TableFn", "__call__"): "table_lookup",
}
# Coarse entry points that record spans.
SPANNED = frozenset({
    "functions.check_inequality", "functions.qconv_envelope",
    "functions.convexity_interval", "functions.lift_check",
    "sets.is_T_convex", "sets.internal_points", "sets.closure_generate",
    "sets.enumerate_TD", "sets.radstrom_check", "sets.is_n_convex",
    "linalg.fm_feasible", "linalg.iroot_ceil", "linalg.solve", "linalg.nullspace",
    "endos.spectral_radius", "endos.operator_norm", "endos.neumann_inverse",
    "endos.try_inverse",
    "derive.rode_support", "derive.wright_ratio_derive", "derive.last_derive",
    "derive.kuhn_derive", "derive.twa_decompose", "derive.u_grid_verify",
    "suites.run_suite", "cli.cli_dispatch",
})


class Tracer:
    def __init__(self):
        self.calls = {}  # "layer.fn" -> count
        self.self_s = {}  # "layer.fn" -> seconds
        self.incl_s = {}  # "layer.fn" -> seconds, outermost activations only
        self.spans = []  # (id, parent, request, name, start, end)
        self.request = None
        self.apply_keys = set()
        self.tconvex_seen = set()
        self.tconvex_repeats = 0
        self.fm_constraints = 0
        self._frames = []  # per active call: [child seconds]
        self._active = {}  # "layer.fn" -> activation depth
        self._span_stack = []
        self._next_span = 0
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        for (layer, cls_name, meth), label in METHODS.items():
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{label}", vars(cls)[meth]))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, key, fn):
        perf = time.perf_counter
        frames, active = self._frames, self._active
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        incl_s.setdefault(key, 0.0)
        spanned = key in SPANNED
        hook = {
            "endos.apply": self._on_apply,
            "sets.is_T_convex": self._on_is_T_convex,
            "linalg.fm_feasible": self._on_fm_feasible,
        }.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0]
            frames.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            if spanned:
                span_id = self._next_span
                self._next_span += 1
                parent = self._span_stack[-1] if self._span_stack else None
                self._span_stack.append(span_id)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                active[key] = depth
                calls[key] += 1
                self_s[key] += elapsed - frame[0]
                if depth == 0:
                    incl_s[key] += elapsed
                if spanned:
                    self._span_stack.pop()
                    self.spans.append((span_id, parent, self.request, key, start, end))

        return wrapper

    def _on_apply(self, args, kwargs):
        endo, x = args[0], args[1]
        self.apply_keys.add((endo.group, endo.key(), x.coords))

    def _on_is_T_convex(self, args, kwargs):
        d, t = args[0], args[1]
        key = (d, t.group, t.key())
        if key in self.tconvex_seen:
            self.tconvex_repeats += 1
        self.tconvex_seen.add(key)

    def _on_fm_feasible(self, args, kwargs):
        self.fm_constraints += len(args[0])

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Totals under the names the benchmark declares (before scaling)."""
        m = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            if layer not in ("suites", "generators", "cli"):
                m[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            m[f"{layer}.self_s"] = sum(self.self_s[k] for k in keys)
        for key in ("groups.add", "endos.apply", "linalg.mat_vec", "sets.contains",
                    "functions.table_lookup"):
            m[f"{key}.calls"] = self.calls.get(key, 0)
        for key in ("sets.is_T_convex", "functions.check_inequality",
                    "functions.qconv_envelope", "sets.closure_generate",
                    "linalg.fm_feasible", "derive.rode_support", "linalg.iroot_ceil",
                    "endos.spectral_radius"):
            m[f"{key}.s"] = self.incl_s.get(key, 0.0)
        applies = self.calls.get("endos.apply", 0)
        m["endos.apply.distinct_ratio"] = len(self.apply_keys) / applies if applies else 0.0
        tconv = self.calls.get("sets.is_T_convex", 0)
        m["sets.is_T_convex.repeat_ratio"] = self.tconvex_repeats / tconv if tconv else 0.0
        m["linalg.fm_feasible.constraints_in"] = self.fm_constraints
        return m

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span (one request) around library calls."""
        span_id = self._next_span
        self._next_span += 1
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._span_stack.pop()
            self.spans.append((span_id, parent, self.request, name, start,
                               time.perf_counter()))


def snapshot():
    """Every binding the tracer may patch, for checking that it left none."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = id(obj)
    for (layer, cls_name, meth) in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        out[(cls_name, meth)] = id(vars(cls)[meth])
    return out
