"""Per-layer tracing of areasig from outside the package.

A Tracer replaces every binding of each layer's public functions (module
namespaces, the package namespace, re-imports, module-level dispatch dicts
and class attributes) with a wrapper, and wraps the arithmetic methods of
fractions.Fraction for the `coeff` layer.  uninstall() puts every original
object back.  Nothing here runs unless a Tracer is installed, so an
untraced run executes the program's own function objects.

Self time is accounted online: each wrapped call that enters a layer other
than its caller's opens a frame; its self time is its duration minus the
time of the child frames it contains.  A call into the layer that is
already on top of the stack is counted but opens no frame, so nested calls
inside one layer are not counted twice.  Wrapper bookkeeping and counter
hooks are charged to the `trace` bucket, so

    root span = sum of layer self times + bench self time + trace self time

holds exactly in integer nanoseconds.
"""

from __future__ import annotations

import fractions
import gzip
import inspect
import sys
import time
import weakref

KERNEL_NAMES = (
    "shuffle_words",
    "half_shuffle_words",
    "r_word",
    "rho_word",
    "rho_word_via_d",
    "pi1_word",
    "pi1_transpose_word",
    "unshuffle_word",
)
LIFT_NAMES = (
    "concat",
    "shuffle",
    "half_shuffle",
    "area",
    "lie_bracket",
    "pairing",
    "dynkin_r",
    "rho",
    "pi1",
    "pi1_transpose",
    "exp_conc",
    "log_conc",
    "unshuffle",
)
# Bilinear lifts that run the pair loop themselves; area and lie_bracket
# delegate to these, so counting them too would count each product twice.
PAIR_LOOP_NAMES = ("concat", "shuffle", "half_shuffle", "pairing")

# (layer, module, function names or None for every public function,
#  classes whose public methods and __init__ also belong to the layer)
LAYER_SPECS = (
    ("tensor.kernel", "areasig.tensor", KERNEL_NAMES, ()),
    ("tensor.lift", "areasig.tensor", LIFT_NAMES, ()),
    ("hall", "areasig.hall", None, ("HallBasis",)),
    ("linalg", "areasig.linalg", None, ()),
    ("double_tensor", "areasig.double_tensor", None, ()),
    ("trees", "areasig.trees", None, ()),
    ("span", "areasig.span", None, ()),
    ("discrete", "areasig.discrete", None, ()),
    ("expr", "areasig.expr", None, ()),
    ("cli", "areasig.cli", None, ()),
)
COEFF = "coeff"
FRACTION_METHODS = (
    "__new__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__floordiv__",
    "__rfloordiv__",
    "__mod__",
    "__rmod__",
    "__divmod__",
    "__rdivmod__",
    "__pow__",
    "__rpow__",
    "__neg__",
    "__pos__",
    "__abs__",
    "__eq__",
    "__lt__",
    "__gt__",
    "__le__",
    "__ge__",
    "__bool__",
    "__hash__",
)
LAYERS = tuple(spec[0] for spec in LAYER_SPECS) + (COEFF,)
ROOT = "bench"
TRACE = "trace"
MARK = "_bench_traced"
MAX_SPANS = 2_000_000


def _public_functions(module, names):
    if names is not None:
        return [(name, getattr(module, name)) for name in names]
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _class_methods(cls):
    return [
        (name, obj)
        for name, obj in vars(cls).items()
        if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_"))
    ]


def layer_functions():
    """[(layer, qualified name, function)] for every traced program function."""
    out = []
    for layer, modname, names, classes in LAYER_SPECS:
        module = sys.modules[modname]
        for name, fn in _public_functions(module, names):
            out.append((layer, "%s.%s" % (modname, name), fn))
        for clsname in classes:
            cls = getattr(module, clsname)
            for name, fn in _class_methods(cls):
                out.append((layer, "%s.%s.%s" % (modname, clsname, name), fn))
    return out


def _scan_dict(namespace, label, wanted, found, depth):
    for key, value in list(namespace.items()):
        if key == "__builtins__":
            continue
        if callable(value) and id(value) in wanted and wanted[id(value)] is value:
            found.append(("%s[%r]" % (label, key), namespace, key, value))
        elif isinstance(value, dict) and depth:
            _scan_dict(value, "%s[%r]" % (label, key), wanted, found, depth - 1)


def bindings(extra_modules=()):
    """Every place a traced function is bound, as (label, container, key, obj).

    Containers are module dicts (package, defining module, re-imports),
    dicts nested up to two levels below a module global, and classes.
    Traced or not, the result lists the objects currently bound there.
    """
    wanted = {id(fn): fn for _layer, _name, fn in layer_functions()}
    found = []
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if name == "areasig" or name.startswith("areasig.")
    ]
    modules.extend(extra_modules)
    for module in modules:
        _scan_dict(vars(module), module.__name__, wanted, found, 2)
    for layer, modname, _names, classes in LAYER_SPECS:
        for clsname in classes:
            cls = getattr(sys.modules[modname], clsname)
            for name, fn in _class_methods(cls):
                found.append(("%s.%s.%s" % (modname, clsname, name), cls, name, fn))
    for name in FRACTION_METHODS:
        if name in vars(fractions.Fraction):
            found.append(
                ("fractions.Fraction.%s" % name, fractions.Fraction, name,
                 vars(fractions.Fraction)[name])
            )
    return found


def untouched(snapshot, extra_modules=()):
    """Problems found comparing current bindings with `snapshot` by identity."""
    now = {label: obj for label, _c, _k, obj in bindings(extra_modules)}
    problems = []
    for label, _container, _key, obj in snapshot:
        current = now.get(label)
        if current is not obj:
            problems.append("%s is no longer the original object" % label)
        if getattr(current, MARK, False) or getattr(
            getattr(current, "__func__", None), MARK, False
        ):
            problems.append("%s is a tracing wrapper" % label)
    if len(now) != len(snapshot):
        problems.append("binding count changed: %d -> %d" % (len(snapshot), len(now)))
    return problems


class Tracer:
    """Installs wrappers on every binding and accumulates per-layer figures."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.layer_index = {name: i for i, name in enumerate(LAYERS + (ROOT, TRACE))}
        self.calls = [0] * len(self.layer_index)
        self.self_ns = [0] * len(self.layer_index)
        self.counters = {
            "tensor.kernel.repeats": 0,
            "tensor.lift.terms_out": 0,
            "tensor.lift.pair_products": 0,
            "coeff.fraction_new": 0,
            "hall.solve_ns": 0,
            "linalg.cells": 0,
            "double_tensor.terms_out": 0,
            "trees.enumerated": 0,
            "trees.eval_calls": 0,
            "trees.eval_repeats": 0,
            "span.labelings": 0,
            "discrete.segments": 0,
            "discrete.csv_bytes": 0,
        }
        self.names: list[str] = []
        self.spans: list = []
        self.spans_dropped = 0
        self.job = -1
        self._next_span = 1
        self._kernel_seen: set = set()
        self._eval_seen: set = set()
        self._solved = weakref.WeakKeyDictionary()
        self._stack: list = []
        self._patched: list = []
        self._wrapper_of: dict = {}
        self._snapshot = None
        self._root_start = None
        self.root_ns = 0

    # -- install / uninstall -------------------------------------------------

    def install(self):
        self._snapshot = bindings(self.extra_modules)
        for layer, qualname, fn in layer_functions():
            if id(fn) not in self._wrapper_of:
                self._wrapper_of[id(fn)] = self._wrap(
                    fn, self.layer_index[layer], qualname, self._hook_for(layer, fn)
                )
        for _label, container, key, obj in self._snapshot:
            if container is fractions.Fraction:
                continue
            self._set(container, key, self._wrapper_of[id(obj)])
        self._install_fraction()
        self._stack.append([self.layer_index[ROOT], 0, 0])
        self._root_start = time.perf_counter_ns()

    def uninstall(self):
        """Restore every binding and return the problems a re-scan finds."""
        root_end = time.perf_counter_ns()
        root = self._stack.pop()
        self.root_ns = root_end - self._root_start
        self.self_ns[self.layer_index[ROOT]] += self.root_ns - root[1]
        for container, key, original in reversed(self._patched):
            self._set(container, key, original, record=False)
        self._patched.clear()
        return untouched(self._snapshot, self.extra_modules)

    def _set(self, container, key, value, record=True):
        if record:
            original = (
                vars(container)[key] if isinstance(container, type) else container[key]
            )
            self._patched.append((container, key, original))
        if isinstance(container, type):
            setattr(container, key, value)
        else:
            container[key] = value

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, layer, qualname, hook):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        trace = self.layer_index[TRACE]
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            parent = stack[-1]
            if parent[0] == layer and hook is None:
                # nested call inside the same layer: counted, no frame
                return fn(*args, **kwargs)
            enter = clock()
            if parent[0] == layer:
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
                hook(args, kwargs, result, t1 - t0)
                overhead = clock() - enter - (t1 - t0)
                self_ns[trace] += overhead
                parent[1] += overhead
                return result
            frame = [layer, 0, tracer._next_span]
            tracer._next_span += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_ns[layer] += t1 - t0 - frame[1]
                parent[1] += t1 - t0
                if len(spans) < MAX_SPANS:
                    spans.append((frame[2], name_id, t0, t1, parent[2], tracer.job))
                else:
                    tracer.spans_dropped += 1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            overhead = clock() - enter - (t1 - t0)
            self_ns[trace] += overhead
            parent[1] += overhead
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def _install_fraction(self):
        cls = fractions.Fraction
        layer = self.layer_index[COEFF]
        trace = self.layer_index[TRACE]
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        counters = self.counters
        clock = time.perf_counter_ns

        def make(fn, is_new):
            def wrapper(*args, **kwargs):
                calls[layer] += 1
                if is_new:
                    counters["coeff.fraction_new"] += 1
                parent = stack[-1]
                if parent[0] == layer:
                    return fn(*args, **kwargs)
                enter = clock()
                frame = [layer, 0, parent[2]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    self_ns[layer] += t1 - t0 - frame[1]
                    leave = clock()
                    self_ns[trace] += leave - enter - (t1 - t0)
                    parent[1] += leave - enter

            setattr(wrapper, MARK, True)
            return wrapper

        for name in FRACTION_METHODS:
            original = vars(cls).get(name)
            if original is None:
                continue
            if name == "__new__":
                replacement = staticmethod(make(original.__func__, True))
            else:
                replacement = make(original, False)
            self._set(cls, name, replacement)

    # -- counters ----------------------------------------------------------------

    def _hook_for(self, layer, fn):
        counters = self.counters
        name = fn.__name__
        if layer == "tensor.kernel":
            seen = self._kernel_seen

            def kernel(args, kwargs, result, dur):
                key = (name, args)
                if key in seen:
                    counters["tensor.kernel.repeats"] += 1
                else:
                    seen.add(key)

            return kernel
        if layer == "tensor.lift":
            pair_loop = name in PAIR_LOOP_NAMES

            def lift(args, kwargs, result, dur):
                if pair_loop:
                    counters["tensor.lift.pair_products"] += len(args[0]) * len(args[1])
                if hasattr(result, "__len__"):
                    counters["tensor.lift.terms_out"] += len(result)

            return lift
        is_method = "." in fn.__qualname__
        if layer == "hall" and is_method and name in ("dual_pbw", "dual_pbw_for_word"):
            solved = self._solved

            def solve(args, kwargs, result, dur):
                basis, h = args[0], args[1]
                levels = solved.setdefault(basis, set())
                if len(h) not in levels:
                    levels.add(len(h))
                    counters["hall.solve_ns"] += dur

            return solve
        if layer == "linalg" and name in ("invert_matrix", "rank_of_vectors", "express_in_span"):

            def cells(args, kwargs, result, dur):
                if name == "invert_matrix":
                    matrix = args[0]
                    counters["linalg.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
                    return
                vectors = args[0]
                if name == "rank_of_vectors":
                    columns = args[1] if len(args) > 1 else kwargs.get("columns")
                    if columns is None:
                        columns = set().union(*vectors) if vectors else ()
                    counters["linalg.cells"] += len(vectors) * len(columns)
                    return
                keys = set(args[1]).union(*vectors)
                counters["linalg.cells"] += len(keys) * (len(vectors) + 1)

            return cells
        if layer == "double_tensor":
            double_tensor = sys.modules["areasig.double_tensor"].DoubleTensor

            def terms(args, kwargs, result, dur):
                if isinstance(result, double_tensor):
                    counters["double_tensor.terms_out"] += len(result)

            return terms
        if layer == "trees" and name in ("enumerate_trees", "enumerate_mixed"):

            def enumerated(args, kwargs, result, dur):
                counters["trees.enumerated"] += len(result)

            return enumerated
        if layer == "trees" and name in ("area_eval", "lie_eval", "mixed_eval"):
            seen = self._eval_seen

            def evals(args, kwargs, result, dur):
                counters["trees.eval_calls"] += 1
                key = (name,) + tuple(args)
                if key in seen:
                    counters["trees.eval_repeats"] += 1
                else:
                    seen.add(key)

            return evals
        if layer == "span" and name == "special_tree_reduction":

            def labelings(args, kwargs, result, dur):
                counters["span.labelings"] += result.target

            return labelings
        if layer == "discrete" and name == "signature_pwl":

            def segments(args, kwargs, result, dur):
                counters["discrete.segments"] += len(args[0].points) - 1

            return segments
        if layer == "discrete" and name == "load_timeseries":

            def csv_bytes(args, kwargs, result, dur):
                source = args[0]
                if isinstance(source, str):
                    source = source.encode("utf-8")
                counters["discrete.csv_bytes"] += len(source)

            return csv_bytes
        return None

    # -- results -------------------------------------------------------------------

    def metrics(self):
        """Per-layer figures: X.calls and X.self_s per layer, then the counters."""
        out = {}
        for name in LAYERS:
            i = self.layer_index[name]
            out["%s.calls" % name] = self.calls[i]
            out["%s.self_s" % name] = self.self_ns[i] / 1e9
        kernel_calls = self.calls[self.layer_index["tensor.kernel"]]
        c = self.counters
        out["tensor.kernel.repeat_ratio"] = (
            c["tensor.kernel.repeats"] / kernel_calls if kernel_calls else 0.0
        )
        out["tensor.lift.terms_out"] = c["tensor.lift.terms_out"]
        out["tensor.lift.pair_products"] = c["tensor.lift.pair_products"]
        out["coeff.fraction_new"] = c["coeff.fraction_new"]
        out["hall.solve_s"] = c["hall.solve_ns"] / 1e9
        out["linalg.cells"] = c["linalg.cells"]
        out["double_tensor.terms_out"] = c["double_tensor.terms_out"]
        out["trees.enumerated"] = c["trees.enumerated"]
        out["trees.eval_repeat_ratio"] = (
            c["trees.eval_repeats"] / c["trees.eval_calls"] if c["trees.eval_calls"] else 0.0
        )
        out["span.labelings"] = c["span.labelings"]
        out["discrete.segments"] = c["discrete.segments"]
        out["discrete.csv_bytes"] = c["discrete.csv_bytes"]
        out["bench.self_s"] = self.self_ns[self.layer_index[ROOT]] / 1e9
        out["trace.self_s"] = self.self_ns[self.layer_index[TRACE]] / 1e9
        return out

    def accounting(self):
        """Root span and its exact split into self times, in nanoseconds."""
        split = {name: self.self_ns[i] for name, i in self.layer_index.items()}
        return {"root_ns": self.root_ns, "self_ns": split}

    def write_spans(self, path):
        """Write spans as gzip CSV: id, name, start_ns, end_ns, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,name,start_ns,end_ns,parent,job\n")
            for sid, name_id, t0, t1, parent, job in self.spans:
                out.write(
                    "%d,%s,%d,%d,%d,%d\n" % (sid, self.names[name_id], t0, t1, parent, job)
                )
