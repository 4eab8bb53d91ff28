"""In-memory span tracing of the sixstate modules, from outside the package.

A `Tracer` wraps every public function of every imported ``sixstate``
module once, for every name it is bound to: the defining module and each
copy made by ``from .info import ...`` in another module or in the package
itself.  `install` puts the wrappers in place and `uninstall` puts the
original functions back.  Wrappers pass straight through while no
operation is open.

A function's layer is the module that defines it.  While an operation is
open, a call that enters a layer from another layer (or from the harness)
records one span (name, start, end, parent span, operation id, whether it
raised) in flat arrays.  So do the calls of `SPANNED`, which the per-layer
metrics single out.  A call from inside its own layer only adds one to a
counter: timing it would charge the wrapper's own cost to the caller's self
time, and that cost is larger than many of the functions.  Self time is a
span's duration minus the durations of its direct child spans, so the time
of an untimed call stays in its layer.
"""

import array
import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "sixstate"
LAYERS = ("analysis", "info", "optimize", "attack", "linalg", "protocol", "cli")
OP_SPAN = "bench.op"
# Functions that get a span on every call, also from their own layer.
SPANNED = frozenset({"analysis.crossing_point", "cli.build_parser",
                     "optimize.grid_refine_maximize", "optimize.lagrange_residual"})


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN]
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.raised = array.array("b")
        self.evaluations = 0
        # Untimed calls from inside the function's own layer, by name id.
        self.nested = [0]
        self._stack = []
        self._layer = None
        self._op_id = -1
        self._last_exc = None
        self._bindings = self._wrap_all()

    def __len__(self):
        return len(self.name)

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name_id, layer):
        tracer = self
        perf = time.perf_counter_ns
        always = self.names[name_id] in SPANNED
        counts_evaluations = fn.__name__ == "grid_refine_maximize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            if tracer._layer == layer and not always:
                tracer.nested[name_id] += 1
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            caller_layer = tracer._layer
            tracer._layer = layer
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the span it first leaves.
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.raised[idx] = 1
                raise
            finally:
                end = perf()
                tracer._layer = caller_layer
                tracer._stack.pop()
                tracer.start[idx] = start
                tracer.end[idx] = end
            if counts_evaluations:
                tracer.evaluations += result.evaluations
            return result

        return traced

    def _wrap_all(self):
        """(module, name, original, wrapper) for every binding of a public function."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        bindings = []
        for module in modules:
            for attr, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")
                        and not obj.__name__.startswith("_")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rpartition(".")[2]
                    self.names.append(f"{layer}.{obj.__name__}")
                    self.nested.append(0)
                    wrappers[obj] = self._wrap(obj, len(self.names) - 1, layer)
                bindings.append((module, attr, obj, wrappers[obj]))
        return bindings

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def begin_op(self, op_id):
        """Open the root span of one operation."""
        self._op_id = op_id
        self._last_exc = None
        self._layer = None
        idx = self._open(0)
        self.start[idx] = time.perf_counter_ns()

    def end_op(self):
        self.end[self._stack.pop()] = time.perf_counter_ns()
        self._op_id = -1

    def write(self, path):
        """Save the spans, the name table and the untimed call counts as an .npz file."""
        np.savez(path, names=np.array(self.names), nested=np.array(self.nested),
                 **self._arrays())

    def nested_calls(self):
        """Untimed same-layer calls per layer."""
        counts = dict.fromkeys(LAYERS, 0)
        for name, n in zip(self.names, self.nested):
            layer = name.partition(".")[0]
            if layer in counts:
                counts[layer] += n
        return counts

    def _arrays(self):
        return {f: np.frombuffer(getattr(self, f), dtype=getattr(self, f).typecode)
                for f in ("name", "parent", "op", "start", "end", "raised")}

    def layer_metrics(self, n_items):
        """Per-layer figures of the traced operations, per item they attempted.

        Times and call counts are divided by n_items; error counts are totals.
        """
        a = self._arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        layer_names = [n.partition(".")[0] for n in self.names]
        layer_of = np.array([layer_names.index(n) for n in layer_names])[name]
        parent_layer = np.where(has_parent, layer_of[np.maximum(parent, 0)], -1)
        per_item = 1.0 / max(n_items, 1)

        def ids(*full_names):
            return np.isin(name, [self.names.index(n) for n in full_names if n in self.names])

        m = {}
        for layer in LAYERS:
            lid = layer_names.index(layer) if layer in layer_names else -2
            in_layer = layer_of == lid
            outer = in_layer & (parent_layer != lid)
            m[f"{layer}.self_ms"] = self_t[in_layer].sum() / 1e6 * per_item
            m[f"{layer}.calls"] = int(outer.sum()) * per_item
            m[f"{layer}.errors"] = int(a["raised"][in_layer].sum())
            if layer == "info":
                n_outer = int(outer.sum())
                m["info.us_per_call"] = dur[outer].sum() / 1e3 / n_outer if n_outer else 0.0

        crossings = ids("analysis.crossing_point")
        from_crossing = ids("info.i_ae_optimal") & np.isin(parent, np.flatnonzero(crossings))
        n_cross = int(crossings.sum())
        m["analysis.info_calls_per_threshold"] = (
            int(from_crossing.sum()) / n_cross if n_cross else 0.0)

        grid = ids("optimize.grid_refine_maximize")
        grid_s = dur[grid].sum() / 1e9
        m["optimize.grid_self_ms"] = self_t[grid].sum() / 1e6 * per_item
        m["optimize.evaluations"] = self.evaluations * per_item
        m["optimize.evals_per_s"] = self.evaluations / grid_s if grid_s else 0.0
        m["optimize.lagrange_ms"] = dur[ids("optimize.lagrange_residual")].sum() / 1e6 * per_item

        parser = ids("cli.build_parser")
        m["cli.parser_ms"] = dur[parser].sum() / 1e6 * per_item
        m["cli.format_ms"] = m["cli.self_ms"] - self_t[parser].sum() / 1e6 * per_item
        return m
