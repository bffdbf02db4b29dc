"""Spans around calls into the cliffstring modules, for the traced run only.

WRAPPED is the one table of names the tracer wraps.  Each name is rebound
in every ``cliffstring`` module namespace that holds it (class attributes
are patched on the class), so calls from the CLI and calls between modules
both pass through the wrapper.  A name that no longer exists is reported
and skipped (``Tracer.missing``); the metrics fed only by missing names
are left out.

Every wrapped call pushes a frame, so a caller's self time is its duration
minus the time its wrapped callees took.  Calls of names marked as spans
are also kept as span records (id, parent span, job, name, start, end).
Hot leaf calls (millions per run) are only counted and timed.
"""

import itertools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# module, attribute, group, keep spans.  The layer is the module; a group
# is the set of names one metric sums over.
WRAPPED = (
    ("fixtures", "random_octonion", "fixtures.draw", False),
    ("fixtures", "random_spinor", "fixtures.draw", False),
    ("fixtures", "random_hermitian", "fixtures.matrix", True),
    ("fixtures", "random_degenerate_hermitian", "fixtures.matrix", True),
    ("fixtures", "random_spectrum", "fixtures.spectrum", True),
    ("octonion", "mul_arrays", "octonion.mul", False),
    ("octonion", "alternativity_check", "octonion.alternativity", False),
    ("octonion", "Octonion.__init__", "octonion.object", False),
    ("octonion", "Octonion.__mul__", "octonion.object_mul", False),
    ("matrices", "omat_mul", "matrices.omat_mul", False),
    ("clifford", "cliff_inner", "clifford.inner", False),
    ("clifford", "gram_matrix", "clifford.gram", True),
    ("minkowski", "det2", "minkowski.det2", False),
    ("resolve", "resolve_hermitian", "resolve.factor", True),
    ("resolve", "reconstruction_residual", "resolve.reconstruct", True),
    ("resolve", "vectors", "resolve.vectors", True),
    ("lorentz", "make_factor", "lorentz.factor", True),
    ("lorentz", "reflection_factor", "lorentz.factor", True),
    ("lorentz", "act_vector", "lorentz.act", True),
    ("lorentz", "act_spinor", "lorentz.act", True),
    ("lorentz", "compatibility_residual", "lorentz.residual", True),
    ("lorentz", "compatibility_residual_raw", "lorentz.residual", True),
    ("lorentz", "contraction_residual", "lorentz.residual", True),
    ("lorentz", "contraction_residual_raw", "lorentz.residual", True),
    ("string_modes", "divergence_residual", "string_modes.divergence", True),
    ("string_modes", "eom_residual", "string_modes.eom", True),
    ("string_modes", "charge_quadrature", "string_modes.quadrature", True),
    ("string_modes", "endpoint_flux", "string_modes.flux", True),
    ("quantum_rep", "build_canonical", "quantum_rep.build", True),
    ("quantum_rep", "quaternion_pairs", "quantum_rep.build", True),
    ("quantum_rep", "m0_matrices", "quantum_rep.build", True),
    ("quantum_rep", "three_vector_form", "quantum_rep.build", True),
    ("quantum_rep", "tensor_form", "quantum_rep.build", True),
    ("quantum_rep", "canonical_residual", "quantum_rep.residual", True),
    ("quantum_rep", "mixed_algebra_residual", "quantum_rep.residual", True),
    ("quantum_rep", "lorentz_closure_residual", "quantum_rep.residual", True),
    ("quantum_rep", "su2_closure_residual", "quantum_rep.residual", True),
    ("quantum_rep", "tensor_algebra_residual", "quantum_rep.residual", True),
    ("quantum_rep", "spinor_tensor_roundtrip_residual", "quantum_rep.residual", True),
    ("quantum_rep", "integrality_residual", "quantum_rep.residual", True),
    ("quantum_rep", "jz_spectrum", "quantum_rep.spectrum", True),
)

# Per-layer metric: name, unit, better, source, key.  Sources: "busy" is the
# time a layer is on the stack (outermost entries only), "outer_s" and
# "outer_calls" the same for a group, "calls" every call of a group, and
# "value" a value the hooks or the benchmark record.
METRICS = (
    ("cli.self_s", "s", "lower", "value", "cli.self_s"),
    ("cli.report_bytes", "B", "lower", "value", "cli.report_bytes"),
    ("fixtures.busy_s", "s", "lower", "busy", "fixtures"),
    ("octonion.mul_calls", "count", "lower", "calls", "octonion.mul"),
    ("octonion.products", "count", "lower", "value", "octonion.products"),
    ("octonion.mul_s", "s", "lower", "outer_s", "octonion.mul"),
    ("octonion.ns_per_product", "ns", "lower", "value", "octonion.ns_per_product"),
    ("octonion.objects", "count", "lower", "calls", "octonion.object"),
    ("octonion.busy_s", "s", "lower", "busy", "octonion"),
    ("matrices.omat_mul_calls", "count", "lower", "calls", "matrices.omat_mul"),
    ("matrices.omat_mul_s", "s", "lower", "outer_s", "matrices.omat_mul"),
    ("clifford.inner_calls", "count", "lower", "calls", "clifford.inner"),
    ("clifford.busy_s", "s", "lower", "busy", "clifford"),
    ("minkowski.busy_s", "s", "lower", "busy", "minkowski"),
    ("resolve.factor_s", "s", "lower", "outer_s", "resolve.factor"),
    ("resolve.reconstruct_s", "s", "lower", "outer_s", "resolve.reconstruct"),
    ("resolve.vectors_s", "s", "lower", "outer_s", "resolve.vectors"),
    ("resolve.residual_max", "norm", "lower", "value", "resolve.residual_max"),
    ("resolve.growth_max", "ratio", "lower", "value", "resolve.growth_max"),
    ("resolve.pivots_regular", "count", "higher", "value", "resolve.pivots_regular"),
    ("resolve.pivots_split", "count", "lower", "value", "resolve.pivots_split"),
    ("resolve.pivots_degenerate", "count", "lower", "value", "resolve.pivots_degenerate"),
    ("lorentz.factor_s", "s", "lower", "outer_s", "lorentz.factor"),
    ("lorentz.act_s", "s", "lower", "outer_s", "lorentz.act"),
    ("lorentz.residual_s", "s", "lower", "outer_s", "lorentz.residual"),
    ("lorentz.residual_calls", "count", "lower", "outer_calls", "lorentz.residual"),
    ("string_modes.divergence_s", "s", "lower", "outer_s", "string_modes.divergence"),
    ("string_modes.eom_s", "s", "lower", "outer_s", "string_modes.eom"),
    ("string_modes.quadrature_s", "s", "lower", "outer_s", "string_modes.quadrature"),
    ("string_modes.flux_s", "s", "lower", "outer_s", "string_modes.flux"),
    ("quantum_rep.build_s", "s", "lower", "outer_s", "quantum_rep.build"),
    ("quantum_rep.residual_s", "s", "lower", "outer_s", "quantum_rep.residual"),
    ("quantum_rep.spectrum_s", "s", "lower", "outer_s", "quantum_rep.spectrum"),
    ("quantum_rep.dense_bytes", "B", "lower", "value", "quantum_rep.dense_bytes"),
    ("trace.overhead_ratio", "ratio", "lower", "value", "trace.overhead_ratio"),
)

# Values recorded by hooks, and the group whose wrapper records them.
_HOOKED = {
    "octonion.products": "octonion.mul",
    "octonion.ns_per_product": "octonion.mul",
    "resolve.residual_max": "resolve.reconstruct",
    "resolve.growth_max": "resolve.factor",
    "resolve.pivots_regular": "resolve.factor",
    "resolve.pivots_split": "resolve.factor",
    "resolve.pivots_degenerate": "resolve.factor",
    "quantum_rep.dense_bytes": "quantum_rep.build",
}

# Values that must repeat exactly between two traced runs of one job.
COUNT_VALUES = (
    "octonion.products", "resolve.pivots_regular", "resolve.pivots_split",
    "resolve.pivots_degenerate", "quantum_rep.dense_bytes",
)


def _products(a, b) -> int:
    """Octonion products in one broadcast mul_arrays call."""
    if a.ndim == 1 and b.ndim == 1:
        return 1
    return math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))


def _pivot_classes(res) -> tuple:
    """(regular, split, degenerate) pivots read off the diagonals of a and b."""
    n = res.a.shape[0]
    da = res.a[np.arange(n), np.arange(n), 0]
    db = res.b[np.arange(n), np.arange(n), 0]
    both = (da != 0) & (db != 0)
    degenerate = both & (da == 1.0) & (db == 1.0)
    return int(n - both.sum()), int((both & ~degenerate).sum()), int(degenerate.sum())


def _array_bytes(obj, seen, depth=0) -> int:
    """Bytes of the distinct numpy arrays reachable from a returned value."""
    if depth > 6 or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x, seen, depth + 1) for x in obj)
    if isinstance(obj, (str, bytes, int, float, complex, dict)) or obj is None:
        return 0
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        fields = {s: getattr(obj, s, None) for s in getattr(type(obj), "__slots__", ())}
    return sum(_array_bytes(x, seen, depth + 1) for x in fields.values())


class Tracer:
    """Counts, times and spans of the wrapped calls made while installed."""

    def __init__(self):
        self.stack = [[0.0, None]]   # open frames: [callee seconds, span id]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.outer_calls = defaultdict(int)
        self.outer_s = defaultdict(float)
        self.busy = defaultdict(float)
        self.values = defaultdict(float)
        self.spans = []
        self.job = None
        self.installed = set()      # groups and layers with at least one wrapper
        self.missing = []
        self._ids = itertools.count()
        self._restore = []
        self._hooks = {
            "mul_arrays": self._on_mul,
            "resolve_hermitian": self._on_resolve,
            "reconstruction_residual": self._on_residual,
            "build_canonical": self._on_build,
            "m0_matrices": self._on_build,
            "three_vector_form": self._on_build,
            "tensor_form": self._on_build,
        }

    # -- hooks ---------------------------------------------------------------

    def _on_mul(self, args, kwargs, result):
        self.values["octonion.products"] += _products(args[0], args[1])

    def _on_resolve(self, args, kwargs, result):
        data = args[0].data
        hmax = float(np.max(np.linalg.norm(data, axis=2)))
        cmax = max(float(np.max(np.linalg.norm(x, axis=2))) for x in (result.a, result.b))
        if hmax > 0:
            self.values["resolve.growth_max"] = max(self.values["resolve.growth_max"], cmax / hmax)
        for name, k in zip(("regular", "split", "degenerate"), _pivot_classes(result)):
            self.values["resolve.pivots_" + name] += k

    def _on_residual(self, args, kwargs, result):
        self.values["resolve.residual_max"] = max(self.values["resolve.residual_max"], result)

    def _on_build(self, args, kwargs, result):
        self.values["quantum_rep.dense_bytes"] += _array_bytes(result, set())

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, group, name, keep_span, hook):
        stack, depth, spans, ids = self.stack, self.depth, self.spans, self._ids
        calls, outer_calls, outer_s, busy = self.calls, self.outer_calls, self.outer_s, self.busy
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = next(ids) if keep_span else parent[1]
            frame = [0.0, span]
            layer_depth, group_depth = depth[layer], depth[group]
            depth[layer] = layer_depth + 1
            depth[group] = group_depth + 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] = layer_depth
                depth[group] = group_depth
                seconds = end - start
                parent[0] += seconds
                calls[group] += 1
                if group_depth == 0:
                    outer_calls[group] += 1
                    outer_s[group] += seconds
                if layer_depth == 0:
                    busy[layer] += seconds
                if keep_span:
                    spans.append((span, parent[1], self.job, name, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "cliffstring" or n.startswith("cliffstring.")]
        for module, attr, group, keep_span in WRAPPED:
            mod = sys.modules.get("cliffstring." + module)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"cliffstring.{module}.{attr}")
                continue
            wrapper = self._wrap(original, module, group, f"{module}.{attr}", keep_span,
                                 self._hooks.get(method))
            self.installed.update((module, group))
            targets = [owner] if owner_name else package
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -- jobs and results ----------------------------------------------------

    def run(self, job_id, fn):
        """Call fn() as the root span of one job; return (result, seconds, callee seconds)."""
        self.job = job_id
        root = self.stack[0]
        root[0], root[1] = 0.0, next(self._ids)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.spans.append((root[1], None, job_id, "job", start, end))
            root[1] = None
        return result, end - start, root[0]

    def counts(self) -> dict:
        out = {"calls." + g: n for g, n in self.calls.items()}
        out.update({"outer_calls." + g: n for g, n in self.outer_calls.items()})
        out.update({k: self.values[k] for k in COUNT_VALUES if k in self.values})
        return out

    def metrics(self, values: dict) -> dict:
        """Per-layer metrics by name; values holds the benchmark-side ones."""
        merged = dict(self.values)
        merged.update(values)
        products = merged.get("octonion.products", 0)
        merged["octonion.ns_per_product"] = (
            1e9 * self.outer_s["octonion.mul"] / products if products else 0.0
        )
        sources = {"busy": self.busy, "outer_s": self.outer_s,
                   "outer_calls": self.outer_calls, "calls": self.calls}
        out = {}
        for name, unit, _, source, key in METRICS:
            if source == "value":
                group = _HOOKED.get(key)
                if group is not None and group not in self.installed:
                    continue
                value = merged.get(key, 0.0)
            elif key not in self.installed:
                continue
            else:
                value = sources[source][key]
            if unit in ("count", "B"):
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out
