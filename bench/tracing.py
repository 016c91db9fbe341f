"""Span tracing of the liecurv layers from outside the package.

``Tracer.install()`` replaces selected public functions and methods of the
``liecurv`` modules with thin wrappers that record one span per call (name,
start, end, parent) in flat in-memory arrays; ``Tracer.restore()`` puts every
original object back.  Nothing under ``src/`` is modified.

A span's layer is the module that owns the wrapped code.  A layer's self time
is the time covered by its spans minus the time covered by their child spans,
so the self times of all layers add up to the root span (``cli.run``).
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: Wrapped functions and methods: (module, owner, attribute), the public entry
#: points of each layer that the four workloads reach.  ``owner`` is ``None``
#: for module-level functions, else the class name.  Modules that
#: bound a wrapped function by name (``cli`` imports ``sample_planes`` and
#: the curvature numerators, ``catalog`` imports ``build_semidirect``) are
#: patched too, by identity, so every call path goes through the wrapper.
TARGETS = (
    ("cli", None, "run"),
    ("cli", None, "_emit"),
    ("catalog", None, "resolve_algebra"),
    ("catalog", None, "resolve_semidirect"),
    ("algebra", None, "validate"),
    ("algebra", "DenseBackend", "bracket"),
    ("algebra", "DenseBackend", "inner"),
    ("algebra", "DenseBackend", "ad_transpose"),
    ("algebra", "DenseBackend", "norm"),
    ("algebra", "DenseBackend", "ad"),
    ("algebra", "DenseBackend", "gram_solve"),
    ("semidirect", None, "validate_action"),
    ("semidirect", None, "build_semidirect"),
    ("semidirect", "SemidirectAlgebra", "b"),
    ("semidirect", "SemidirectAlgebra", "b_transpose"),
    ("semidirect", "SemidirectAlgebra", "h_map"),
    ("backend", "SemidirectBackendBase", "bracket"),
    ("backend", "SemidirectBackendBase", "inner"),
    ("backend", "SemidirectBackendBase", "ad_transpose"),
    ("curvature", None, "curvature_numerator_generic"),
    ("curvature", None, "curvature_numerator_semidirect"),
    ("sampling", None, "sample_planes"),
    ("sampling", None, "random_element"),
    ("geodesic", None, "integrate"),
    ("geodesic", None, "geodesic_rhs"),
    ("geodesic", None, "rhs_generic"),
    ("geodesic", None, "rhs_semidirect"),
    ("configio", None, "load_state_file"),
    ("configio", None, "scan_csv_lines"),
    ("configio", None, "trajectory_csv_lines"),
    ("configio", None, "trajectory_jsonl_lines"),
    ("torus", None, "multiply"),
    ("torus", None, "leray_project"),
    ("torus", None, "truncate_state"),
    ("torus", None, "ad_transpose_vol"),
    ("torus", "_FieldBackend", "inner"),
    ("torus", "_FieldBackend", "norm"),
    ("torus", "_FieldBackend", "bracket"),
    ("torus", "FieldRepSpaceBackend", "inner"),
    ("torus", "FieldRepSpaceBackend", "norm"),
    ("torus", "MhdBackend", "b"),
    ("torus", "MhdBackend", "b_transpose"),
    ("torus", "MhdBackend", "h_map"),
)

LAYERS = ("cli", "catalog", "algebra", "semidirect", "backend", "curvature",
          "sampling", "geodesic", "configio", "torus")

ALGEBRA_CALLS = {"algebra.bracket", "algebra.inner", "algebra.ad_transpose", "algebra.norm"}
SEMIDIRECT_CALLS = {"semidirect.b", "semidirect.b_transpose", "semidirect.h_map"}
BACKEND_CALLS = {"backend.bracket", "backend.inner", "backend.ad_transpose"}
LOAD_SPANS = {"configio.load_state_file"}
EMIT_SPANS = {"configio.scan_csv_lines", "configio.trajectory_csv_lines",
              "configio.trajectory_jsonl_lines", "cli._emit"}
RESOLVE_SPANS = {"catalog.resolve_algebra", "catalog.resolve_semidirect"}
NUMERATOR_SPANS = {"curvature.curvature_numerator_generic",
                   "curvature.curvature_numerator_semidirect"}

#: Per-layer metrics, in the order they are reported, with units.
PER_LAYER_UNITS = {
    "sampling.self_s": "s",
    "sampling.draws": "count",
    "sampling.accept_ratio": "ratio",
    "curvature.self_s": "s",
    "curvature.planes": "count",
    "semidirect.self_s": "s",
    "semidirect.calls": "count",
    "algebra.self_s": "s",
    "algebra.calls": "count",
    "algebra.validate_s": "s",
    "catalog.resolve_s": "s",
    "backend.self_s": "s",
    "backend.calls": "count",
    "geodesic.self_s": "s",
    "geodesic.rhs_evals": "count",
    "geodesic.rhs_evals_per_step": "count",
    "geodesic.energy_drift": "ratio",
    "torus.self_s": "s",
    "torus.multiply_s": "s",
    "torus.multiply.calls": "count",
    "torus.multiply.mode_pairs": "count",
    "torus.leray_project_s": "s",
    "torus.max_modes": "count",
    "torus.dropped_l2": "ratio",
    "configio.load_s": "s",
    "configio.emit_s": "s",
    "configio.output_bytes": "bytes",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class SpanRecorder:
    """Flat arrays of spans: name id, start, end and parent index (-1 = root)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear()

    def clear(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def arrays(self):
        """(name ids, durations, parent indices) of the recorded spans."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return ids, dur, np.frombuffer(self.parent, dtype=np.int32)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the summed durations of its direct children."""
        _, dur, parent = self.arrays()
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return dur - child

    def totals(self):
        """(inclusive seconds, self seconds, calls) per span name."""
        ids, dur, _ = self.arrays()
        n = len(self.names)
        return (np.bincount(ids, weights=dur, minlength=n),
                np.bincount(ids, weights=self.self_times(), minlength=n),
                np.bincount(ids, minlength=n))


class Tracer:
    """Installs span wrappers on the liecurv layers and derives per-round metrics."""

    def __init__(self, package):
        self.package = package
        self.rec = SpanRecorder()
        self._saved: list[tuple[object, str, object]] = []
        self.reset_counters()

    def reset_counters(self):
        self.rec.clear()
        self.mode_pairs = 0
        self.max_modes = 0
        self.dropped_l2 = 0.0
        self.rhs_evals = 0
        self.steps = 0
        self.trajectories = []
        self.accepted = 0

    # -- hooks that count work at the boundary where it happens --

    def _before_multiply(self, f, g):
        nf, ng = len(f.modes), len(g.modes)
        self.mode_pairs += nf * ng
        self.max_modes = max(self.max_modes, nf, ng)

    def _after_truncate(self, state, result):
        torus = self.package.torus
        inner = {torus.TrigVectorField: torus.field_inner,
                 torus.TrigFunction: torus.function_inner}.get(type(state))
        if inner is None:  # a Pair: its parts pass through the wrapper themselves
            return
        total = inner(state, state)
        if total > 0.0:
            # kept modes cancel exactly, so the difference holds just the dropped ones
            dropped = state - result
            self.dropped_l2 = max(self.dropped_l2, inner(dropped, dropped) / total)

    def _wrap(self, module_name: str, attr: str, fn):
        name_id = self.rec.intern(f"{module_name}.{attr}")
        rec = self.rec

        if (module_name, attr) == ("torus", "multiply"):
            before = self._before_multiply

            def wrapper(f, g):
                before(f, g)
                idx = rec.open(name_id)
                try:
                    return fn(f, g)
                finally:
                    rec.close(idx)
        elif (module_name, attr) == ("torus", "truncate_state"):
            after = self._after_truncate

            def wrapper(state, cap):
                idx = rec.open(name_id)
                try:
                    result = fn(state, cap)
                finally:
                    rec.close(idx)
                after(state, result)
                return result
        elif (module_name, attr) == ("geodesic", "integrate"):
            tracer = self

            def counted(rhs):
                def inner(state):
                    tracer.rhs_evals += 1
                    return rhs(state)
                return inner

            def wrapper(rhs, state0, config, backend):
                idx = rec.open(name_id)
                try:
                    traj = fn(counted(rhs), state0, config, backend)
                finally:
                    rec.close(idx)
                tracer.steps += config.steps
                tracer.trajectories.append(traj)
                return traj
        elif (module_name, attr) == ("geodesic", "geodesic_rhs"):
            rhs_id = self.rec.intern("geodesic.rhs")

            def wrapper(backend):
                idx = rec.open(name_id)
                try:
                    rhs = fn(backend)
                finally:
                    rec.close(idx)

                def traced_rhs(state):
                    i = rec.open(rhs_id)
                    try:
                        return rhs(state)
                    finally:
                        rec.close(i)
                return traced_rhs
        elif (module_name, attr) == ("sampling", "sample_planes"):
            tracer = self

            def wrapper(*args, **kwargs):
                idx = rec.open(name_id)
                try:
                    planes = fn(*args, **kwargs)
                finally:
                    rec.close(idx)
                tracer.accepted += len(planes)
                return planes
        else:
            def wrapper(*args, **kwargs):
                idx = rec.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        replaced = {}
        for module_name, owner_name, attr in TARGETS:
            module = getattr(pkg, module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(module_name, attr, original)
            self._set(owner, attr, wrapper)
            if owner_name is None:
                replaced[id(original)] = (original, wrapper)
        # functions bound by name in other modules (``from .x import f``)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- derived metrics for one round --

    def round_metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since the last reset."""
        names = self.rec.names
        incl, own, calls = self.rec.totals()
        by_name = {n: i for i, n in enumerate(names)}

        def inclusive(span_names):
            return float(sum(incl[by_name[n]] for n in span_names if n in by_name))

        def count(span_names):
            return int(sum(calls[by_name[n]] for n in span_names if n in by_name))

        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, n in enumerate(names):
            layer_self[n.split(".", 1)[0]] += float(own[i])

        # planes evaluated from outside the curvature layer (nested numerators excluded)
        ids, _, parent = self.rec.arrays()
        numerator = np.array([n in NUMERATOR_SPANS for n in names], dtype=bool)
        # the extra entry stands for "no parent"
        in_curvature = np.array([n.startswith("curvature.") for n in names] + [False], dtype=bool)
        parent_ids = np.where(parent >= 0, ids[parent], len(names))
        planes = int(np.sum(numerator[ids] & ~in_curvature[parent_ids]))

        drift = 0.0
        for traj in self.trajectories:
            e0 = traj.energy[0]
            if e0:
                drift = max(drift, max(abs(e - e0) for e in traj.energy) / e0)
        draws = count({"sampling.random_element"}) / 2.0
        return {
            "sampling.self_s": layer_self["sampling"],
            "sampling.draws": draws,
            "sampling.accept_ratio": self.accepted / draws if draws else 0.0,
            "curvature.self_s": layer_self["curvature"],
            "curvature.planes": planes,
            "semidirect.self_s": layer_self["semidirect"],
            "semidirect.calls": count(SEMIDIRECT_CALLS),
            "algebra.self_s": layer_self["algebra"],
            "algebra.calls": count(ALGEBRA_CALLS),
            "algebra.validate_s": inclusive({"algebra.validate"}),
            "catalog.resolve_s": inclusive(RESOLVE_SPANS),
            "backend.self_s": layer_self["backend"],
            "backend.calls": count(BACKEND_CALLS),
            "geodesic.self_s": layer_self["geodesic"],
            "geodesic.rhs_evals": self.rhs_evals,
            "geodesic.rhs_evals_per_step": self.rhs_evals / self.steps if self.steps else 0.0,
            "geodesic.energy_drift": drift,
            "torus.self_s": layer_self["torus"],
            "torus.multiply_s": inclusive({"torus.multiply"}),
            "torus.multiply.calls": count({"torus.multiply"}),
            "torus.multiply.mode_pairs": self.mode_pairs,
            "torus.leray_project_s": inclusive({"torus.leray_project"}),
            "torus.max_modes": self.max_modes,
            "torus.dropped_l2": self.dropped_l2,
            "configio.load_s": inclusive(LOAD_SPANS),
            "configio.emit_s": inclusive(EMIT_SPANS),
            "configio.output_bytes": output_bytes,
            "cli.self_s": layer_self["cli"],
        }
