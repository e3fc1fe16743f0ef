"""Per-layer spans and counts for meshrep, recorded from outside the package.

`Tracer.install()` replaces each listed function in its defining module and
at every other binding of the same object in a `meshrep.*` module namespace
(most modules import with `from .linalg import rref`), and wraps methods on
their class.  Timed functions record a span (name, parent span, start, end)
into in-memory arrays; the hot constructors are only counted.  `summary()`
turns the spans into per-function and per-layer figures after the run.

Metric names are `<layer>.<function>.<stat>`:
  calls          number of calls
  self_s         span time minus the time covered by child spans
  ops_computed   sum of r*c*min(r,c) over rref inputs (computed, not timed)
  found          calls that returned a result rather than giving up
plus `<layer>.self_s`, `<layer>.total_s` (time inside the layer's outermost
spans), `suites.self_s` (time outside every span: the suite's own code,
`shapes`, and untraced helpers) and `trace.overhead_ratio` (set by run.py).
"""

from __future__ import annotations

import importlib
import operator
import pkgutil
import sys
import time
from array import array
from functools import wraps
from typing import Callable, Dict, List, Tuple

# layer -> functions that get a span; "Cls.meth" names a method.
TIMED: Dict[str, Tuple[str, ...]] = {
    "linalg": ("rref", "kernel_basis", "solve", "column_space_basis"),
    "rep": ("decompose", "generalized_rank", "hom_space", "find_isomorphism"),
    "derived": ("homology_rep", "homology_dims", "cone", "mapping_cylinder",
                "mapping_path", "normalize", "minimize", "is_bicartesian"),
    "functors": ("reflect_plus_obj", "reflect_minus_obj", "coxeter_plus",
                 "coxeter_minus", "serre", "transport"),
    "armesh": ("build_ar", "pushout", "pullback", "stiffen", "ARDiagram.verify"),
    "bimod": ("cancel_tensor", "bar_tensor_oracle", "bimodules_quasi_isomorphic"),
    "tilting": ("apply_bimodule", "functor_kernel", "iter_tilt"),
    "highertri": ("canonical_phi", "homology_matrix", "is_distinguished",
                  "standard_triangle", "phi_is_canonical", "find_triangle_morphism"),
}
# layer -> hot functions that are counted but not timed (10^5-10^6 calls a run).
COUNTED: Dict[str, Tuple[str, ...]] = {
    "linalg": ("Matrix.__init__", "Matrix.zeros"),
    "rep": ("Rep.__init__",),
    "derived": ("Complex.diff",),
}
# Randomized searches: also count the calls that found something.
SEARCHES = ("rep.find_isomorphism", "highertri.find_triangle_morphism")
LAYERS = tuple(TIMED)


def _span_names() -> List[str]:
    """Every span name; rref is split by field into rref.q and rref.fp."""
    out = []
    for layer, funcs in TIMED.items():
        for f in funcs:
            if layer == "linalg" and f == "rref":
                out += ["linalg.rref.q", "linalg.rref.fp"]
            else:
                out.append(f"{layer}.{f}")
    return out


SPAN_NAMES = _span_names()


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name.startswith("linalg.rref."):
            units[f"{name}.ops_computed"] = "ops"
        if name in SEARCHES:
            units[f"{name}.found"] = "count"
    for layer, funcs in COUNTED.items():
        for f in funcs:
            units[f"{layer}.{f}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
    units["suites.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def count_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """The metrics that must repeat exactly on the same seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".ops_computed", ".found"))}


def meshrep_modules() -> List:
    """Import every meshrep submodule and return all loaded meshrep modules."""
    import meshrep
    for info in pkgutil.iter_modules(meshrep.__path__):
        importlib.import_module(f"meshrep.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "meshrep" or name.startswith("meshrep.")]


def _lookup(module, qualname: str):
    """(owner, attribute, raw object, plain function) for a function or method."""
    if "." not in qualname:
        fn = getattr(module, qualname)
        return module, qualname, fn, fn
    cls_name, attr = qualname.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    return cls, attr, raw, getattr(raw, "__func__", raw)


def _same_kind(raw, wrapper):
    """Re-wrap as staticmethod/classmethod when the original was one."""
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(wrapper)
    return wrapper


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}
        self.originals: Dict[str, Callable] = {}

    # -- wrappers ------------------------------------------------------------

    def _open(self, sid: int) -> int:
        i = len(self.starts)
        self.names.append(sid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn: Callable) -> Callable:
        sid, opened, close = self._ids[name], self._open, self._close

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = opened(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return wrapper

    def _timed_rref(self, fn: Callable) -> Callable:
        q, fp, opened, close = (self._ids["linalg.rref.q"], self._ids["linalg.rref.fp"],
                                self._open, self._close)
        counts = self.counts
        counts["linalg.rref.q.ops_computed"] = counts["linalg.rref.fp.ops_computed"] = 0

        @wraps(fn)
        def wrapper(m):
            key = "linalg.rref.q.ops_computed" if m.field.is_rational else "linalg.rref.fp.ops_computed"
            counts[key] += m.nrows * m.ncols * min(m.nrows, m.ncols)
            i = opened(q if m.field.is_rational else fp)
            try:
                return fn(m)
            finally:
                close(i)
        return wrapper

    def _timed_search(self, name: str, fn: Callable) -> Callable:
        inner, counts, key = self._timed(name, fn), self.counts, f"{name}.found"
        counts[key] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            got = inner(*args, **kwargs)
            if got is not None:
                counts[key] += 1
            return got
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts, key = self.counts, f"{name}.calls"
        counts[key] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every binding; raise if one is missed."""
        modules = meshrep_modules()
        plan = [(layer, f, True) for layer, fs in TIMED.items() for f in fs]
        plan += [(layer, f, False) for layer, fs in COUNTED.items() for f in fs]
        for layer, qualname, timed in plan:
            name = f"{layer}.{qualname}"
            owner, attr, raw, fn = _lookup(sys.modules[f"meshrep.{layer}"], qualname)
            if not timed:
                wrapper = self._counted(name, fn)
            elif name == "linalg.rref":
                wrapper = self._timed_rref(fn)
            elif name in SEARCHES:
                wrapper = self._timed_search(name, fn)
            else:
                wrapper = self._timed(name, fn)
            self.originals[name] = fn
            setattr(owner, attr, _same_kind(raw, wrapper))
            if owner is not sys.modules[f"meshrep.{layer}"]:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        missed = original_bindings(self.originals.values(), modules)
        if missed:
            raise RuntimeError(f"tracer left original bindings: {missed}")

    # -- results -------------------------------------------------------------

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-function and per-layer figures from the recorded spans."""
        n = len(self.starts)
        names, parents = self.names, self.parents
        layer_of = [LAYERS.index(s.split(".")[0]) for s in SPAN_NAMES]
        dur = array("d", map(operator.sub, self.ends, self.starts))
        child = array("d", bytes(8 * n))
        mask = array("L", bytes(array("L").itemsize * n))  # bit L: an ancestor is in layer L
        root_s = 0.0
        for i in range(n):
            p = parents[i]
            if p < 0:
                root_s += dur[i]
            else:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << layer_of[names[p]])
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.total_s"] = 0.0
        for i in range(n):
            name = SPAN_NAMES[names[i]]
            layer = LAYERS[layer_of[names[i]]]
            self_s = dur[i] - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            if not mask[i] & (1 << layer_of[names[i]]):
                out[f"{layer}.total_s"] += dur[i]
        out.update(self.counts)
        out["suites.self_s"] = wall_s - root_s
        return out


def original_bindings(originals, modules) -> List[str]:
    """Places in meshrep modules that still hold one of `originals`.

    Looks at module namespaces, containers held by a module, class
    attributes (through staticmethod/classmethod) and function defaults.
    """
    ids = {id(fn) for fn in originals}
    missed = []

    def check(value, where):
        fn = getattr(value, "__func__", value)
        if id(fn) in ids:
            missed.append(where)
        defaults = list(getattr(fn, "__defaults__", None) or ())
        defaults += (getattr(fn, "__kwdefaults__", None) or {}).values()
        missed.extend(f"{where} default" for v in defaults if id(v) in ids)

    for mod in modules:
        for key, value in vars(mod).items():
            where = f"{mod.__name__}.{key}"
            check(value, where)
            if isinstance(value, dict):
                for k, v in value.items():
                    check(v, f"{where}[{k!r}]")
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    check(v, f"{where}[...]")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    check(v, f"{where}.{k}")
    return missed
