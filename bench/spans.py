"""Span tracing of qduality's layers and of the numpy kernels beneath them.

`Tracer.install` wraps, from outside the package, every public function of
each traced qduality module, the public methods and ``__post_init__`` of the
classes defined there, and ``numpy.linalg.eigh/eigvalsh/svd`` and
``numpy.kron``.  Each wrapped call is a span; spans nest on a stack because
the benchmark runs one caller in one thread.  Spans are aggregated as they
close instead of being stored, so memory stays flat over a long run:

* per layer: calls and self time (a span's duration minus its children's);
* per named function: inclusive time of its outermost calls only, so a
  function that calls itself or a sibling of the same name is not counted
  twice;
* per numpy kernel: calls and the bytes of the arrays it returned, computed
  from their shapes (a full-matrices SVD returns m^2 + n^2 entries).

`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "linalg",
    "qobjects",
    "duality",
    "correlations",
    "fixedpoints",
    "serialize",
    "cli",
    "randomgen",
)
NUMPY_KERNELS = (
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "svd"),
    (np, "kron"),
)

# named spans: metric name -> qualified function names whose outermost
# calls it sums
NAMED = {
    "qobjects.validate": (
        "qobjects.DensityOperator.__post_init__",
        "qobjects.KrausChannel.__post_init__",
        "qobjects.Povm.__post_init__",
    ),
    "qobjects.choi": ("qobjects.KrausChannel.choi",),
    "duality.iso_forward": ("duality.iso_forward",),
    "duality.iso_reverse": ("duality.iso_reverse",),
    "fixedpoints.decompose": ("fixedpoints.decompose_fixed_algebra",),
    "serialize.load": (
        "serialize.load",
        "serialize.json_to_matrix",
        "serialize.state_from_json",
        "serialize.channel_from_json",
        "serialize.povm_from_json",
        "serialize.ensemble_from_json",
        "serialize.table_from_json",
    ),
    "serialize.save": (
        "serialize.save",
        "serialize.dumps",
        "serialize.matrix_to_json",
        "serialize.state_to_json",
        "serialize.channel_to_json",
        "serialize.povm_to_json",
        "serialize.ensemble_to_json",
        "serialize.table_to_json",
    ),
}


class _Frame:
    __slots__ = ("layer", "qualname", "start", "child")

    def __init__(self, layer, qualname, start):
        self.layer = layer
        self.qualname = qualname
        self.start = start
        self.child = 0.0


class Tracer:
    """Installs the wrappers and aggregates the spans they record."""

    def __init__(self):
        self._stack = []
        self._active = Counter()  # qualname -> open spans
        self._restore = []
        self.calls = Counter()  # layer -> spans
        self.fn_calls = Counter()  # qualname -> spans
        self.self_s = defaultdict(float)
        self.named_s = defaultdict(float)
        self.kernel_bytes = Counter()
        self._metric_of = {q: name for name, qs in NAMED.items() for q in qs}

    # ------------------------------------------------------------ spans

    def _enter(self, layer, qualname):
        self._active[qualname] += 1
        self._stack.append(_Frame(layer, qualname, perf_counter()))

    def _exit(self):
        end = perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        self.calls[frame.layer] += 1
        self.fn_calls[frame.qualname] += 1
        self.self_s[frame.layer] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        self._active[frame.qualname] -= 1
        metric = self._metric_of.get(frame.qualname)
        if metric and not any(self._active[q] for q in NAMED[metric]):
            self.named_s[metric] += dur

    def _wrap(self, layer, qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer, qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _wrap_kernel(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter("numpy", name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            arrays = out if isinstance(out, tuple) else (out,)
            self.kernel_bytes[name] += sum(np.asarray(a).nbytes for a in arrays)
            return out

        return wrapper

    # ------------------------------------------------------ installation

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap the package's public functions and the numpy kernels."""
        package = importlib.import_module("qduality")
        modules = {layer: importlib.import_module(f"qduality.{layer}") for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                    # rebind every name the function is imported under
                    for ns in namespaces:
                        for alias, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, alias, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for owner, name in NUMPY_KERNELS:
            self._set(owner, name, self._wrap_kernel(name, getattr(owner, name)))

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__post_init__", "__call__"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, qualname, attr.__func__))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(layer, qualname, attr.fget), attr.fset, attr.fdel)
            elif inspect.isfunction(attr):
                new = self._wrap(layer, qualname, attr)
            else:
                continue
            self._set(cls, name, new)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # ----------------------------------------------------------- report

    def per_op(self, ops: int) -> dict:
        """Per-op means of every counter, keyed by per-layer metric name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_ms"] = self.self_s[layer] * 1e3 / ops
        out["linalg.herm_eig_calls"] = self.fn_calls["linalg.herm_eig"] / ops
        for name in NAMED:
            out[f"{name}_ms"] = self.named_s[name] * 1e3 / ops
        for _, name in NUMPY_KERNELS:
            out[f"numpy.{name}_calls"] = self.fn_calls[name] / ops
        for name in ("svd", "kron"):
            out[f"numpy.{name}_out_mib"] = self.kernel_bytes[name] / 2**20 / ops
        out["numpy.self_ms"] = self.self_s["numpy"] * 1e3 / ops
        return out
