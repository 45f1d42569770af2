"""Spans and counts around the public callables of every ``mvk`` module.

The tracer replaces each public function and method defined in an ``mvk``
module with a wrapper that times the call.  A call's self time is its span
minus the spans of the wrapped calls made inside it; spans are aggregated
in memory per callable (calls, total, self) and returned at the end.

Some counts are computed from argument shapes or results (kernel entries,
bytes of the dense arrays built, n^3 of the eigendecompositions, solver
paths); they repeat exactly for the same inputs.

Modules import some callables by name (``cli`` and ``tuning`` import
``fit``; ``power`` and ``interpolation`` import ``pinv_sym``).  Those names
are rebound to the wrappers, and :meth:`Tracer.check_bindings` fails if any
``mvk`` module or class still holds an unwrapped original.
"""

import functools
import inspect
import sys
import time

import numpy as np


def _rows(a):
    a = np.asarray(a)
    return a.shape[0] if a.ndim == 2 else 1


def _cross_entries(X, Y, *_, **__):
    return {"entries": _rows(X) * _rows(Y)}


def _method_cross_entries(self, X, Y, *_, **__):
    return _cross_entries(X, Y)


def _gramian_bytes(self, X, *_, **__):
    return {"bytes": (X.n * self.m) ** 2 * 8}


def _cross_many_bytes(self, Xq, X, *_, **__):
    return {"bytes": _rows(Xq) * self.m ** 2 * X.n * 8}


def _n3(A, *_, **__):
    return {"n3": np.shape(A)[0] ** 3}


# Counts computed from the arguments of a call, keyed by callable name.
ARG_COUNTS = {
    "backends.gaussian_cross": _cross_entries,
    "kernels.ScalarKernel.cross": _method_cross_entries,
    "kernels.SeparableKernel.gramian": _gramian_bytes,
    "kernels.SeparableKernel.cross_many": _cross_many_bytes,
    "linalg.pinv_sym": _n3,
    "linalg.sym_eig": _n3,
}


def _fit_counts(result):
    info = result.solver_info
    return {f"path.{info['path']}": 1}, {"residual_max": float(info["residual"])}


def _select_shapes_counts(result):
    return {"candidates": result.n_candidates, "failed": result.n_failed}, {}


# Counts (summed) and maxima taken from the result of a call.
RESULT_COUNTS = {
    "interpolation.fit": _fit_counts,
    "tuning.select_shapes": _select_shapes_counts,
}

# The CLI entry point is timed by the caller; wrapping it would turn the
# whole call into one span and hide what is left unattributed.
SKIP = {"cli.main"}


class BindingError(RuntimeError):
    """An mvk namespace still holds an unwrapped original callable."""


class Tracer:
    """Wraps the public callables of the loaded ``mvk`` modules."""

    def __init__(self):
        self.stats = {}       # name -> [calls, total_s, self_s]
        self.counts = {}      # "name.counter" -> summed count
        self.maxima = {}      # "name.counter" -> max value
        self.top_level_s = 0.0
        self._stack = []      # child-time accumulators of the open spans
        self._originals = {}  # id(original) -> (original, wrapper)

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every public callable of every loaded ``mvk`` module."""
        modules = self._modules()
        for mod in modules:
            short = mod.__name__.partition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        setattr(mod, attr, self._wrap(name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        # Rebind names imported from another module (``from .x import f``).
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if self._is_original(obj):
                    setattr(mod, attr, self._originals[id(obj)][1])
        self.check_bindings()
        return self

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if (n == "mvk" or n.startswith("mvk.")) and m is not None]

    def check_bindings(self):
        """Raise :class:`BindingError` if an original is still reachable."""
        left = []
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                if self._is_original(obj):
                    left.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__.startswith("mvk"):
                    for cattr, raw in vars(obj).items():
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if self._is_original(fn):
                            left.append(f"{mod.__name__}.{attr}.{cattr}")
        if left:
            raise BindingError("unwrapped callables left: " + ", ".join(sorted(set(left))))

    def _is_original(self, obj):
        hit = self._originals.get(id(obj))
        return hit is not None and hit[0] is obj

    # ------------------------------------------------------------- spans

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        arg_count = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt
            if arg_count is not None:
                self._add(name, arg_count(*args, **kwargs), {})
            if result_count is not None:
                self._add(name, *result_count(result))
            return result

        self._originals[id(fn)] = (fn, wrapper)
        return wrapper

    def _add(self, name, counts, maxima):
        for k, v in counts.items():
            key = f"{name}.{k}"
            self.counts[key] = self.counts.get(key, 0) + v
        for k, v in maxima.items():
            key = f"{name}.{k}"
            self.maxima[key] = max(self.maxima.get(key, v), v)

    def report(self):
        """JSON-ready spans and counts."""
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in self.stats.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "top_level_s": self.top_level_s,
        }
