"""Tolerances are module constants, not parameters.

Only the pseudo-inverse cutoff is a parameter, because its callers need
different values (example2 runs with 1e-8, ``eval --bounds`` with the
1e-10 default).
"""

import dataclasses
import importlib
import inspect
import pkgutil

import mvk

ALLOWED_TOL_PARAMETERS = {
    "mvk.linalg.pinv_sym.rank_tol",
    "mvk.power.PowerEvaluator.build.rank_tol",
}


def _parameter_names():
    """Qualified names of every parameter and dataclass field in mvk."""
    for info in pkgutil.iter_modules(mvk.__path__):
        mod = importlib.import_module(f"mvk.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{mod.__name__}.{name}"
            if inspect.isfunction(obj):
                functions = [(qual, obj)]
            elif inspect.isclass(obj):
                functions = [
                    (f"{qual}.{attr}", getattr(raw, "__func__", raw))
                    for attr, raw in vars(obj).items()
                ]
                if dataclasses.is_dataclass(obj):
                    yield from (f"{qual}.{f.name}" for f in dataclasses.fields(obj))
            else:
                continue
            for fq, fn in functions:
                if inspect.isfunction(fn):
                    yield from (f"{fq}.{p}" for p in inspect.signature(fn).parameters)


def test_no_tolerance_parameters():
    names = set(_parameter_names())
    assert ALLOWED_TOL_PARAMETERS <= names
    tols = {n for n in names if n.endswith("tol")}
    assert tols == ALLOWED_TOL_PARAMETERS
