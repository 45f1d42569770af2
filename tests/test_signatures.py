"""Tolerances are module constants, not parameters, the names the
benchmark looks up in mvk exist, and only ``linalg`` factors or solves.

Only the pseudo-inverse cutoff is a parameter, because only acceptance
criterion 4 takes a pseudo-inverse, at 1e-8.  ``eval --bounds`` and the
other callers pass none, so that a strictly pd Gramian is factored by
Cholesky without a cutoff and any other by the pivoted Cholesky, which
stops at roundoff.  example2's nested factors skip pivots at RANK_TOL and
take no cutoff either.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _layer_callables():
    """``LAYER_CALLABLES`` of perfbench/run.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "LAYER_CALLABLES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_CALLABLES")


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"mvk.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_hooks_resolve():
    """The benchmark traces mvk callables by name; each name must exist."""
    names = _layer_callables()
    assert names
    for name in names:
        assert callable(_resolve(name)), name
    # names imported from another module; the tracer must rebind each copy
    assert _resolve("cli.fit") is _resolve("tuning.fit") is _resolve("interpolation.fit")
    assert _resolve("power.pinv_sym") is _resolve("interpolation.pinv_sym") is _resolve(
        "linalg.pinv_sym"
    )
    assert callable(_resolve("backends.backend_name"))


# Factorizations and solves that only linalg.py may call, so that every
# route and every policy for a failed Cholesky stays in ``_SymFactor``; the
# LAPACK routines behind them and their module are named too.
SOLVER_NAMES = {"cho_factor", "cho_solve", "solve_triangular", "lu_factor",
                "dpotrf", "dpotrs", "dtrtrs", "_flapack"}


def _solver_uses(path):
    """Solver names a module refers to; ``np.linalg.solve`` as ``linalg.solve``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias) and node.name in SOLVER_NAMES:
            yield node.name
        elif isinstance(node, ast.Name) and node.id in SOLVER_NAMES:
            yield node.id
        elif isinstance(node, ast.Attribute):
            if node.attr in SOLVER_NAMES:
                yield node.attr
            elif node.attr == "solve" and getattr(node.value, "attr", None) == "linalg":
                yield "linalg.solve"


def test_only_linalg_solves():
    src = Path(mvk.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "linalg.py":
            assert not set(_solver_uses(path)), path.name
    # both spellings are detected where they are allowed
    assert {"cho_factor", "linalg.solve"} <= set(_solver_uses(src / "linalg.py"))
    assert _resolve("interpolation.ConditioningError") is _resolve("linalg.ConditioningError")
