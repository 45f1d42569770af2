"""Interpolation of vector-valued functions with separable matrix-valued
kernels, including a-priori error bounds via the power-function and
structural analysis of kernel decompositions."""

import os

__version__ = "0.1.0"

# OpenBLAS's spin limit k: after a threaded call an idle BLAS worker spins
# for up to 2**k TSC cycles before it sleeps (OpenBLAS clamps k to 4..30;
# its default, 28, is about 0.1 s).  numpy and scipy each load their own
# OpenBLAS with its own worker pool, so on a machine with few cores
# numpy's spinning worker takes a core from scipy's Cholesky and
# triangular solves.  Each library reads OPENBLAS_THREAD_TIMEOUT when it
# loads: it is set here, before mvk first imports numpy, and put back once
# ``linalg`` has loaded scipy's LAPACK.  A value already set wins.  The
# limit decides only when an idle worker sleeps, never what a call computes.
# 2**20 cycles is well under a millisecond; 4 and 20 time alike on the
# perfbench workloads.
BLAS_THREAD_TIMEOUT = 20

_preset = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
if _preset is None:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = str(BLAS_THREAD_TIMEOUT)
try:
    from .kernels import PointSet, ScalarKernel, SeparableKernel
    from .interpolation import (
        Interpolant,
        NativeSpanFunction,
        fit,
        load_model,
        native_norm_sq,
        residual_norm_sq,
        save_model,
    )
    from .power import PowerEvaluator, power_additivity_check, scalar_power_sq
    from .decomposition import (
        DecompositionReport,
        analyze,
        commuting_family_check,
        decomposition_equivalent,
        recover_uncoupled,
        simultaneous_diagonalize,
    )
    from .tuning import GridSearchConfig, KernelTemplate, select_shapes
    from .builtin import covariance_eigenbasis
finally:
    if _preset is None:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
    del _preset

__all__ = [
    "PointSet",
    "ScalarKernel",
    "SeparableKernel",
    "Interpolant",
    "NativeSpanFunction",
    "fit",
    "save_model",
    "load_model",
    "native_norm_sq",
    "residual_norm_sq",
    "PowerEvaluator",
    "scalar_power_sq",
    "power_additivity_check",
    "DecompositionReport",
    "analyze",
    "commuting_family_check",
    "simultaneous_diagonalize",
    "recover_uncoupled",
    "decomposition_equivalent",
    "GridSearchConfig",
    "KernelTemplate",
    "covariance_eigenbasis",
    "select_shapes",
]
