"""Interpolation of vector-valued functions with separable matrix-valued
kernels, including a-priori error bounds via the power-function and
structural analysis of kernel decompositions."""

__version__ = "0.1.0"

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
