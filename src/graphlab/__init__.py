"""Exact divisor-function graphs, topological indices, and claim verification."""

from .exact import RadicalSum, Value, normalize, sqf_decompose, to_decimal
from .graphs import DivisorGraph, build_gamma, build_general
from .indices import INDEX_NAMES, compute_index, compute_indices

__version__ = "0.1.0"

__all__ = [
    "RadicalSum",
    "Value",
    "normalize",
    "sqf_decompose",
    "to_decimal",
    "DivisorGraph",
    "build_gamma",
    "build_general",
    "INDEX_NAMES",
    "compute_index",
    "compute_indices",
    "__version__",
]
