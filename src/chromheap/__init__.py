"""Chromatic quasisymmetric functions of natural unit interval orders.

The package computes the chromatic quasisymmetric function of a natural
unit interval order, in single-color and multi-color variants, through
three interlocking toolkits: heaps of unit blocks with local flips, a
quotient of the free algebra by order-compatible straightening rules,
and an exact commutative symmetric/quasisymmetric function substrate.
"""

from .errors import MathematicalError
from .qpoly import QPoly, q_int, q_factorial
from .posets import UnitIntervalOrder, DyckPath
from .heaps import Heap, HeapClass, enumerate_heaps, enumerate_classes
from .ncsf import NCElement, nc_e, nc_h, nc_p, nc_s, nc_m, pair_gamma
from .symfunc import SymFunc, QSymFunc, NotSymmetricError
from .chromatic import (
    coloring_qsym,
    chromatic_sym,
    expansion,
    ExpansionReport,
    CrossCheckError,
)

__all__ = [
    "MathematicalError",
    "QPoly",
    "q_int",
    "q_factorial",
    "UnitIntervalOrder",
    "DyckPath",
    "Heap",
    "HeapClass",
    "enumerate_heaps",
    "enumerate_classes",
    "NCElement",
    "nc_e",
    "nc_h",
    "nc_p",
    "nc_s",
    "nc_m",
    "pair_gamma",
    "SymFunc",
    "QSymFunc",
    "NotSymmetricError",
    "coloring_qsym",
    "chromatic_sym",
    "expansion",
    "ExpansionReport",
    "CrossCheckError",
]
