"""Chromatic quasisymmetric functions of natural unit interval orders.

The package computes the chromatic quasisymmetric function of a natural
unit interval order, in single-color and multi-color variants, through
three interlocking toolkits: heaps of unit blocks with local flips, a
quotient of the free algebra by order-compatible straightening rules,
and an exact commutative symmetric/quasisymmetric function substrate.

Each export is imported from its module on first access (PEP 562), so
importing the package, or one of its modules, loads no module that it
does not read.
"""

_HOMES = {
    "errors": ("MathematicalError", "CrossCheckError"),
    "qpoly": ("QPoly", "q_int", "q_factorial"),
    "posets": ("UnitIntervalOrder", "DyckPath"),
    "heaps": ("Heap", "HeapClass", "enumerate_heaps", "enumerate_classes"),
    "ncsf": ("NCElement", "nc_e", "nc_h", "nc_p", "nc_s", "nc_m", "pair_gamma"),
    "symfunc": ("SymFunc", "QSymFunc", "NotSymmetricError"),
    "chromatic": ("chromatic_sym", "expansion", "ExpansionReport"),
    "oracle": ("coloring_qsym",),
}


def _resolver(module: str, homes: dict):
    """A module __getattr__ (PEP 562) that imports chromheap.<home> on
    first access to a name listed under it in homes, and raises
    AttributeError for any other name."""
    home = {name: mod for mod, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{home[name]}"), name)

    return __getattr__


__getattr__ = _resolver(__name__, _HOMES)


def __dir__():
    return sorted({*globals(), *__all__})


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
