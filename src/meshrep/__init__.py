"""meshrep: exact computations with representations of A_n quivers.

Coherent Auslander-Reiten quivers, reflection / Coxeter / Serre / Nakayama
functors, the bimodule tensor calculus with universal tilting modules,
derived Picard relations, and canonical higher triangulations, all over
exact fields (Q or F_p).

The names below are read from their modules on first access (PEP 562), so
`import meshrep` loads no module that the caller does not use.
"""

import importlib

# each public name -> the module that defines it
_HOME = {name: module for module, names in {
    "linalg": ("GF", "QQ", "FieldSpec", "Matrix"),
    "shapes": ("LineQuiver", "MeshWindow", "Poset", "SymmetryElem", "all_orientations"),
    "rep": ("Interval", "Rep", "decompose", "hom_space", "interval_module"),
    "derived": ("ChainMap", "Complex", "DerivedObject", "cone", "fiber", "normalize"),
    "functors": ("coxeter_minus", "coxeter_plus", "reflect_minus", "reflect_plus", "serre", "tau",
                 "transport"),
    "armesh": ("ARDiagram", "build_ar", "mesh_hom_table", "suspension_orbits"),
    "bimod": ("Bimodule", "cancel_tensor", "duality_module", "identity_prof", "linear_dual"),
    "highertri": ("NTriangle", "fill_base", "is_distinguished", "standard_triangle"),
}.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
