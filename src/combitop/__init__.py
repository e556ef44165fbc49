"""Combinatorial, algebraic, and homological invariants of finite simplicial complexes.

The package computes flagifications and missing faces, Stanley-Reisner
(co)algebra bases and Hilbert series in three gradings, normal forms in
right-angled Coxeter/Artin/circulation groups, cubical models of the
face-category classifying space and of the real moment-angle complex with
exact integral homology, coordinate subspace arrangement data, and the
derived connectivity bounds.

Public names are imported from their module on first use (PEP 562), so a
process loads only the modules it touches.
"""

import importlib

# Eager: ``combitop.arrangement`` names both this function and its module, and
# importing the module binds the module here unless the function is bound first.
from .arrangement import arrangement

__version__ = "0.1.0"

#: The module that defines each public name; ``__getattr__`` imports it on first use.
_HOME = {
    name: module
    for module, names in {
        "arrangement": "Arrangement arrangement",
        "connectivity": "ConnectivityReport connectivity_report pair_connectivity",
        "facecat": "CubicalCell CubicalComplex chain_count cubical_model face_subcomplex object_count",
        "graphprod": "CommutationGraph GroupWord abelianize cartier_foata_blocks equal"
        " in_commutator_subgroup is_abelian_restriction normal_form word wordlength",
        "homology": "ChainComplex HomologyGroup smith_normal_form",
        "macomplex": "moment_angle_homology orbit_counts real_moment_angle",
        "simplicial": "SimplicialComplex discrete_complex full_simplex polygon_boundary"
        " simplex_boundary",
        "sralg": "GradingMode HilbertSeries Monomial coproduct hilbert_series monomial_basis"
        " multiply",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
