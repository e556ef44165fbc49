"""Combinatorial, algebraic, and homological invariants of finite simplicial complexes.

The package computes flagifications and missing faces, Stanley-Reisner
(co)algebra bases and Hilbert series in three gradings, normal forms in
right-angled Coxeter/Artin/circulation groups, cubical models of the
face-category classifying space and of the real moment-angle complex with
exact integral homology, coordinate subspace arrangement data, and the
derived connectivity bounds.
"""

from .arrangement import Arrangement, arrangement, in_complement, real_complement_homology
from .connectivity import (
    ConnectivityReport,
    connectivity_report,
    flag_equivalence,
    pair_connectivity,
)
from .facecat import CubicalCell, chain_count, cubical_model, face_subcomplex, object_count
from .graphprod import (
    CommutationGraph,
    GroupWord,
    abelianize,
    cartier_foata_blocks,
    equal,
    in_commutator_subgroup,
    is_abelian_restriction,
    normal_form,
    word,
    wordlength,
)
from .homology import ChainComplex, CubicalComplex, HomologyGroup, smith_normal_form
from .macomplex import moment_angle_homology, orbit_counts, real_moment_angle, stabilizer
from .simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    polygon_boundary,
    simplex_boundary,
)
from .sralg import (
    GradingMode,
    HilbertSeries,
    Monomial,
    coproduct,
    hilbert_series,
    monomial_basis,
    multiply,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "ChainComplex",
    "CommutationGraph",
    "ConnectivityReport",
    "CubicalCell",
    "CubicalComplex",
    "GradingMode",
    "GroupWord",
    "HilbertSeries",
    "HomologyGroup",
    "Monomial",
    "SimplicialComplex",
    "abelianize",
    "arrangement",
    "cartier_foata_blocks",
    "chain_count",
    "connectivity_report",
    "coproduct",
    "cubical_model",
    "discrete_complex",
    "equal",
    "face_subcomplex",
    "flag_equivalence",
    "full_simplex",
    "hilbert_series",
    "in_commutator_subgroup",
    "in_complement",
    "is_abelian_restriction",
    "moment_angle_homology",
    "monomial_basis",
    "multiply",
    "normal_form",
    "object_count",
    "orbit_counts",
    "pair_connectivity",
    "polygon_boundary",
    "real_complement_homology",
    "real_moment_angle",
    "simplex_boundary",
    "smith_normal_form",
    "stabilizer",
    "word",
    "wordlength",
]
