"""Coordinate subspace arrangements attached to a complex.

The arrangement is generated by the coordinate subspaces of the minimal
non-faces; a point lies in the complement exactly when its zero set of
coordinates is a face.  Over the reals the complement has the homology of
the real moment-angle complex, which this module takes from the stable
splitting in ``macomplex``; the cubical model stays the independent check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._bits import Value, setfield
from .simplicial import SimplicialComplex

if TYPE_CHECKING:
    from .homology import HomologyGroup

FIELDS = ("R", "C", "E")

_CODIM_PER_VERTEX = {"R": 1, "C": 2, "E": 1}


class Arrangement(Value):
    __slots__ = ("field", "generators")

    def __init__(self, field: str, generators: tuple[tuple[int, ...], ...]) -> None:
        setfield(self, "field", field)
        setfield(self, "generators", generators)

    def codimensions(self) -> tuple[int, ...]:
        """Real codimension of each generating subspace."""
        per = _CODIM_PER_VERTEX[self.field]
        return tuple(per * len(g) for g in self.generators)


def arrangement(K: SimplicialComplex, field: str) -> Arrangement:
    """Maximal subspaces of the arrangement: one per minimal non-face."""
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    return Arrangement(field, tuple(K.missing_faces()))


def in_complement(K: SimplicialComplex, zero_set) -> bool:
    """Does a point whose vanishing coordinates are ``zero_set`` avoid the arrangement?"""
    return K.has_face(zero_set)


def real_complement_homology(
    K: SimplicialComplex, mod2: bool = False
) -> list[HomologyGroup]:
    """Homology of the real arrangement complement: that of the moment-angle complex."""
    # imported here: the package imports this module eagerly, and most commands need no homology
    from .macomplex import moment_angle_homology

    return moment_angle_homology(K, mod2=mod2)
