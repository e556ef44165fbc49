"""Coordinate subspace arrangements attached to a complex.

The arrangement is generated by the coordinate subspaces of the minimal
non-faces.  A point avoids it exactly when its zero set is a face
(``SimplicialComplex.has_face``), and over the reals the complement has the
homology of the real moment-angle complex (``macomplex.moment_angle_homology``).
"""

from ._bits import Value, setfield
from .simplicial import SimplicialComplex

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

