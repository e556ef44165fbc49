"""The face category of a complex and its cubical classifying-space model.

Objects are the faces together with the empty face; morphisms are
inclusions.  Both cubical models in the package are polyhedral products,
sets of cubes ``lower <= upper`` in {0,1}^m: the coordinates in ``upper``
minus ``lower`` are free, those in ``lower`` sit at 1 and the rest at 0.
The classifying space is (I, 0)^K, the cubes whose ``upper`` is a face or
empty, so its cells are the pairs sigma <= tau of faces.  The real
moment-angle complex (``macomplex``) is (D^1, S^0)^K, the cubes whose free
set is a face.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable

from ._bits import Value, mask_of, setfield, submasks, vertices_of
from .homology import CubicalComplex
from .simplicial import SimplicialComplex


class CubicalCell(Value):
    """The cube between chi_lower and chi_upper; free coordinates upper minus lower."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int) -> None:
        if lower & ~upper:
            raise ValueError("lower vertex set must be contained in the upper one")
        setfield(self, "lower", lower)
        setfield(self, "upper", upper)

    @property
    def dim(self) -> int:
        return (self.upper & ~self.lower).bit_count()

    def free_vertices(self) -> tuple[int, ...]:
        """The free coordinates: the cell's stabilizer under the sign flips of ``macomplex``."""
        return vertices_of(self.upper & ~self.lower)

    def lower_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.lower)

    def upper_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.upper)

    def boundary(self) -> list[tuple[int, CubicalCell]]:
        """Signed facets: each free coordinate fixed at 1 (+) and at 0 (-), signs alternating."""
        lower, upper = self.lower, self.upper
        terms = []
        sign = 1
        free = upper & ~lower
        while free:
            bit = free & -free
            terms.append((sign, CubicalCell(lower | bit, upper)))
            terms.append((-sign, CubicalCell(lower, upper ^ bit)))
            sign = -sign
            free ^= bit
        return terms

    def __repr__(self) -> str:
        return f"CubicalCell({set(self.lower_vertices()) or '{}'} <= {set(self.upper_vertices()) or '{}'})"


def cube_complex(cells: Iterable[CubicalCell]) -> CubicalComplex:
    """The cubes as a cell complex: bucketed by dimension, each bucket sorted."""
    by_dim: dict[int, list[CubicalCell]] = {}
    for cell in cells:
        by_dim.setdefault(cell.dim, []).append(cell)
    key = attrgetter("upper", "lower")
    cells_by_dim = [sorted(by_dim.get(k, []), key=key) for k in range(max(by_dim) + 1)]
    return CubicalComplex(cells_by_dim, CubicalCell.boundary)


def object_count(K: SimplicialComplex) -> int:
    """Number of objects of the face category (faces plus the empty face)."""
    return len(K.face_masks)


def chain_count(K: SimplicialComplex, n: int) -> int:
    """Strictly increasing chains sigma_0 < ... < sigma_n of faces (incl. empty)."""
    if n < 0:
        raise ValueError("chain length must be >= 0")
    # a chain ending at an s-face (the empty face first) sets the step 0..n at
    # which each vertex joins, every step 1..n used: include-exclude j unused steps
    return sum(
        (-1) ** j * math.comb(n, j) * count * (n + 1 - j) ** s
        for s, count in enumerate((1, *K.f_vector())) for j in range(n + 1)
    )


def cubical_model(K: SimplicialComplex) -> CubicalComplex:
    """All cells (sigma, tau) with sigma <= tau in K union {empty}."""
    return cube_complex(CubicalCell(sigma, tau) for tau in K.face_masks for sigma in submasks(tau))


def face_subcomplex(K: SimplicialComplex, sigma) -> set[CubicalCell]:
    """Cells of the cone over the faces containing sigma: pairs sigma <= rho <= tau."""
    smask = mask_of(sigma)
    if smask not in K.face_masks:
        raise ValueError(f"{tuple(sigma)} is not a face")
    out = set()
    for tau in K.face_masks:
        if smask & tau == smask:
            free = tau & ~smask
            for extra in submasks(free):
                out.add(CubicalCell(smask | extra, tau))
    return out
