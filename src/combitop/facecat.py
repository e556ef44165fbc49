"""The face category of a complex and its cubical classifying-space model.

Objects are the faces together with the empty face; morphisms are
inclusions.  Both cubical models in the package are polyhedral products,
sets of cubes ``lower <= upper`` in {0,1}^m: the coordinates in ``upper``
minus ``lower`` are free, those in ``lower`` sit at 1 and the rest at 0.
The classifying space is (I, 0)^K, the cubes whose ``upper`` is a face or
empty, so its cells are the pairs sigma <= tau of faces.  The real
moment-angle complex (``macomplex``) is (D^1, S^0)^K, the cubes whose free
set is a face.  ``CubicalComplex`` holds either set of cubes, bucketed by
dimension; ``homology.ChainComplex.from_cells`` makes its chains.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable

from ._bits import Value, setfield, submasks, vertices_of
from .homology import ChainComplex
from .simplicial import SimplicialComplex, facet_masks


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
        lower, upper = (set(vertices_of(m)) or "{}" for m in (self.lower, self.upper))
        return f"CubicalCell({lower} <= {upper})"


class CubicalComplex:
    """Cubes as a cell complex: ``cells_by_dim[k]`` holds the k-cubes sorted by (upper, lower)."""

    def __init__(self, cells: Iterable[CubicalCell]) -> None:
        by_dim: dict[int, list[CubicalCell]] = {}
        for cell in cells:
            by_dim.setdefault(cell.dim, []).append(cell)
        key, top = attrgetter("upper", "lower"), max(by_dim, default=-1)
        self.cells_by_dim = [sorted(by_dim.get(k, []), key=key) for k in range(top + 1)]

    def all_cells(self) -> list[CubicalCell]:
        return [c for cells in self.cells_by_dim for c in cells]

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.cells_by_dim))

    def cell_count(self) -> int:
        return sum(self.cell_counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.cell_counts()))

    def chain_complex(self) -> ChainComplex:
        """Each cube's boundary summed into a sparse column, on every call: nothing is cached."""
        return ChainComplex.from_cells(self.cells_by_dim, CubicalCell.boundary)


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
    return CubicalComplex(CubicalCell(sigma, tau) for tau in K.face_masks for sigma in submasks(tau))


def face_subcomplex(K: SimplicialComplex, sigma) -> set[CubicalCell]:
    """Cells of the cone over the faces containing sigma: pairs sigma <= rho <= tau."""
    (smask,) = facet_masks(K.m, [sigma])
    if smask not in K.face_masks:
        raise ValueError(f"{vertices_of(smask)} is not a face")
    return {CubicalCell(smask | extra, tau)
            for tau in K.face_masks if not smask & ~tau for extra in submasks(tau & ~smask)}
