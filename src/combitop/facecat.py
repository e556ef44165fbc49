"""The face category of a complex and its cubical classifying-space model.

Objects are the faces together with the empty face; morphisms are
inclusions.  The classifying space embeds in the unit cube I^m: its cells
are the pairs sigma <= tau with tau a face (or empty), spanning the
subcube between the characteristic vectors of sigma and tau.
"""

from __future__ import annotations

from ._bits import Value, iter_vertices, mask_of, popcount, setfield, submasks, vertices_of
from .homology import CubicalComplex
from .simplicial import SimplicialComplex


class CubicalCell(Value):
    """The cube between chi_sigma and chi_tau; free coordinates tau minus sigma."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int) -> None:
        if lower & ~upper:
            raise ValueError("lower vertex set must be contained in the upper one")
        setfield(self, "lower", lower)
        setfield(self, "upper", upper)

    @property
    def dim(self) -> int:
        return popcount(self.upper & ~self.lower)

    def lower_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.lower)

    def upper_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.upper)

    def __repr__(self) -> str:
        return f"CubicalCell({set(self.lower_vertices()) or '{}'} <= {set(self.upper_vertices()) or '{}'})"


def object_count(K: SimplicialComplex) -> int:
    """Number of objects of the face category (faces plus the empty face)."""
    return len(K.face_masks)


def chain_count(K: SimplicialComplex, n: int) -> int:
    """Strictly increasing chains sigma_0 < ... < sigma_n of faces (incl. empty)."""
    if n < 0:
        raise ValueError("chain length must be >= 0")
    faces = sorted(K.face_masks, key=popcount)
    if n == 0:
        return len(faces)
    counts = {f: 1 for f in faces}
    for _ in range(n):
        nxt = {}
        for f in faces:
            total = 0
            for g in faces:
                if g != f and g & f == g:
                    total += counts[g]
            nxt[f] = total
        counts = nxt
    return sum(counts.values())


def _cube_boundary(cell: CubicalCell) -> list[tuple[int, CubicalCell]]:
    terms = []
    sign = 1
    for v in iter_vertices(cell.upper & ~cell.lower):
        bit = 1 << (v - 1)
        terms.append((sign, CubicalCell(cell.lower | bit, cell.upper)))
        terms.append((-sign, CubicalCell(cell.lower, cell.upper & ~bit)))
        sign = -sign
    return terms


def cubical_model(K: SimplicialComplex) -> CubicalComplex:
    """All cells (sigma, tau) with sigma <= tau in K union {empty}."""
    by_dim: dict[int, list[CubicalCell]] = {}
    for tau in K.face_masks:
        for sigma in submasks(tau):
            cell = CubicalCell(sigma, tau)
            by_dim.setdefault(cell.dim, []).append(cell)
    top = max(by_dim)
    cells = [sorted(by_dim.get(k, []), key=lambda c: (c.upper, c.lower)) for k in range(top + 1)]
    return CubicalComplex(cells, _cube_boundary)


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
