"""The real moment-angle complex of K inside [-1,1]^m.

Its cubical model has a cell (J, signs) for each face J of K spanning the
free coordinates and each choice of +-1 for the coordinates outside J.  The
sign-flip action of C2^m permutes cells; coordinate i fixes a cell exactly
when i lies in J.

Homology comes from the real stable splitting instead of the cubical
chains: H_i = sum over W of the reduced homology H~_{i-1}(K_W) of the full
subcomplexes, torsion included.  The cubical model's own homology
(``real_moment_angle(K).homology()``) is kept as the independent check.
"""

from __future__ import annotations

from ._bits import Value, iter_vertices, popcount, setfield, vertices_of
from .homology import CubicalComplex, HomologyGroup, invariant_factors
from .simplicial import SimplicialComplex

MAX_MA_VERTICES = 16


class MACell(Value):
    """Cube with free coordinates J; ``neg`` marks the -1 coordinates outside J."""

    __slots__ = ("m", "free", "neg")

    def __init__(self, m: int, free: int, neg: int) -> None:
        if neg & free:
            raise ValueError("sign bits must avoid the free coordinates")
        if (free | neg) >> m:
            raise ValueError("coordinate out of range")
        setfield(self, "m", m)
        setfield(self, "free", free)
        setfield(self, "neg", neg)

    @property
    def dim(self) -> int:
        return popcount(self.free)

    def free_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.free)

    def signs(self) -> dict[int, int]:
        fixed = ((1 << self.m) - 1) & ~self.free
        return {v: -1 if self.neg & (1 << (v - 1)) else 1 for v in iter_vertices(fixed)}

    def __repr__(self) -> str:
        sgn = "".join(
            "*" if self.free & (1 << i) else ("-" if self.neg & (1 << i) else "+")
            for i in range(self.m)
        )
        return f"MACell({sgn})"


def _ma_boundary(cell: MACell) -> list[tuple[int, MACell]]:
    terms = []
    sign = 1
    for v in iter_vertices(cell.free):
        bit = 1 << (v - 1)
        rest = cell.free & ~bit
        terms.append((sign, MACell(cell.m, rest, cell.neg)))
        terms.append((-sign, MACell(cell.m, rest, cell.neg | bit)))
        sign = -sign
    return terms


def _check_vertex_cap(K: SimplicialComplex) -> None:
    if K.m > MAX_MA_VERTICES:
        raise ValueError(
            f"moment-angle model limited to {MAX_MA_VERTICES} vertices, got {K.m}"
        )


def real_moment_angle(K: SimplicialComplex) -> CubicalComplex:
    """All cells (J, signs) with J a face of K."""
    _check_vertex_cap(K)
    full = (1 << K.m) - 1
    by_dim: dict[int, list[MACell]] = {}
    for J in K.face_masks:
        fixed = full & ~J
        k = popcount(J)
        bucket = by_dim.setdefault(k, [])
        neg_bits = vertices_of(fixed)
        for choice in range(1 << len(neg_bits)):
            neg = 0
            for i, v in enumerate(neg_bits):
                if choice & (1 << i):
                    neg |= 1 << (v - 1)
            bucket.append(MACell(K.m, J, neg))
    top = max(by_dim) if by_dim else 0
    cells = [
        sorted(by_dim.get(k, []), key=lambda c: (c.free, c.neg)) for k in range(top + 1)
    ]
    return CubicalComplex(cells, _ma_boundary)


def _simplex_boundary(face: int) -> list[tuple[int, int]]:
    """Signed codimension-one faces of a face mask, the empty face included."""
    terms = []
    sign = 1
    rest = face
    while rest:
        low = rest & -rest
        terms.append((sign, face ^ low))
        sign = -sign
        rest ^= low
    return terms


def _augmented_chains(faces: list[int]) -> CubicalComplex:
    """Augmented simplicial chains of a downward-closed face list sorted by size.

    Degree s holds the faces with s vertices, the empty face in degree 0, so
    homology in degree s is reduced homology in dimension s - 1.
    """
    by_size: list[list[int]] = [[] for _ in range(popcount(faces[-1]) + 1)]
    for f in faces:
        by_size[popcount(f)].append(f)
    return CubicalComplex(by_size, _simplex_boundary)


def moment_angle_homology(K: SimplicialComplex, mod2: bool = False) -> list[HomologyGroup]:
    """H_0 .. H_{dim K + 1} of the real moment-angle complex, by the stable splitting.

    H_i is the sum over vertex sets W of H~_{i-1}(K_W), where the empty
    W contributes H~_{-1} of the empty complex, Z, to H_0.  A W that is a
    face, or whose full subcomplex is a cone, contributes nothing.
    """
    _check_vertex_cap(K)
    faces = sorted(K.face_masks, key=popcount)
    # cone[f]: f and every vertex that extends f to a face
    cone = {}
    for f in faces:
        c = f
        for v in range(K.m):
            if f | (1 << v) in K.face_masks:
                c |= 1 << v
        cone[f] = c
    top = popcount(faces[-1])
    betti = [1] + [0] * top
    torsion: list[list[int]] = [[] for _ in range(top + 1)]
    for W in range(1, 1 << K.m):
        if W in K.face_masks:
            continue
        sub = [f for f in faces if not f & ~W]
        apex = W
        for f in sub:
            apex &= cone[f]
        if apex:
            continue
        for s, g in enumerate(_augmented_chains(sub).homology(mod2=mod2)):
            betti[s] += g.betti
            torsion[s].extend(g.torsion)
    return [HomologyGroup(b, invariant_factors(t)) for b, t in zip(betti, torsion)]


def stabilizer(cell: MACell) -> tuple[int, ...]:
    """Coordinates acting trivially on the cell: exactly its free vertex set."""
    return cell.free_vertices()


def act(cell: MACell, generator: int) -> MACell:
    """Apply the sign flip in coordinate ``generator``."""
    bit = 1 << (generator - 1)
    if cell.free & bit:
        return cell
    return MACell(cell.m, cell.free, cell.neg ^ bit)


def orbit_counts(K: SimplicialComplex) -> tuple[int, ...]:
    """Number of sign-flip orbits of k-cells: the faces of K of size k."""
    top = max(popcount(J) for J in K.face_masks)
    counts = [0] * (top + 1)
    for J in K.face_masks:
        counts[popcount(J)] += 1
    return tuple(counts)
