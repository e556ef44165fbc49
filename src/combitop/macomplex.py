"""The real moment-angle complex of K inside [-1,1]^m.

Read through x -> (x+1)/2, it is the polyhedral product (D^1, S^0)^K: the
cubes ``CubicalCell(lower, upper)`` of ``facecat`` whose free set ``upper``
minus ``lower`` is a face J of K.  A coordinate in ``lower`` sits at +1 and
one outside ``upper`` at -1.  The sign-flip action of C2^m permutes cells;
coordinate i fixes a cell exactly when i is free.

Homology comes from the real stable splitting instead of the cubical
chains: H_i = sum over W of the reduced homology H~_{i-1}(K_W) of the full
subcomplexes, torsion included.  The cubical model's own homology
(``real_moment_angle(K).homology()``) is kept as the independent check.
"""

from __future__ import annotations

from ._bits import popcount, submasks
from .facecat import CubicalCell, cube_complex
from .homology import CubicalComplex, HomologyGroup, invariant_factors
from .simplicial import SimplicialComplex

MAX_MA_VERTICES = 16


def _check_vertex_cap(K: SimplicialComplex) -> None:
    if K.m > MAX_MA_VERTICES:
        raise ValueError(
            f"moment-angle model limited to {MAX_MA_VERTICES} vertices, got {K.m}"
        )


def real_moment_angle(K: SimplicialComplex) -> CubicalComplex:
    """The cubes plus <= plus | J for J a face of K and plus the +1 coordinates outside J."""
    _check_vertex_cap(K)
    full = (1 << K.m) - 1
    return cube_complex(
        CubicalCell(plus, plus | J) for J in K.face_masks for plus in submasks(full & ~J)
    )


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
    ext = K.extension_masks()
    top = popcount(faces[-1])
    betti = [1] + [0] * top
    torsion: list[list[int]] = [[] for _ in range(top + 1)]
    for W in range(1, 1 << K.m):
        if W in K.face_masks:
            continue
        sub = [f for f in faces if not f & ~W]
        apex = W
        for f in sub:
            apex &= f | ext[f]
        if apex:
            continue
        for s, g in enumerate(_augmented_chains(sub).homology(mod2=mod2)):
            betti[s] += g.betti
            torsion[s].extend(g.torsion)
    return [HomologyGroup(b, invariant_factors(t)) for b, t in zip(betti, torsion)]


def stabilizer(cell: CubicalCell) -> tuple[int, ...]:
    """Coordinates acting trivially on the cell: exactly its free vertex set."""
    return cell.free_vertices()


def act(cell: CubicalCell, generator: int) -> CubicalCell:
    """Apply the sign flip in coordinate ``generator``."""
    bit = 1 << (generator - 1)
    if cell.upper & ~cell.lower & bit:
        return cell
    return CubicalCell(cell.lower ^ bit, cell.upper ^ bit)


def orbit_counts(K: SimplicialComplex) -> tuple[int, ...]:
    """Number of sign-flip orbits of k-cells: the faces of K of size k."""
    return (1,) + K.f_vector()
