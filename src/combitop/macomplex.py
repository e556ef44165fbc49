"""The real moment-angle complex of K inside [-1,1]^m.

Read through x -> (x+1)/2, it is the polyhedral product (D^1, S^0)^K: the
cubes ``CubicalCell(lower, upper)`` of ``facecat`` whose free set ``upper``
minus ``lower`` is a face J of K.  A coordinate in ``lower`` sits at +1 and
one outside ``upper`` at -1.  The sign-flip action of C2^m permutes cells;
coordinate i fixes a cell exactly when i is free.

Homology comes from the real stable splitting, torsion included, summed
over the vertex sets that are connected in the 1-skeleton of K.  The cubical
model's own chains (``real_moment_angle(K).chain_complex()``) are the independent check.
"""

from __future__ import annotations

from ._bits import submasks
from .facecat import CubicalCell, CubicalComplex
from .homology import HomologyGroup, check_square_zero, homology_groups, smith_diagonal
from .simplicial import SimplicialComplex

MAX_MA_VERTICES = 16


def _check_vertex_cap(K: SimplicialComplex) -> None:
    if K.m > MAX_MA_VERTICES:
        raise ValueError(f"moment-angle model limited to {MAX_MA_VERTICES} vertices, got {K.m}")


def real_moment_angle(K: SimplicialComplex) -> CubicalComplex:
    """The cubes plus <= plus | J for J a face of K and plus the +1 coordinates outside J."""
    _check_vertex_cap(K)
    full = (1 << K.m) - 1
    return CubicalComplex(
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


def moment_angle_homology(K: SimplicialComplex, mod2: bool = False) -> list[HomologyGroup]:
    """H_0 .. H_{dim K + 1} of the real moment-angle complex, by the stable splitting.

    H_i is the sum over vertex sets W of H~_{i-1}(K_W), and K_W is the disjoint
    union of the K_C on its components C.  A set C connected in the 1-skeleton
    is a component of K_W for the 2^(m - |N[C]|) sets W that meet its closed
    neighbourhood N[C] in C, so only connected sets are visited, each adding
    H~(K_C) that many times.  The empty W gives H_0 = Z, and H_1 is free of rank
    sum_C 2^(m - |N[C]|) - (2^m - 1), the components beyond one in each W.  A
    connected K_C has no H~_0, so d_0 and d_1 leave only the cycle rank
    |E(K_C)| - |C| + 1, and a cone K_C, such as a simplex, adds nothing.  The
    faces of K, the empty face included, are indexed once by size, each with its
    boundary as a sparse column; K_C's chains are the columns of the faces inside
    C, so one d o d check on K covers them all, and only faces of 3 or more
    vertices are reduced.  This is also the homology of the complement of the
    real coordinate arrangement.
    """
    _check_vertex_cap(K)
    faces = sorted(K.face_masks, key=int.bit_count)
    index = {f: i for i, f in enumerate(faces)}
    columns = [{index[g]: a for a, g in _simplex_boundary(f)} for f in faces]
    check_square_zero(columns)
    if mod2:
        columns = [sum(1 << i for i in col) for col in columns]
    ext = list(map(K.extension_masks().get, faces))
    top, full = faces[-1].bit_count(), (1 << K.m) - 1
    counts = [1, -full, *[0] * top][: top + 1]  # H_0 = Z from the empty W; H_1 less 2^m - 1
    diagonals = [[] for _ in range(top + 1)]  # d_{top+1} = 0 too
    adjacency = K.adjacency_masks()
    # C grows by a vertex v of N[C] (any vertex if C is empty) that is not banned: below C's
    # least vertex or taken by an earlier sibling.  v adds g | v for the faces g it extends,
    # and K_C is a cone with apex u when u is in C and in the star f | ext[f] of each face f.
    stack = [(0, 0, 0, [[0]] + [[] for _ in range(top)], ext[0])]
    while stack:
        C, near, banned, by_size, star = stack.pop()
        copies = 1 << K.m - near.bit_count()
        if C:
            counts[1] += copies
        if C and not C & star:
            counts[2] += copies * (len(by_size[2]) - C.bit_count() + 1)
            for s, fs in enumerate(by_size[3:], 3):
                if not fs:
                    break
                counts[s] += copies * len(fs)
                diagonals[s - 1] += smith_diagonal([columns[i] for i in fs], mod2) * copies
        grow = (near or full) & ~C & ~banned
        while grow:
            bit = grow & -grow
            grown, meet = [by_size[0]], star
            for fs, below in zip(by_size[1:], by_size):
                added = [index[faces[i] | bit] for i in below if ext[i] & bit]
                for j in added:
                    meet &= faces[j] | ext[j]
                grown.append(fs + added)
            stack.append((C | bit, near | bit | adjacency[bit.bit_length()], banned, grown, meet))
            banned |= bit
            grow ^= bit
    return homology_groups(counts, diagonals)


def act(cell: CubicalCell, generator: int) -> CubicalCell:
    """Apply the sign flip in coordinate ``generator``."""
    bit = 1 << (generator - 1)
    if cell.upper & ~cell.lower & bit:
        return cell
    return CubicalCell(cell.lower ^ bit, cell.upper ^ bit)


def orbit_counts(K: SimplicialComplex) -> tuple[int, ...]:
    """Number of sign-flip orbits of k-cells: the faces of K of size k."""
    return (1,) + K.f_vector()
