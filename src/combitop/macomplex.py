"""The real moment-angle complex of K inside [-1,1]^m.

Read through x -> (x+1)/2, it is the polyhedral product (D^1, S^0)^K: the
cubes ``CubicalCell(lower, upper)`` of ``facecat`` whose free set ``upper``
minus ``lower`` is a face J of K.  A coordinate in ``lower`` sits at +1 and
one outside ``upper`` at -1.  The sign-flip action of C2^m permutes cells;
coordinate i fixes a cell exactly when i is free.

Homology comes from the real stable splitting, H_i = sum over W of
H~_{i-1}(K_W), torsion included: d_0 and d_1 from the components of K_W, the
rest reduced as sparse columns over one index of the faces of K.  The cubical
model's own chains (``real_moment_angle(K).chain_complex()``) are the independent check.
"""

from __future__ import annotations

from ._bits import submasks
from .facecat import CubicalCell, CubicalComplex
from .homology import HomologyGroup, check_square_zero, homology_groups
from .homology import sparse_smith_normal_form, xor_rank
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


def components(adjacency: tuple[int, ...], vertices: int) -> int:
    """Connected components of the graph on ``vertices`` (a mask) whose neighbour
    masks ``adjacency`` lists by vertex number, as ``adjacency_masks`` does."""
    count = 0
    while vertices:
        count += 1
        front = vertices & -vertices
        vertices ^= front
        while front:
            low = front & -front
            front ^= low
            reached = adjacency[low.bit_length()] & vertices
            vertices ^= reached
            front |= reached
    return count


def moment_angle_homology(K: SimplicialComplex, mod2: bool = False) -> list[HomologyGroup]:
    """H_0 .. H_{dim K + 1} of the real moment-angle complex, by the stable splitting.

    H_i is the sum over vertex sets W of H~_{i-1}(K_W), the empty W giving
    H~_{-1}(empty) = Z in H_0.  The faces of K, the empty face included, are
    indexed once by size, each with its boundary as a sparse column.  The
    augmented chains of K_W are the columns of the faces inside W, so one
    d o d check on K covers every K_W.  A cone K_W, such as a simplex, adds 0.
    Otherwise d_0 has rank 1 if K_W has a vertex, and d_1, a graph's totally
    unimodular incidence matrix, has |V(K_W)| - c(K_W) ones as its Smith
    diagonal, c counting components: only faces of 3 or more vertices are reduced.
    This is also the homology of the complement of the real coordinate arrangement.
    """
    _check_vertex_cap(K)
    faces = sorted(K.face_masks, key=int.bit_count)
    index = {f: i for i, f in enumerate(faces)}
    columns = [{index[g]: a for a, g in _simplex_boundary(f)} for f in faces]
    check_square_zero(columns)
    if mod2:
        columns = [sum(1 << i for i in col) for col in columns]
    ext = list(map(K.extension_masks().get, faces))
    top = faces[-1].bit_count()
    counts, diagonals = [0] * (top + 1), [[] for _ in range(top + 1)]  # d_{top+1} = 0 too
    adjacency = K.adjacency_masks()
    # W grows by vertices above its top one, and a new vertex v adds the
    # faces g | v for the faces g of K_W that it extends.  K_W is a cone
    # with apex v when v is in W and in the star f | ext[f] of each face f.
    stack = [(0, [[0]] + [[] for _ in range(top)], ext[0])]
    while stack:
        W, by_size, star = stack.pop()
        if not W & star:
            for s, fs in enumerate(by_size):
                counts[s] += len(fs)
            if W:  # every vertex of K is a face, so V(K_W) = W
                diagonals[0].append(1)
                diagonals[1] += [1] * (W.bit_count() - components(adjacency, W))
            for s, fs in enumerate(by_size[3:], 3):  # over Z/2 the Smith diagonal is rank-many 1s
                chain = [columns[i] for i in fs]
                diagonals[s - 1] += [1] * xor_rank(chain) if mod2 else sparse_smith_normal_form(chain)
        for v in range(W.bit_length(), K.m):
            bit, grown, meet = 1 << v, [by_size[0]], star
            for fs, below in zip(by_size[1:], by_size):
                added = [index[faces[i] | bit] for i in below if ext[i] & bit]
                for j in added:
                    meet &= faces[j] | ext[j]
                grown.append(fs + added)
            stack.append((W | bit, grown, meet))
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
