"""Finite abstract simplicial complexes on vertices 1..m.

Faces are stored as bitmasks over the vertex set (m <= 64).  Every complex
contains the empty face and all singletons; constructors enforce both.
``SimplicialComplex(m, masks)`` validates downward closure; the builders whose
families are closed by construction (``from_maximal_faces``,
``from_facet_masks``, ``flagify``) skip that check, and hold the one face
bound: past ``MAX_FACE_ESTIMATE`` they raise ValueError before building any
face, ``flagify`` while its clique search runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._bits import Value, iter_vertices, mask_of, setfield, submasks, vertices_of

MAX_VERTICES = 64

#: Largest estimate 1 + m + sum of 2^|F| over the facets F of a complex or a flagification:
#: the submasks ``from_facet_masks`` enumerates.  0.92 M take 3.8 s, 110 MB (Python 3.11, Xeon).
MAX_FACE_ESTIMATE = 1 << 20


def _face_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), vertices_of(mask))


def facet_masks(m: int, maximal: Iterable[Iterable[int]]) -> list[int]:
    """Masks of the given vertex subsets.  TypeError for a vertex count or vertex that is
    not an int (a bool is not one), ValueError for m outside 0..64 or a vertex outside 1..m."""
    if type(m) is not int:
        raise TypeError(f"vertex count {m!r} is not an integer")
    if not 0 <= m <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {m}")
    masks = []
    for subset in maximal:
        mask = 0
        for v in subset:
            if type(v) is not int:
                raise TypeError(f"vertex {v!r} is not an integer")
            if not 1 <= v <= m:
                raise ValueError(f"vertex {v} out of range 1..{m}")
            mask |= 1 << (v - 1)
        masks.append(mask)
    return masks


class SimplicialComplex(Value):
    """A downward-closed family of subsets of {1..m}, as bitmasks.

    ``extension_masks()`` maps each face f to the vertices v outside f with
    f | v a face (the vertex set of lk(f)), in O(faces * dim) lookups.
    Facets (``maximal_face_masks()``) and minimal non-faces
    (``missing_face_masks()``) read it.
    """

    __slots__ = ("m", "face_masks")

    def __init__(self, m: int, face_masks: frozenset[int]) -> None:
        facet_masks(m, ())  # m in 0..MAX_VERTICES
        full = (1 << m) - 1
        if 0 not in face_masks:
            raise ValueError("the empty face is missing")
        for v in range(1, m + 1):
            if (1 << (v - 1)) not in face_masks:
                raise ValueError(f"singleton {{{v}}} is missing")
        for f in face_masks:
            if f & ~full:
                raise ValueError("face contains a vertex outside 1..m")
            # downward closure: dropping any one vertex stays a face
            rest = f
            while rest:
                low = rest & -rest
                if (f ^ low) not in face_masks:
                    raise ValueError("face family is not downward closed")
                rest ^= low
        setfield(self, "m", m)
        setfield(self, "face_masks", face_masks)

    # -- construction ------------------------------------------------

    @classmethod
    def from_maximal_faces(cls, m: int, maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given subsets, plus all singletons and the empty face."""
        return cls.from_facet_masks(m, facet_masks(m, maximal))

    @classmethod
    def from_facet_masks(cls, m: int, masks: Sequence[int]) -> "SimplicialComplex":
        """``from_maximal_faces`` on masks that ``facet_masks(m, ...)`` has already checked.
        ValueError, before any face is built, when they could span more than
        ``MAX_FACE_ESTIMATE`` faces: 1 + m + the sum of 2^|F| over the masks F."""
        estimate = 1 + m + sum(1 << f.bit_count() for f in masks)
        if estimate > MAX_FACE_ESTIMATE:
            raise ValueError(f"complex too large: its maximal faces span up to {estimate} faces,"
                             f" more than {MAX_FACE_ESTIMATE}")
        faces = {0}
        for v in range(1, m + 1):
            faces.add(1 << (v - 1))
        for mask in masks:
            faces.update(submasks(mask))
        K = cls.__new__(cls)  # downward closed by construction: __init__'s check is skipped
        setfield(K, "m", m)
        setfield(K, "face_masks", frozenset(faces))
        return K

    # -- basic queries -----------------------------------------------

    def __repr__(self) -> str:
        return f"SimplicialComplex(m={self.m}, {len(self.face_masks)} faces)"

    def has_face(self, vertices: Iterable[int]) -> bool:
        """A point avoids the coordinate arrangement exactly when its zero set is a face."""
        (mask,) = facet_masks(self.m, [vertices])
        return mask in self.face_masks

    def faces(self) -> list[tuple[int, ...]]:
        """All faces (including the empty one) as sorted vertex tuples."""
        return [vertices_of(f) for f in sorted(self.face_masks, key=_face_sort_key)]

    @property
    def dim(self) -> int:
        return len(self.f_vector()) - 1

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_0, ..., f_dim); the empty face is not counted."""
        counts = [0] * (self.m + 1)
        for f in self.face_masks:
            counts[f.bit_count()] += 1
        while not counts[-1]:
            counts.pop()
        return tuple(counts[1:])

    def edges(self) -> list[tuple[int, int]]:
        """The 1-skeleton as a sorted list of vertex pairs."""
        adj = self.adjacency_masks()
        return [(i, j) for i in range(1, self.m + 1) for j in iter_vertices(adj[i] >> i << i)]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor mask per vertex (index 0 unused), by looking up the vertex pairs."""
        faces, bits = self.face_masks, [1 << i for i in range(self.m)]
        return (0, *(sum(b for b in bits if b != a and a | b in faces) for a in bits))

    # -- missing faces and flag structure ----------------------------

    def extension_masks(self) -> dict[int, int]:
        """For each face f, the mask of the vertices v outside f with f | v a face."""
        ext = dict.fromkeys(self.face_masks, 0)
        for f in self.face_masks:
            rest = f
            while rest:
                low = rest & -rest
                ext[f ^ low] |= low
                rest ^= low
        return ext

    def missing_face_masks(self) -> set[int]:
        """Minimal non-faces: W not a face whose codimension-1 subsets all are.

        Each W comes once, as f | v for the face f = W minus its top vertex v:
        v does not extend f to a face but extends f minus any one vertex.
        """
        ext = self.extension_masks()
        full = (1 << self.m) - 1
        out = set()
        for f, e in ext.items():
            above = f.bit_length()
            cand = full >> above << above & ~e
            rest = f
            while rest:
                low = rest & -rest
                cand &= ext[f ^ low]
                rest ^= low
            while cand:
                low = cand & -cand
                out.add(f | low)
                cand ^= low
        return out

    def maximal_face_masks(self) -> set[int]:
        """Facets: nonempty faces that no vertex extends."""
        return {f for f, e in self.extension_masks().items() if f and not e}

    def missing_faces(self) -> list[tuple[int, ...]]:
        return [vertices_of(f) for f in sorted(self.missing_face_masks(), key=_face_sort_key)]

    def is_flag(self) -> bool:
        """True when every missing face is a pair of vertices: then the colimit of the
        circulation diagram models the loop space of DJ(K)."""
        return all(w.bit_count() == 2 for w in self.missing_face_masks())

    def flagify(self) -> "SimplicialComplex":
        """The minimal flag complex containing this one: the clique complex of the 1-skeleton."""
        return SimplicialComplex.from_facet_masks(self.m, maximal_cliques(self.adjacency_masks()))

    # -- derived complexes -------------------------------------------

    def restrict(self, vertices: Iterable[int]) -> "SimplicialComplex":
        """Restriction to a vertex subset, relabeled to 1..|W| in ascending order."""
        (wmask,) = facet_masks(self.m, [vertices])
        order = vertices_of(wmask)
        relabel = {v: i + 1 for i, v in enumerate(order)}
        faces = set()
        for f in self.face_masks:
            g = f & wmask
            faces.add(mask_of(relabel[v] for v in iter_vertices(g)))
        return SimplicialComplex(len(order), frozenset(faces))

    def skeleton(self, j: int) -> "SimplicialComplex":
        """Subcomplex of faces of dimension at most j."""
        if j < 0:
            raise ValueError("skeleton dimension must be >= 0")
        return SimplicialComplex(
            self.m, frozenset(f for f in self.face_masks if f.bit_count() <= j + 1)
        )

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Complex of chains of nonempty faces, ordered by strict inclusion.

        Its vertex i is the i-th nonempty face in ``_face_sort_key`` order.  A
        chain is a clique of the comparability graph, so the facets are its
        ``maximal_cliques``.
        """
        verts = sorted((f for f in self.face_masks if f), key=_face_sort_key)
        if len(verts) > MAX_VERTICES:
            raise ValueError(
                f"barycentric subdivision needs at most {MAX_VERTICES} nonempty faces,"
                f" got {len(verts)}"
            )
        adj = [0] + [sum(1 << i for i, f in enumerate(verts) if f != g and f & g in (f, g))
                     for g in verts]
        return SimplicialComplex.from_facet_masks(len(verts), maximal_cliques(adj))


def maximal_cliques(adj: Sequence[int]) -> list[int]:
    """The facets of the clique complex of the graph with neighbor masks ``adj[1..m]``,
    isolated vertices included, by Bron-Kerbosch: a clique branches only on the candidates
    outside the neighbors of Tomita's pivot, the vertex with the most candidate neighbors.
    ValueError once the estimate 1 + m + sum of 2^|C| over the cliques C found passes
    ``MAX_FACE_ESTIMATE``, before any face is built."""
    found, estimate = [], len(adj)

    def extend(clique: int, cand: int, done: int) -> None:
        nonlocal estimate
        if not cand | done and clique:  # no vertex extends the clique
            estimate += 1 << clique.bit_count()
            if estimate > MAX_FACE_ESTIMATE:
                raise ValueError(f"flag complex too large: its maximal cliques found so far span"
                                 f" up to {estimate} faces, more than {MAX_FACE_ESTIMATE}")
            found.append(clique)
        pivot = max(iter_vertices(cand | done), key=lambda u: (cand & adj[u]).bit_count(), default=0)
        for v in iter_vertices(cand & ~adj[pivot]):
            extend(clique | 1 << (v - 1), cand & adj[v], done & adj[v])
            cand ^= 1 << (v - 1)
            done |= 1 << (v - 1)

    extend(0, (1 << (len(adj) - 1)) - 1, 0)
    return found


# -- stock complexes -------------------------------------------------


def full_simplex(m: int) -> SimplicialComplex:
    """The complex of all subsets of {1..m}."""
    return SimplicialComplex.from_maximal_faces(m, [range(1, m + 1)])


def simplex_boundary(m: int) -> SimplicialComplex:
    """All proper subsets of {1..m}: the boundary of an (m-1)-simplex."""
    if m < 2:
        raise ValueError("need at least two vertices")
    verts = range(1, m + 1)
    return SimplicialComplex.from_maximal_faces(
        m, [[v for v in verts if v != skip] for skip in verts]
    )


def polygon_boundary(m: int) -> SimplicialComplex:
    """The boundary of a planar m-gon (m >= 3): an m-cycle of edges."""
    if m < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    edges = [[i, i % m + 1] for i in range(1, m + 1)]
    return SimplicialComplex.from_maximal_faces(m, edges)


def discrete_complex(m: int) -> SimplicialComplex:
    """m isolated vertices."""
    return SimplicialComplex.from_maximal_faces(m, [])
