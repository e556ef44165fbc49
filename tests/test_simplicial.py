import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from combitop import simplicial
from combitop._bits import vertices_of
from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    maximal_cliques,
    polygon_boundary,
    simplex_boundary,
)

from oracles import (
    brute_barycentric_subdivision,
    brute_clique_complex,
    brute_extension_sets,
    brute_maximal_faces,
    brute_missing_faces,
    face_sets,
    random_complexes,
    small_complexes,
    walk_clique_masks,
)


def test_from_maximal_faces_triangle_boundary():
    K = SimplicialComplex.from_maximal_faces(3, [[1, 2], [2, 3], [1, 3]])
    assert K == simplex_boundary(3)
    assert K.f_vector() == (3, 3)


def test_from_maximal_faces_adds_singletons():
    K = SimplicialComplex.from_maximal_faces(2, [])
    assert K == discrete_complex(2)
    assert K.faces() == [(), (1,), (2,)]


def test_from_maximal_faces_rejects_bad_vertex():
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(3, [[1, 4]])
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(3, [[0, 1]])
    # each message names the value: a bool is no vertex, though it is an int to isinstance
    for m, faces, message in [
        (3, [[1, 2.5]], "vertex 2.5 is not an integer"),
        (3, [[1, 2.0]], "vertex 2.0 is not an integer"),
        (3, [[1, "2"]], "vertex '2' is not an integer"),
        (3, [[True, 2]], "vertex True is not an integer"),
        (3.0, [], "vertex count 3.0 is not an integer"),
        (True, [], "vertex count True is not an integer"),
        (None, [], "vertex count None is not an integer"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SimplicialComplex.from_maximal_faces(m, faces)


def test_from_maximal_faces_refused_past_the_face_estimate(monkeypatch):
    def refuse(mask):
        raise AssertionError("a face was built")

    # 1 + 64 + 2^40 faces estimated: refused before the first submask is enumerated
    monkeypatch.setattr(simplicial, "submasks", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^complex too large: its maximal faces span up to"
                                         rf" {1 + 64 + 2**40} faces, more than 1048576$"):
        SimplicialComplex.from_maximal_faces(64, [range(1, 41)])
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match=rf"up to {1 + 20 + 2**20} faces"):
        full_simplex(20)


def test_simplex_boundary_is_all_proper_subsets():
    for m in range(2, 6):
        K = simplex_boundary(m)
        assert len(K.face_masks) == 2**m - 1
        assert not K.has_face(range(1, m + 1))
    with pytest.raises(ValueError):
        simplex_boundary(1)


def test_downward_closure_validated():
    with pytest.raises(ValueError):
        SimplicialComplex(2, frozenset({0, 0b01, 0b10, 0b11}) - {0b01})
    with pytest.raises(ValueError):
        SimplicialComplex(2, frozenset({0, 0b01}))  # singleton {2} missing
    # every vertex is present, but the triangle's edges are not
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex(3, frozenset({0, 0b001, 0b010, 0b100, 0b111}))
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex(4, frozenset({0, 1, 2, 4, 8, 0b0011, 0b1011}))


def test_vertex_cap():
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(65, [])


def test_missing_faces_examples():
    assert simplex_boundary(3).missing_faces() == [(1, 2, 3)]
    assert polygon_boundary(4).missing_faces() == [(1, 3), (2, 4)]
    assert full_simplex(4).missing_faces() == []


def test_missing_faces_match_brute_force(test_complexes):
    for K in test_complexes:
        got = {frozenset(w) for w in K.missing_faces()}
        assert got == brute_missing_faces(K)


@settings(max_examples=200)
@given(small_complexes(max_m=10))
def test_missing_faces_match_brute_force_drawn(K):
    assert {frozenset(w) for w in K.missing_faces()} == brute_missing_faces(K)


@settings(max_examples=200)
@given(small_complexes(max_m=10))
def test_extension_map_and_facets_match_brute_force_drawn(K):
    ext = K.extension_masks()
    got = {frozenset(vertices_of(f)): frozenset(vertices_of(e)) for f, e in ext.items()}
    assert got == brute_extension_sets(K)
    facets = [list(vertices_of(f)) for f in K.maximal_face_masks()]
    assert sorted(facets, key=lambda f: (len(f), f)) == brute_maximal_faces(K)
    sizes = Counter(len(f) for f in face_sets(K))
    assert K.f_vector() == tuple(sizes[k] for k in range(1, max(sizes) + 1))


def test_is_flag_examples():
    assert polygon_boundary(4).is_flag()
    assert not simplex_boundary(3).is_flag()
    assert simplex_boundary(3).barycentric_subdivision().is_flag()


def test_flagify_simplex_boundary():
    for n in range(3, 7):
        assert simplex_boundary(n).flagify() == full_simplex(n)


def test_flagify_fixes_flag_complexes():
    K = polygon_boundary(4)
    assert K.flagify() == K


def test_flagify_square_with_diagonal(named_complexes):
    K = named_complexes["square-with-diagonal"]
    fl = K.flagify()
    assert fl.has_face([1, 2, 3]) and fl.has_face([1, 3, 4])
    assert not fl.has_face([1, 2, 3, 4])
    assert len(fl.face_masks) == len(K.face_masks) + 2


def test_flagify_matches_clique_complex_oracle(test_complexes):
    for K in test_complexes:
        assert face_sets(K.flagify()) == brute_clique_complex(K)


@settings(max_examples=300)
@given(small_complexes(max_m=10))
def test_maximal_cliques_match_clique_complex_oracle(K):
    cliques = maximal_cliques(K.adjacency_masks())
    found = {frozenset(vertices_of(c)) for c in cliques}
    every = brute_clique_complex(K)
    assert len(found) == len(cliques)
    assert found == {c for c in every if c and not any(c < d for d in every)}


def random_graph(m: int, p: float, rng: random.Random) -> SimplicialComplex:
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < p]
    return SimplicialComplex.from_maximal_faces(m, edges)


@pytest.mark.parametrize("seed", range(8))
def test_flagify_matches_clique_walk_on_sparse_graphs(seed):
    rng = random.Random(seed)
    for m in (1, 2, 7, 16, 33, 48, 63, 64):
        G = random_graph(m, rng.choice([0.05, 0.1, 0.2, 0.3]), rng)
        adj = G.adjacency_masks()
        cliques = walk_clique_masks(adj)
        assert G.flagify().face_masks == cliques
        maximal = {c for c in cliques
                   if c and not any(c | 1 << i in cliques for i in range(m) if not c >> i & 1)}
        assert sorted(maximal_cliques(adj)) == sorted(maximal)


def multipartite_adjacency(parts: int, size: int) -> list[int]:
    """Neighbor masks of the complete multipartite graph with ``parts`` parts of ``size``
    vertices each, vertex v in part (v - 1) // size."""
    m = parts * size
    part = [(v - 1) // size for v in range(m + 1)]
    return [0] + [sum(1 << (u - 1) for u in range(1, m + 1) if part[u] != part[v])
                  for v in range(1, m + 1)]


@pytest.mark.parametrize("k", range(1, 8))
def test_maximal_cliques_of_complete_multipartite_graph(k):
    # K_{3,...,3}: a maximal clique takes one vertex from each of the k parts
    cliques = maximal_cliques(multipartite_adjacency(k, 3))
    assert len(cliques) == len(set(cliques)) == 3**k
    assert all(c.bit_count() == k and all(c >> 3 * i & 7 in (1, 2, 4) for i in range(k))
               for c in cliques)


def test_maximal_cliques_refused_past_the_face_estimate():
    # k = 8: 1 + 24 + 3^8 * 2^8 faces estimated, more than 2^20; k = 7 is 1 + 21 + 3^7 * 2^7
    with pytest.raises(ValueError, match=r"^flag complex too large: .* more than 1048576$"):
        maximal_cliques(multipartite_adjacency(8, 3))


def test_maximal_cliques_of_no_vertices():
    assert maximal_cliques([0]) == []
    assert discrete_complex(0).flagify() == discrete_complex(0)


def test_flagify_idempotent_and_flag(test_complexes):
    for K in test_complexes:
        fl = K.flagify()
        assert fl.is_flag()
        assert fl.flagify() == fl
        assert K.face_masks <= fl.face_masks
        assert (fl == K) == K.is_flag()


def test_missing_faces_of_flagification_are_non_edges(test_complexes):
    for K in test_complexes:
        missing = K.flagify().missing_faces()
        assert all(len(w) == 2 for w in missing)
        non_edges = {
            (i, j)
            for i in range(1, K.m + 1)
            for j in range(i + 1, K.m + 1)
            if not K.has_face([i, j])
        }
        assert set(missing) == non_edges


def test_restriction_examples():
    assert simplex_boundary(3).restrict([1, 2]) == full_simplex(2)
    assert polygon_boundary(4).restrict([1, 3]) == discrete_complex(2)
    K = polygon_boundary(5)
    assert K.restrict(range(1, 6)) == K


def test_restriction_relabels_ascending():
    K = SimplicialComplex.from_maximal_faces(4, [[2, 4]])
    R = K.restrict([2, 4])
    assert R.has_face([1, 2]) and R.m == 2


def test_restriction_is_subset_filter(test_complexes):
    rng = random.Random(7)
    for K in test_complexes:
        verts = [v for v in range(1, K.m + 1) if rng.random() < 0.5]
        R = K.restrict(verts)
        relabel = {v: i + 1 for i, v in enumerate(sorted(verts))}
        expected = {
            frozenset(relabel[v] for v in f)
            for f in face_sets(K)
            if f <= set(verts)
        }
        assert face_sets(R) == expected


def test_skeleton():
    assert full_simplex(3).skeleton(1) == simplex_boundary(3)
    assert simplex_boundary(3).skeleton(0) == discrete_complex(3)
    K = polygon_boundary(5)
    assert K.skeleton(K.dim) == K
    with pytest.raises(ValueError):
        K.skeleton(-1)


def test_f_vector():
    assert simplex_boundary(3).f_vector() == (3, 3)
    assert polygon_boundary(4).f_vector() == (4, 4)
    assert full_simplex(3).f_vector() == (3, 3, 1)


def test_barycentric_subdivision_edge():
    K = full_simplex(2).barycentric_subdivision()
    assert K.f_vector() == (3, 2)


def test_barycentric_subdivision_triangle_boundary():
    K = simplex_boundary(3).barycentric_subdivision()
    assert K.f_vector() == (6, 6)
    assert K.is_flag()


def test_barycentric_subdivision_properties(test_complexes):
    for K in test_complexes:
        sub = K.barycentric_subdivision()
        assert sub.is_flag()
        # one subdivision vertex per nonempty face
        assert sub.m == len(K.face_masks) - 1


def test_barycentric_subdivision_matches_scan_oracle(test_complexes):
    for K in test_complexes:
        assert K.barycentric_subdivision() == brute_barycentric_subdivision(K)


@settings(max_examples=300)
@given(small_complexes())
def test_barycentric_subdivision_matches_scan_oracle_on_draws(K):
    assert K.barycentric_subdivision() == brute_barycentric_subdivision(K)


def test_barycentric_subdivision_at_the_vertex_cap():
    K = full_simplex(6)  # 63 nonempty faces; one chain per ordering of the vertices is a facet
    sub = K.barycentric_subdivision()
    assert sub == brute_barycentric_subdivision(K)
    assert sub.f_vector()[0] == 63 and sub.f_vector()[-1] == 720
    # 64 nonempty faces still fit, 65 do not
    assert SimplicialComplex.from_maximal_faces(7, [range(1, 7)]).barycentric_subdivision().m == 64
    too_many = SimplicialComplex.from_maximal_faces(8, [range(1, 7)])
    with pytest.raises(
        ValueError, match=r"^barycentric subdivision needs at most 64 nonempty faces, got 65$"
    ):
        too_many.barycentric_subdivision()


def test_random_complexes_are_valid():
    for K in random_complexes(20, 6, seed=3):
        assert 0 in K.face_masks
        assert len(K.f_vector()) == K.dim + 1


@settings(max_examples=200)
@given(small_complexes(max_m=10))
def test_edges_and_adjacency_match_face_scan(K):
    pairs = sorted(tuple(sorted(f)) for f in face_sets(K) if len(f) == 2)
    assert K.edges() == pairs
    adj = K.adjacency_masks()
    assert adj[0] == 0 and len(adj) == K.m + 1
    for i in range(1, K.m + 1):
        assert list(vertices_of(adj[i])) == sorted({*(j for e in pairs if i in e for j in e)} - {i})
