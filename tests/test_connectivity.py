import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combitop.connectivity import (
    connectivity_report,
    derived_degrees,
    pair_connectivity,
)
from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    polygon_boundary,
    simplex_boundary,
)

from oracles import flag_pair_c, small_complexes

INF = math.inf


@st.composite
def subcomplex_pairs(draw):
    """(K, L): L adds to K the faces of L above dimension 1, which lie inside cliques
    of K, or the star of one edge."""
    L = draw(small_complexes().filter(lambda L: L.dim >= 2))
    if draw(st.booleans()):
        return L.skeleton(1), L
    e = draw(st.sampled_from(sorted(f for f in L.face_masks if f.bit_count() == 2)))
    return SimplicialComplex(L.m, frozenset(f for f in L.face_masks if f & e != e)), L


def test_simplex_boundary_report():
    r = connectivity_report(simplex_boundary(3))
    assert r.c == 2 and r.c_prime == 2
    assert not r.flag
    assert r.d == {"coxeter": 1, "artin": 1, "circulation": 4}
    assert r.d_prime == {"coxeter": 1, "artin": 1, "circulation": 4}


def test_square_report():
    r = connectivity_report(polygon_boundary(4))
    assert r.c == INF and r.flag
    assert r.c_prime == 1
    assert r.d["coxeter"] == INF and r.d["circulation"] == INF
    assert r.d_prime == {"coxeter": 0, "artin": 0, "circulation": 2}


def test_full_simplex_report():
    r = connectivity_report(full_simplex(4))
    assert r.c == INF and r.c_prime == INF and r.flag
    assert all(v == INF for v in r.d.values())
    assert all(v == INF for v in r.d_prime.values())


def test_invariant_relations(test_complexes):
    for K in test_complexes:
        r = connectivity_report(K)
        assert r.flag == K.is_flag()
        assert (r.c == INF) == K.is_flag()
        assert (r.c_prime == INF) == (len(K.face_masks) == 2**K.m)
        if r.c != INF:
            assert r.c >= 2
        assert r.c_prime <= r.c


def test_pair_connectivity_with_flagification(test_complexes):
    for K in test_complexes:
        c, degrees = pair_connectivity(K, K.flagify())
        assert c == connectivity_report(K).c
        assert degrees["coxeter"] == c - 1
        assert degrees["circulation"] == 2 * c


@settings(max_examples=150)
@given(subcomplex_pairs())
def test_pair_connectivity_matches_flagify(pair):
    K, L = pair
    c, degrees = pair_connectivity(K, L)
    assert c == flag_pair_c(K, L)
    assert degrees == derived_degrees(c)


def test_pair_connectivity_never_flagifies(test_complexes, monkeypatch):
    cases = [(K, L) for K in test_complexes for L in (K, K.flagify(), full_simplex(K.m))]
    expected = [flag_pair_c(K, L) for K, L in cases]

    def refuse(self):
        raise AssertionError("pair_connectivity built the flagification")

    monkeypatch.setattr(SimplicialComplex, "flagify", refuse)
    assert [pair_connectivity(K, L)[0] for K, L in cases] == expected
    assert 1 in expected and INF in expected and 2 in expected


def test_pair_connectivity_falls_to_one():
    K = polygon_boundary(4)
    L = full_simplex(4)
    c, degrees = pair_connectivity(K, L)
    assert c == 1
    assert degrees == {"coxeter": 0, "artin": 0, "circulation": 2}


def test_pair_connectivity_flag_self_pair():
    K = polygon_boundary(5)
    c, _ = pair_connectivity(K, K)
    assert c == INF


def test_pair_connectivity_requires_subcomplex():
    with pytest.raises(ValueError):
        pair_connectivity(full_simplex(3), simplex_boundary(3))
    with pytest.raises(ValueError):
        pair_connectivity(simplex_boundary(3), full_simplex(4))


def test_pair_dominates_prime_bound(test_complexes):
    # the pair bound against the full simplex never undercuts the non-face bound
    for K in test_complexes:
        L = full_simplex(K.m)
        c, degrees = pair_connectivity(K, L)
        r = connectivity_report(K)
        for kind in degrees:
            assert degrees[kind] >= r.d_prime[kind]


def test_flag_equivalence():
    for m in range(4, 8):
        assert polygon_boundary(m).is_flag()
    for m in range(3, 6):
        assert not simplex_boundary(m).is_flag()
    K = SimplicialComplex.from_maximal_faces(3, [[1, 2], [2, 3]])
    assert K.barycentric_subdivision().is_flag()
    assert discrete_complex(4).is_flag()
