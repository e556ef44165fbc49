import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combitop.facecat import (
    CubicalCell,
    chain_count,
    cubical_model,
    face_subcomplex,
    object_count,
)
from combitop.homology import HomologyGroup
from combitop.simplicial import discrete_complex, full_simplex, simplex_boundary

from oracles import face_sets, small_complexes


def brute_chain_count(K, n):
    """Chains of n + 1 faces, enumerated one by one: each face followed by every strict superset."""
    faces = [frozenset(f) for f in K.faces()]

    def above(face, steps):
        return 1 if not steps else sum(above(g, steps - 1) for g in faces if face < g)

    return sum(above(f, n) for f in faces)


def test_object_count():
    assert object_count(full_simplex(1)) == 2
    assert object_count(simplex_boundary(3)) == 7


def test_chain_count_point():
    K = full_simplex(1)
    assert chain_count(K, 0) == 2
    assert chain_count(K, 1) == 1
    assert chain_count(K, 2) == 0


def test_chain_count_triangle_boundary():
    K = simplex_boundary(3)
    assert chain_count(K, 1) == 12
    assert chain_count(K, 2) == 6
    assert chain_count(K, 1) == brute_chain_count(K, 1)
    assert chain_count(K, 2) == brute_chain_count(K, 2)


@settings(max_examples=60)
@given(small_complexes(), st.integers(0, 4))
def test_chain_count_matches_brute_force(K, n):
    assert chain_count(K, n) == brute_chain_count(K, n)


def test_chain_alternating_sum_is_one(test_complexes):
    # the nerve is a cone on the empty face
    for K in test_complexes:
        total = 0
        n = 0
        while True:
            c = chain_count(K, n)
            if c == 0:
                break
            total += (-1) ** n * c
            n += 1
        assert total == 1


def test_cubical_cell_validation():
    with pytest.raises(ValueError):
        CubicalCell(0b11, 0b01)
    assert CubicalCell(0b01, 0b11).dim == 1


def test_cubical_model_full_simplex_is_cube():
    for m in range(1, 5):
        model = cubical_model(full_simplex(m))
        assert model.cell_count() == 3**m
        assert model.euler_characteristic() == 1


def test_cubical_model_simplex_boundary_counts():
    for m in range(2, 7):
        model = cubical_model(simplex_boundary(m))
        assert model.cell_count() == 3**m - 2**m


def test_cubical_model_two_points():
    model = cubical_model(discrete_complex(2))
    assert model.cell_counts() == (3, 2)


def test_cell_count_formula(test_complexes):
    for K in test_complexes:
        model = cubical_model(K)
        expected = sum(2 ** len(f) for f in K.faces())
        assert model.cell_count() == expected
        assert model.euler_characteristic() == 1


def test_cubical_model_has_point_homology(test_complexes):
    for K in test_complexes:
        groups = cubical_model(K).chain_complex().homology()
        assert groups[0] == HomologyGroup(1)
        assert all(g.is_trivial() for g in groups[1:])


def test_face_subcomplex_empty_face_is_everything():
    K = simplex_boundary(3)
    assert face_subcomplex(K, []) == set(cubical_model(K).all_cells())


def test_face_subcomplex_intersection_of_facets():
    K = simplex_boundary(3)
    expected = face_subcomplex(K, [1]) & face_subcomplex(K, [2])
    assert face_subcomplex(K, [1, 2]) == expected


def test_face_subcomplex_maximal_face_is_vertex_cell():
    K = simplex_boundary(3)
    cells = face_subcomplex(K, [1, 2])
    assert cells == {CubicalCell(0b011, 0b011)}


def test_face_subcomplex_requires_face():
    with pytest.raises(ValueError):
        face_subcomplex(simplex_boundary(3), [1, 2, 3])


def test_facet_intersection_formula(test_complexes):
    for K in test_complexes:
        facets = {v: face_subcomplex(K, [v]) for v in range(1, K.m + 1)}
        for f in face_sets(K):
            if not f:
                continue
            expected = set.intersection(*(facets[v] for v in f))
            assert face_subcomplex(K, f) == expected
