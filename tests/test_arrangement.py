import itertools

import pytest

from combitop.arrangement import Arrangement, arrangement
from combitop.homology import HomologyGroup
from combitop.macomplex import moment_angle_homology
from combitop.simplicial import discrete_complex, full_simplex, simplex_boundary

Z = HomologyGroup(1)


def test_discrete_complex_generators_are_pairs():
    A = arrangement(discrete_complex(3), "C")
    assert A.generators == ((1, 2), (1, 3), (2, 3))
    assert A.codimensions() == (4, 4, 4)


def test_simplex_boundary_single_generator():
    for m in (3, 4):
        A = arrangement(simplex_boundary(m), "C")
        assert A.generators == (tuple(range(1, m + 1)),)
        assert A.codimensions() == (2 * m,)


def test_full_simplex_empty_arrangement():
    A = arrangement(full_simplex(3), "R")
    assert A.generators == ()


def test_field_codimensions():
    K = discrete_complex(2)
    assert arrangement(K, "R").codimensions() == (2,)
    assert arrangement(K, "E").codimensions() == (2,)
    assert arrangement(K, "C").codimensions() == (4,)
    with pytest.raises(ValueError):
        arrangement(K, "Q")


def test_in_complement_examples():
    # a point avoids the arrangement exactly when its zero set is a face
    K = simplex_boundary(3)
    assert K.has_face([])
    assert K.has_face([1, 2])
    assert not K.has_face([1, 2, 3])


def test_in_complement_is_monotone(test_complexes):
    for K in test_complexes:
        if K.m > 6:
            continue
        for r in range(K.m + 1):
            for sub in itertools.combinations(range(1, K.m + 1), r):
                if K.has_face(sub):
                    assert all(
                        K.has_face(rest)
                        for rest in itertools.combinations(sub, max(r - 1, 0))
                    )


def test_generators_are_minimal_outside_points(test_complexes):
    for K in test_complexes:
        if K.m > 6:
            continue
        A = arrangement(K, "R")
        gens = {frozenset(g) for g in A.generators}
        for a, b in itertools.combinations(gens, 2):
            assert not a < b and not b < a
        minimal_outside = set()
        for r in range(1, K.m + 1):
            for sub in itertools.combinations(range(1, K.m + 1), r):
                if not K.has_face(sub) and all(
                    K.has_face(rest) for rest in itertools.combinations(sub, r - 1)
                ):
                    minimal_outside.add(frozenset(sub))
        assert gens == minimal_outside


def test_real_complement_homology_examples():
    assert moment_angle_homology(simplex_boundary(3)) == [Z, HomologyGroup(0), Z]
    groups = moment_angle_homology(full_simplex(3))
    assert groups[0] == Z and all(g.is_trivial() for g in groups[1:])
    assert moment_angle_homology(discrete_complex(2)) == [Z, Z]


def test_arrangement_is_dataclass_value():
    assert Arrangement("R", ((1, 2),)) == Arrangement("R", ((1, 2),))
