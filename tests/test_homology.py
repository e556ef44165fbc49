import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from combitop.facecat import cubical_model
from combitop.homology import (
    ChainComplex,
    HomologyGroup,
    check_square_zero,
    invariant_factors,
    smith_diagonal,
    smith_normal_form,
)
from combitop.macomplex import real_moment_angle

from oracles import (
    dense_boundaries,
    dense_smith_normal_form,
    invariant_chain,
    small_complexes,
    snf_by_determinant_divisors,
)


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[1, 1], [1, 1]]) == [1]


def test_snf_divisibility_chain():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat)
        assert all(d >= 1 for d in diag)
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))


def test_snf_against_determinant_divisors():
    rng = random.Random(5)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(mat) == snf_by_determinant_divisors(mat)


def test_snf_torsion_heavy():
    assert smith_normal_form([[2, 4], [4, 2]]) == [2, 6]
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]


def test_invariant_factors_examples():
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([1, 1, 2, 1]) == (2,)
    assert invariant_factors([1]) == ()
    assert invariant_factors([]) == ()
    assert invariant_factors([12, 2, 2]) == (2, 2, 12)
    with pytest.raises(ValueError):
        invariant_factors([2, 0])


def test_invariant_factors_against_determinant_divisors():
    # the sum of Z/d_i is presented by the diagonal matrix diag(d_i)
    rng = random.Random(17)
    for _ in range(80):
        orders = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
        diagonal = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
        expected = tuple(d for d in snf_by_determinant_divisors(diagonal) if d > 1)
        assert invariant_factors(orders) == expected


def normalised(diag: list[int]) -> list[int]:
    """A Smith diagonal as ``smith_normal_form`` returns it: 1s, then the invariant factors."""
    factors = invariant_factors(diag)
    return [1] * (len(diag) - len(factors)) + list(factors)


#: Cyclic orders: small ones, which share primes, and products of primes below 100 past
#: 2^64 (twelve or more above 40), which the trial-division oracle can still factor.
PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
ORDERS = st.one_of(st.integers(1, 60), st.builds(
    lambda small, large: math.prod(small + large), st.lists(st.sampled_from(PRIMES), max_size=4),
    st.lists(st.sampled_from([p for p in PRIMES if p > 40]), min_size=12, max_size=14)))


@st.composite
def repeated_orders(draw):
    """Up to six orders, each repeated up to a few thousand times, shuffled together."""
    orders = [d for d, n in draw(st.lists(st.tuples(ORDERS, st.integers(1, 3000)), max_size=6))
              for _ in range(n)]
    draw(st.randoms()).shuffle(orders)
    return orders


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(repeated_orders())
@example([2] * 8192)
@example([4, 2] * 4096)
@example([6, 10, 15] * 3000)
def test_invariant_factors_match_prime_powers(orders):
    # against the chain whose k-th largest factor takes the k-th largest power of each prime
    assert invariant_factors(orders) == invariant_chain(orders)


#: Matrix entries: sparse with +-1 entries, so that pivots, re-reduced residuals and a
#: finished remainder all occur; no +-1 entry, so that every column reaches the finisher;
#: and past 2^64.
ENTRIES = [st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
           st.integers(-30, 30).filter(lambda a: abs(a) != 1),
           st.one_of(st.just(0), st.integers(2**64, 2**70), st.integers(-2**70, -2**64),
                     st.sampled_from([2, -3, 2**64 + 1]))]


@st.composite
def integer_matrices(draw):
    entries = draw(st.sampled_from(ENTRIES))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=400)
@given(integer_matrices())
@example([[2], [3]])  # a column with no unit entry whose Smith diagonal is [1]
@example([[2, 0], [3, 4]])
def test_sparse_snf_matches_dense(mat):
    # the one reducer, normalised, against the dense elimination it replaced, and both
    # against determinant divisors; the caller's columns stay as given
    columns = [{i: row[j] for i, row in enumerate(mat) if row[j]}
               for j in range(len(mat[0]) if mat else 0)]
    copies = [dict(col) for col in columns]
    expected = dense_smith_normal_form(mat)
    assert normalised(smith_diagonal(columns)) == smith_normal_form(mat) == expected
    assert columns == copies
    assert expected == (snf_by_determinant_divisors(mat) if columns and mat else [])


def test_sparse_snf_matches_determinant_divisors():
    # sparse columns with many +-1 entries, so that pivots, re-reduced
    # residuals and a finished remainder all occur
    rng = random.Random(23)
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        mat = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(cols)] for _ in range(rows)]
        columns = [{i: mat[i][j] for i in range(rows) if mat[i][j]} for j in range(cols)]
        expected = snf_by_determinant_divisors(mat) if rows and cols else []
        assert normalised(smith_diagonal(columns)) == smith_normal_form(mat) == expected
        assert dense_smith_normal_form(mat) == expected
        assert columns == [{i: mat[i][j] for i in range(rows) if mat[i][j]} for j in range(cols)]


def test_check_square_zero():
    # the augmented chains of an edge: cells empty, {1}, {2}, {1,2}
    check_square_zero([{}, {0: 1}, {0: 1}, {2: 1, 1: -1}])
    with pytest.raises(ValueError):
        check_square_zero([{}, {0: 1}, {0: 1}, {2: 1, 1: 1}])


def test_gf2_rank():
    # the mod-2 rank of d_1 is rank C_0 minus the mod-2 Betti number b_0
    def gf2_rank(mat):
        return len(mat) - ChainComplex([len(mat), len(mat[0])], [mat]).homology(mod2=True)[0].betti

    assert gf2_rank([[1, 1], [1, 1]]) == 1
    assert gf2_rank([[2, 0], [0, 3]]) == 1  # mod 2 only the 3 survives
    assert gf2_rank([[0]]) == 0
    assert gf2_rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_homology_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 2))  # no divisibility
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(HomologyGroup(0)) == "0"


def test_point_homology():
    C = ChainComplex([1], [])
    assert C.homology() == [HomologyGroup(1)]


def test_circle_from_square_boundary():
    # 4 vertices, 4 edges in a cycle
    d1 = [
        [-1, 0, 0, 1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
    ]
    C = ChainComplex([4, 4], [d1])
    assert C.homology() == [HomologyGroup(1), HomologyGroup(1)]
    assert C.homology(mod2=True) == [HomologyGroup(1), HomologyGroup(1)]


def test_mod2_degree_doubling_torsion():
    # one 0-cell, one 1-cell attached by degree 2 (real projective line)
    C = ChainComplex([1, 1], [[[2]]])
    assert C.homology() == [HomologyGroup(0, (2,)), HomologyGroup(0)]
    assert C.homology(mod2=True) == [HomologyGroup(1), HomologyGroup(1)]


def test_klein_bottle():
    # one vertex, loops a and b, square glued as a b a^-1 b
    d1 = [[0, 0]]
    d2 = [[0], [2]]
    C = ChainComplex([1, 2, 1], [d1, d2])
    assert C.homology() == [
        HomologyGroup(1),
        HomologyGroup(1, (2,)),
        HomologyGroup(0),
    ]
    assert [g.betti for g in C.homology(mod2=True)] == [1, 2, 1]


def test_boundary_squared_checked():
    d1 = [[1, 0], [-1, 1]]
    d2 = [[1], [1]]
    with pytest.raises(ValueError):
        ChainComplex([2, 2, 1], [d1, d2])


def test_shape_validation():
    with pytest.raises(ValueError):
        ChainComplex([2, 2], [[[1, 0]]])


def test_euler_characteristic_matches_betti(test_complexes):
    from combitop.facecat import cubical_model

    for K in test_complexes:
        C = cubical_model(K).chain_complex()
        groups = C.homology()
        chi = sum((-1) ** k * g.betti for k, g in enumerate(groups))
        assert chi == C.euler_characteristic()


def test_universal_coefficients_mod2(test_complexes):
    # dim H_k(F2) = b_k + (even torsion in H_k) + (even torsion in H_{k-1});
    # ties the Smith-normal-form route to the independent GF(2) elimination
    from combitop.macomplex import moment_angle_homology

    for K in test_complexes:
        if K.m > 8:
            continue
        over_z = moment_angle_homology(K)
        over_f2 = moment_angle_homology(K, mod2=True)
        even = [sum(1 for d in g.torsion if d % 2 == 0) for g in over_z]
        for k, g2 in enumerate(over_f2):
            expected = over_z[k].betti + even[k] + (even[k - 1] if k else 0)
            assert g2.betti == expected


def test_cubical_complex_rejects_unknown_facet():
    cells = [["a"], ["e"]]

    def boundary(cell):
        return [(1, "b"), (-1, "a")] if cell == "e" else []

    with pytest.raises(KeyError):
        ChainComplex.from_cells(cells, boundary)


@settings(max_examples=40)
@given(small_complexes())
def test_sparse_assembly_matches_dense(K):
    # the columns rebuild the matrices of entry-by-entry dense assembly, and the
    # complex built back from those matrices has the same homology in both rings
    for X in (cubical_model(K), real_moment_angle(K)):
        C = X.chain_complex()
        assert C.boundaries == dense_boundaries(X)
        for mod2 in (False, True):
            assert ChainComplex(C.ranks, C.boundaries).homology(mod2) == C.homology(mod2)


def test_cubical_complex_adds_repeated_facets():
    def cubical(cells, terms):
        return ChainComplex.from_cells(cells, lambda cell: terms.get(cell, []))

    # d e lists b twice: d e = 2b, and H_0 = Z/2
    doubled = cubical([["b"], ["e"]], {"e": [(1, "b"), (1, "b")]})
    assert doubled.boundaries == [[[2]]]
    assert doubled.homology() == [HomologyGroup(0, (2,)), HomologyGroup(0)]
    # a loop at a whose boundary lists a with both signs: the pair cancels, keeps no
    # entry, and H is that of the circle
    loop = cubical([["a"], ["e"]], {"e": [(1, "a"), (-1, "a")]})
    assert loop._columns == [[{}]]
    assert loop.homology() == [HomologyGroup(1), HomologyGroup(1)]
    # two edges from a to b, the second listing a three times: a - a - a + b = b - a
    circle = cubical([["a", "b"], ["e", "f"]], {
        "e": [(1, "b"), (-1, "a")], "f": [(1, "a"), (1, "b"), (-1, "a"), (-1, "a")]})
    assert circle.boundaries == [[[-1, -1], [1, 1]]]
    assert circle.homology() == circle.homology(mod2=True) == [HomologyGroup(1), HomologyGroup(1)]
