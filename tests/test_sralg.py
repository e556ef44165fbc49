import itertools
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from combitop import sralg
from combitop.simplicial import discrete_complex, full_simplex, polygon_boundary, simplex_boundary
from combitop.sralg import (
    ONE,
    GradingMode,
    Monomial,
    coproduct,
    hilbert_series,
    monomial_basis,
    multiply,
)

from oracles import brute_monomial_basis, brute_monomial_count, join, small_complexes

MODES = list(GradingMode)


def mono(*pairs):
    return Monomial(tuple(pairs))


def test_monomial_construction():
    assert Monomial.from_vertices([3, 1]).powers == ((1, 1), (3, 1))
    assert Monomial.from_exponents({2: 0, 1: 3}).powers == ((1, 3),)
    with pytest.raises(ValueError):
        Monomial(((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        Monomial(((1, 0),))


def test_degrees():
    m = mono((1, 2), (3, 1))
    assert m.degree(GradingMode.REAL) == 3
    assert m.degree(GradingMode.COMPLEX) == 6
    assert mono((1, 1), (2, 1)).degree(GradingMode.EXTERIOR) == 2


def test_basis_examples():
    K = simplex_boundary(3)
    real2 = monomial_basis(K, GradingMode.REAL, 2)
    assert len(real2) == 6
    assert [str(m) for m in real2] == ["v1^2", "v1 v2", "v1 v3", "v2^2", "v2 v3", "v3^2"]
    ext2 = monomial_basis(K, GradingMode.EXTERIOR, 2)
    assert [str(m) for m in ext2] == ["v1 v2", "v1 v3", "v2 v3"]
    for mode in MODES:
        assert monomial_basis(K, mode, 0) == [ONE]


def test_basis_excludes_non_faces():
    K = simplex_boundary(3)
    real3 = monomial_basis(K, GradingMode.REAL, 3)
    assert mono((1, 1), (2, 1), (3, 1)) not in real3
    assert len(real3) == 9
    assert monomial_basis(K, GradingMode.EXTERIOR, 3) == []


def test_complex_mode_odd_degrees_empty():
    K = full_simplex(2)
    assert monomial_basis(K, GradingMode.COMPLEX, 3) == []
    assert len(monomial_basis(K, GradingMode.COMPLEX, 4)) == 3


def test_basis_refused_past_the_bound_before_any_monomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomial_basis built a monomial")

    monkeypatch.setattr(sralg, "Monomial", type("Refused", (), {"__new__": refuse}))
    # the 12-simplex at real degree 16: C(27, 11) monomials
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^monomial basis too large: {math.comb(27, 11)}"
                                         rf" monomials, more than 1048576$"):
        monomial_basis(full_simplex(12), GradingMode.REAL, 16)
    assert time.perf_counter() - start < 1
    # a count past the interpreter's int-to-str digit limit is given by its size
    degree = 10**2500 - 1
    bits = math.comb(degree + 2, 2).bit_length()
    with pytest.raises(ValueError, match=rf"^monomial basis too large: a {bits}-bit number of"):
        monomial_basis(full_simplex(3), GradingMode.REAL, degree)


def test_basis_counts_match_brute_force(test_complexes):
    for K in test_complexes:
        if K.m > 5:
            continue
        for mode in MODES:
            for d in range(7):
                expected = brute_monomial_count(K, mode.value, d)
                assert len(monomial_basis(K, mode, d)) == expected


@settings(max_examples=100)
@given(small_complexes(max_m=7))
def test_basis_order_matches_sorted_compositions_drawn(K):
    for mode in MODES:
        for d in range(7):
            basis = [m.powers for m in monomial_basis(K, mode, d)]
            assert basis == brute_monomial_basis(K, mode.value, d), (mode, d)


def test_basis_large_exponent_on_many_vertices():
    # one monomial per vertex, each v^100000: the walk tries no smaller exponent
    basis = monomial_basis(discrete_complex(64), GradingMode.REAL, 100_000)
    assert basis == [mono((v, 100_000)) for v in range(1, 65)]


def test_hilbert_series_single_vertex():
    series = hilbert_series(full_simplex(1), GradingMode.REAL)
    assert series.numerator == (1,)
    assert series.denominator_power == 1
    assert [series.coefficient(d) for d in range(5)] == [1, 1, 1, 1, 1]


def test_hilbert_series_exterior_polynomial():
    series = hilbert_series(simplex_boundary(3), GradingMode.EXTERIOR)
    assert series.numerator == (1, 3, 3)
    assert series.denominator_power == 0


def test_hilbert_series_real_coefficient():
    series = hilbert_series(simplex_boundary(3), GradingMode.REAL)
    assert series.coefficient(3) == 9


def test_hilbert_series_matches_basis(test_complexes):
    for K in test_complexes:
        if K.m > 5:
            continue
        for mode in MODES:
            series = hilbert_series(K, mode)
            for d in range(9):
                assert series.coefficient(d) == len(monomial_basis(K, mode, d))


@settings(max_examples=100)
@given(small_complexes(max_m=5))
def test_hilbert_coefficients_match_brute_force_drawn(K):
    for mode in MODES:
        series = hilbert_series(K, mode)
        for d in range(5):
            assert series.coefficient(d) == brute_monomial_count(K, mode.value, d)


def test_multiply_examples():
    K = simplex_boundary(3)
    assert multiply(mono((1, 1)), mono((2, 1)), K, GradingMode.REAL) == (
        1,
        mono((1, 1), (2, 1)),
    )
    assert multiply(mono((1, 1), (2, 1)), mono((3, 1)), K, GradingMode.REAL) is None
    assert multiply(mono((2, 1)), mono((1, 1)), K, GradingMode.EXTERIOR) == (
        -1,
        mono((1, 1), (2, 1)),
    )
    assert multiply(mono((1, 1)), mono((1, 1)), K, GradingMode.EXTERIOR) is None
    assert multiply(mono((1, 1)), mono((1, 1)), K, GradingMode.REAL) == (1, mono((1, 2)))


def _basis_through_degree(K, mode, dmax):
    out = []
    for d in range(dmax + 1):
        out.extend(monomial_basis(K, mode, d))
    return out


def _signed_product(first, second, K, mode):
    """Compose a signed product with one more factor; None means zero."""
    if first is None:
        return None
    sign, m = first
    nxt = multiply(m, second, K, mode)
    if nxt is None:
        return None
    return (sign * nxt[0], nxt[1])


@pytest.mark.parametrize("mode", MODES)
def test_multiply_associative_and_graded_commutative(mode):
    K = simplex_boundary(3)
    basis = [b for b in _basis_through_degree(K, mode, 4) if b.total_exponent]
    for a, b, c in itertools.product(basis, repeat=3):
        if a.degree(mode) + b.degree(mode) + c.degree(mode) > 6:
            continue
        left = _signed_product(multiply(a, b, K, mode), c, K, mode)
        ab_rev = multiply(b, c, K, mode)
        right = None
        if ab_rev is not None:
            partial = multiply(a, ab_rev[1], K, mode)
            if partial is not None:
                right = (ab_rev[0] * partial[0], partial[1])
        assert left == right
    for a, b in itertools.product(basis, repeat=2):
        fwd = multiply(a, b, K, mode)
        bwd = multiply(b, a, K, mode)
        assert (fwd is None) == (bwd is None)
        if fwd is not None:
            koszul = (
                -1
                if mode is GradingMode.EXTERIOR
                and a.degree(mode) % 2
                and b.degree(mode) % 2
                else 1
            )
            assert fwd[1] == bwd[1]
            assert fwd[0] == koszul * bwd[0]


def test_coproduct_primitive_vertex():
    z = mono((1, 1))
    for mode in MODES:
        assert coproduct(z, mode) == [(1, ONE, z), (1, z, ONE)] or coproduct(z, mode) == [
            (1, z, ONE),
            (1, ONE, z),
        ]


def test_coproduct_square_of_vertex():
    z = mono((1, 2))
    terms = coproduct(z, GradingMode.REAL)
    assert Counter((s, a.powers, b.powers) for s, a, b in terms) == Counter(
        [
            (1, (), ((1, 2),)),
            (1, ((1, 1),), ((1, 1),)),
            (1, ((1, 2),), ()),
        ]
    )


def test_coproduct_exterior_edge_signs():
    z = mono((1, 1), (2, 1))
    terms = coproduct(z, GradingMode.EXTERIOR)
    assert Counter((s, a.powers, b.powers) for s, a, b in terms) == Counter(
        [
            (1, (), ((1, 1), (2, 1))),
            (1, ((1, 1),), ((2, 1),)),
            (-1, ((2, 1),), ((1, 1),)),
            (1, ((1, 1), (2, 1)), ()),
        ]
    )


def _coassociativity_sides(z, mode):
    left = Counter()
    right = Counter()
    for s, z1, z2 in coproduct(z, mode):
        for s2, x, y in coproduct(z1, mode):
            left[(x.powers, y.powers, z2.powers)] += s * s2
        for s2, y, w in coproduct(z2, mode):
            right[(z1.powers, y.powers, w.powers)] += s * s2
    return left, right


def _pairing(z, m):
    return z == m


@pytest.mark.parametrize("mode", MODES)
def test_coproduct_coassociative(mode, test_complexes):
    for K in test_complexes:
        if K.m > 4:
            continue
        for d in range(5):
            for z in monomial_basis(K, mode, d):
                left, right = _coassociativity_sides(z, mode)
                assert +left == +right


@pytest.mark.parametrize("mode", MODES)
def test_coproduct_dual_to_multiplication(mode):
    for K in (simplex_boundary(3), polygon_boundary(4)):
        basis = _basis_through_degree(K, mode, 4)
        for z in basis:
            terms = coproduct(z, mode)
            for a, b in itertools.product(basis, repeat=2):
                if a.degree(mode) + b.degree(mode) != z.degree(mode):
                    continue
                lhs = sum(s for s, z1, z2 in terms if z1 == a and z2 == b)
                prod = multiply(a, b, K, mode)
                rhs = 0
                if prod is not None and prod[1] == z:
                    rhs = prod[0]
                assert lhs == rhs, (str(z), str(a), str(b), mode)


def test_restriction_compatibility(test_complexes):
    import random

    rng = random.Random(12)
    for K in test_complexes:
        if K.m > 5 or K.m < 2:
            continue
        W = sorted(rng.sample(range(1, K.m + 1), rng.randint(1, K.m)))
        relabel = {v: i + 1 for i, v in enumerate(W)}
        R = K.restrict(W)
        for mode in MODES:
            for d in range(5):
                sub = {
                    Monomial(tuple((relabel[v], e) for v, e in m.powers))
                    for m in monomial_basis(K, mode, d)
                    if set(m.support) <= set(W)
                }
                assert sub == set(monomial_basis(R, mode, d))


@settings(max_examples=100)
@given(small_complexes(max_m=4), small_complexes(max_m=4))
def test_join_rule_for_series_and_missing_faces(K, L):
    # the face ring of K * L is the tensor product of the factors' rings, so each
    # Hilbert series is the product; a missing face of the join lies in one factor
    J = join(K, L)
    for mode in MODES:
        a, b, ab = (hilbert_series(X, mode) for X in (K, L, J))
        for d in range(11):
            assert ab.coefficient(d) == sum(a.coefficient(i) * b.coefficient(d - i)
                                            for i in range(d + 1))
    assert J.missing_face_masks() == K.missing_face_masks() | {
        w << K.m for w in L.missing_face_masks()}
    assert J.is_flag() == (K.is_flag() and L.is_flag())
