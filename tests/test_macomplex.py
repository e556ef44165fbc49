import random
import tracemalloc

import pytest
from hypothesis import example, given, settings

from combitop import facecat, homology, macomplex
from combitop.connectivity import connectivity_report
from combitop.facecat import CubicalCell, cubical_model
from combitop.homology import HomologyGroup
from combitop.macomplex import act, moment_angle_homology, orbit_counts, real_moment_angle
from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    polygon_boundary,
    simplex_boundary,
)

from oracles import join, kunneth, random_complex, small_complexes, subset_walk_homology

Z = HomologyGroup(1)
ZERO = HomologyGroup(0)


def test_full_simplex_on_two_vertices_is_square():
    model = real_moment_angle(full_simplex(2))
    assert model.cell_counts() == (4, 4, 1)


def test_two_points_gives_square_boundary():
    model = real_moment_angle(discrete_complex(2))
    assert model.cell_count() == 8
    assert moment_angle_homology(discrete_complex(2)) == [Z, Z]


def test_triangle_boundary_cells():
    model = real_moment_angle(simplex_boundary(3))
    assert model.cell_counts() == (8, 12, 6)


def test_sphere_homology():
    for m in (3, 4, 5):
        groups = moment_angle_homology(simplex_boundary(m))
        expected = [Z] + [ZERO] * (m - 2) + [Z]
        assert groups == expected


def test_full_simplex_contractible():
    for m in (1, 2, 3):
        groups = moment_angle_homology(full_simplex(m))
        assert groups[0] == Z
        assert all(g.is_trivial() for g in groups[1:])


def test_torus_from_square():
    model = real_moment_angle(polygon_boundary(4))
    assert model.cell_counts() == (16, 32, 16)
    assert model.euler_characteristic() == 0
    assert moment_angle_homology(polygon_boundary(4)) == [Z, HomologyGroup(2), Z]


def test_genus_five_from_pentagon():
    # closed orientable surface: chi = 32 - 80 + 40 = -8, so genus 5
    model = real_moment_angle(polygon_boundary(5))
    assert model.euler_characteristic() == -8
    groups = moment_angle_homology(polygon_boundary(5))
    assert groups == [Z, HomologyGroup(10), Z]


def test_cell_count_formula(test_complexes):
    for K in test_complexes:
        if K.m > 16:
            continue
        model = real_moment_angle(K)
        expected = sum(2 ** (K.m - len(f)) for f in K.faces())
        assert model.cell_count() == expected


def test_vertex_cap():
    with pytest.raises(ValueError):
        real_moment_angle(discrete_complex(17))


def test_stabilizer_is_free_coordinate_set():
    K = simplex_boundary(3)
    for cell in real_moment_angle(K).all_cells():
        for v in range(1, K.m + 1):
            assert (act(cell, v) == cell) == (v in cell.free_vertices())


def test_stabilizer_examples():
    # the vertex (-1, +1, -1) of [-1,1]^3: coordinate 2 sits at +1
    cell = CubicalCell(0b010, 0b010)
    assert cell.free_vertices() == ()
    top = CubicalCell(0, 0b111)
    assert top.free_vertices() == (1, 2, 3)
    # free in 1 and 2, coordinate 3 at -1
    edge = CubicalCell(0, 0b011)
    assert edge.free_vertices() == (1, 2)


def test_orbit_counts():
    assert orbit_counts(simplex_boundary(3)) == (1, 3, 3)
    assert orbit_counts(full_simplex(4)) == (1, 4, 6, 4, 1)


def test_orbit_stabilizer_sum(test_complexes):
    for K in test_complexes:
        counts = orbit_counts(K)
        total = sum(n * 2 ** (K.m - k) for k, n in enumerate(counts))
        assert total == real_moment_angle(K).cell_count()


def test_action_permutes_cells_respecting_boundary(test_complexes):
    for K in test_complexes[:6]:
        model = real_moment_angle(K)
        cells = set(model.all_cells())
        for v in range(1, K.m + 1):
            for cell in cells:
                image = act(cell, v)
                assert image in cells
                got = {c for _, c in image.boundary()}
                expected = {act(c, v) for _, c in cell.boundary()}
                assert got == expected
                if v not in cell.free_vertices():
                    # moving a fixed coordinate keeps all signs intact
                    signed = {(s, act(c, v)) for s, c in cell.boundary()}
                    assert set(image.boundary()) == signed


def test_connectivity_vanishing(test_complexes):
    # reduced homology vanishes up to the derived connectivity degree
    for K in test_complexes:
        report = connectivity_report(K)
        bound = report.d_prime["coxeter"]
        groups = moment_angle_homology(K)
        for i, g in enumerate(groups):
            if i > bound:
                break
            reduced_betti = g.betti - (1 if i == 0 else 0)
            assert reduced_betti == 0 and not g.torsion


def test_three_points_gives_wedge_of_circles():
    # R^3 minus the three coordinate axes retracts to S^2 minus 6 points,
    # a wedge of 5 circles
    groups = moment_angle_homology(discrete_complex(3))
    assert groups == [Z, HomologyGroup(5)]


# minimal 6-vertex triangulation of RP^2
RP2 = SimplicialComplex.from_maximal_faces(
    6,
    [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ],
)
#: R_K of RP^2 over Z and over GF(2)
RP2_GROUPS = {False: [Z, ZERO, HomologyGroup(31, (2,)), ZERO],
              True: [HomologyGroup(b) for b in (1, 0, 32, 1)]}


def test_projective_plane_model_has_torsion():
    # pinned after cross-checking the Euler characteristic
    # (64 - 192 + 240 - 80 = 32), universal coefficients against the
    # mod-2 ranks, and the connectivity bound
    model = real_moment_angle(RP2)
    assert model.euler_characteristic() == 32
    for mod2 in (False, True):
        assert moment_angle_homology(RP2, mod2) == RP2_GROUPS[mod2]


# RP^2 and a disjoint vertex: the torsion sits in a proper full subcomplex
RP2_AND_POINT = SimplicialComplex.from_maximal_faces(7, [list(f) for f in RP2.faces()] + [[7]])
RP2_AND_3_POINTS = SimplicialComplex.from_maximal_faces(
    9, [list(f) for f in RP2.faces()] + [[7], [8], [9]]
)


@settings(max_examples=100)
@given(small_complexes())
@example(RP2)
@example(RP2_AND_POINT)
@example(polygon_boundary(5))
@example(RP2_AND_3_POINTS)
@example(polygon_boundary(10))
@example(random_complex(9, random.Random(10)))
@example(SimplicialComplex.from_maximal_faces(0, []))  # R_K is a point
def test_splitting_matches_cubical_model(K):
    # the stable splitting against the cubical chains of the same space,
    # torsion and trailing zero groups included
    for mod2 in (False, True):
        assert moment_angle_homology(K, mod2) == real_moment_angle(K).chain_complex().homology(mod2)
    check_euler_and_universal_coefficients(K)


# two disjoint copies of RP^2: each proper K_C is a cone, a Moebius band or RP^2 itself
TWO_RP2 = SimplicialComplex.from_maximal_faces(
    12, [list(f) for f in RP2.faces()] + [[v + 6 for v in f] for f in RP2.faces()]
)


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_m=12))
@example(TWO_RP2)
@example(RP2_AND_3_POINTS)
@example(discrete_complex(12))
@example(polygon_boundary(12))
def test_connected_sets_match_the_subset_walk(K):
    # the sum over connected vertex sets against the sum over every vertex set
    for mod2 in (False, True):
        assert moment_angle_homology(K, mod2) == subset_walk_homology(K, mod2)


def test_cubical_homology_builds_no_dense_matrix():
    # the dense boundaries of the 10-gon's R_K hold about 18 M entries; its sparse
    # columns and their reduction stay far below
    tracemalloc.start()
    try:
        real_moment_angle(polygon_boundary(10)).chain_complex().homology()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# -- identities that hold at every size the CLI admits -------------------


def cell_euler(K) -> int:
    """The Euler characteristic of R_K from its cells: 2^(m - |J|) cells for each face J."""
    return sum((-1) ** J.bit_count() << K.m - J.bit_count() for J in K.face_masks)


def alternating_rank(groups) -> int:
    return sum((-1) ** i * g.betti for i, g in enumerate(groups))


def universal_coefficient_ranks(groups) -> list[int]:
    """GF(2) Betti numbers from the integer groups: b_i + t_i + t_(i-1), with t_i the
    number of even invariant factors of H_i."""
    even = [sum(d % 2 == 0 for d in g.torsion) for g in groups]
    return [g.betti + t + s for g, t, s in zip(groups, even, [0, *even])]


def check_euler_and_universal_coefficients(K):
    Z, F2 = moment_angle_homology(K), moment_angle_homology(K, mod2=True)
    assert alternating_rank(Z) == alternating_rank(F2) == cell_euler(K)
    assert [g.betti for g in F2] == universal_coefficient_ranks(Z)


def test_euler_and_universal_coefficients(test_complexes):
    for K in test_complexes + [RP2, RP2_AND_POINT, polygon_boundary(8), simplex_boundary(7)]:
        check_euler_and_universal_coefficients(K)


def polygon_groups(m: int) -> list[HomologyGroup]:
    """R_K of the m-gon: an orientable surface of genus 1 + (m - 4) 2^(m - 3)."""
    return [Z, HomologyGroup(2 + (m - 4) * 2 ** (m - 2)), Z]


@pytest.mark.parametrize("m", range(4, 17))
def test_polygon_is_a_surface_of_its_genus(m):
    for mod2 in (False, True):
        assert moment_angle_homology(polygon_boundary(m), mod2) == polygon_groups(m)


@pytest.mark.parametrize("m", range(1, 17))
def test_points_give_a_wedge_of_circles(m):
    # every connected vertex set is one point, a component of 2^(m - 1) sets W, so
    # H_1 has rank m 2^(m - 1) - (2^m - 1)
    for mod2 in (False, True):
        groups = [Z, HomologyGroup((m - 2) * 2 ** (m - 1) + 1)]
        assert moment_angle_homology(discrete_complex(m), mod2) == groups


# R_K of a join is the product R_K x R_L.  Each factor's groups are known without the
# reducer under test: RP^2's are pinned, and the m-gon's are free, in closed form.
JOINS = {"rp2*pentagon": ("rp2", 5), "rp2*rp2": ("rp2", "rp2"), "hexagon*heptagon": (6, 7)}


def join_and_kunneth(name: str, mod2: bool):
    """The join and its groups by Kunneth, from factors named "rp2" or by a polygon's m."""
    (K, A), (L, B) = (
        (RP2, RP2_GROUPS[mod2]) if f == "rp2" else (polygon_boundary(f), polygon_groups(f))
        for f in JOINS[name]
    )
    return join(K, L), kunneth(A, B)


@pytest.mark.parametrize("mod2", [False, True], ids=["Z", "GF2"])
@pytest.mark.parametrize("name", JOINS)
def test_join_is_the_kunneth_product(name, mod2):
    J, groups = join_and_kunneth(name, mod2)
    assert moment_angle_homology(J, mod2) == groups


def test_identities_fail_on_mutated_reducers(monkeypatch):
    snf, rank, groups = (macomplex.sparse_smith_normal_form, macomplex.xor_rank,
                         macomplex.homology_groups)
    with monkeypatch.context() as patch:
        # a torsion factor dropped, every rank kept: universal coefficients see it, and
        # so does Kunneth on a join
        patch.setattr(macomplex, "sparse_smith_normal_form", lambda cols: [1] * len(snf(cols)))
        Z = moment_angle_homology(RP2)
        assert [g.betti for g in moment_angle_homology(RP2, mod2=True)] != (
            universal_coefficient_ranks(Z))
        J, product = join_and_kunneth("rp2*pentagon", False)
        assert moment_angle_homology(J) != product
    with monkeypatch.context() as patch:
        # a pivot dropped in either ring: the sphere R_K of the 5-simplex's boundary sees
        # it (no polygon reaches a reducer), and universal coefficients and Kunneth on a
        # join see it over Z
        patch.setattr(macomplex, "sparse_smith_normal_form", lambda cols: snf(cols)[:-1])
        patch.setattr(macomplex, "xor_rank", lambda cols: max(rank(cols) - 1, 0))
        for mod2 in (False, True):
            assert moment_angle_homology(simplex_boundary(6), mod2) != [Z, *[ZERO] * 4, Z]
        patch.setattr(macomplex, "xor_rank", rank)
        Z = moment_angle_homology(RP2)
        assert [g.betti for g in moment_angle_homology(RP2, mod2=True)] != (
            universal_coefficient_ranks(Z))
        assert moment_angle_homology(J) != product
    with monkeypatch.context() as patch:
        # a chain group one cell larger: the Euler identity sees it, which no change
        # to a Smith diagonal can break, as each rank enters two Betti numbers of
        # opposite sign
        patch.setattr(macomplex, "homology_groups",
                      lambda ranks, diagonals: groups([ranks[0] + 1, *ranks[1:]], diagonals))
        assert alternating_rank(moment_angle_homology(RP2)) != cell_euler(RP2)


@settings(max_examples=60)
@given(small_complexes())
@example(polygon_boundary(5))
def test_models_are_polyhedral_products(K):
    # both models against every cube lower <= upper of {0,1}^m: (I, 0)^K
    # keeps the cubes with upper a face, (D^1, S^0)^K those with a face as
    # free set
    pairs = [
        (lower, upper)
        for upper in range(1 << K.m)
        for lower in range(1 << K.m)
        if not lower & ~upper
    ]
    cone = cubical_model(K)
    assert cone.cell_count() == len(set(cone.all_cells()))
    assert set(cone.all_cells()) == {
        CubicalCell(lower, upper) for lower, upper in pairs if upper in K.face_masks
    }
    model = real_moment_angle(K)
    cells = set(model.all_cells())
    assert model.cell_count() == len(cells)
    assert cells == {
        CubicalCell(lower, upper) for lower, upper in pairs if upper & ~lower in K.face_masks
    }
    for X in (cone, model):
        for k, bucket in enumerate(X.cells_by_dim):
            assert all(cell.dim == k for cell in bucket)
    for cell in cells:
        for v in range(1, K.m + 1):
            assert act(act(cell, v), v) == cell


def test_rp2_and_point_homology():
    # Z/2 from W = {1..6}, whose K_W is RP^2, and from W = {1..7}
    assert moment_angle_homology(RP2_AND_POINT)[2].torsion == (2, 2)


@pytest.mark.parametrize(
    "K, residual",
    [(RP2, True), (RP2_AND_POINT, True), (polygon_boundary(8), False), (simplex_boundary(7), False)],
    ids=["rp2", "rp2+point", "pg8", "sb7"],
)
def test_splitting_checks_once_and_reduces_sparsely(monkeypatch, K, residual):
    calls = {"check": 0, "finish": 0, "chains": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def finish(columns):  # a call counts when it is given a residual column
        calls["finish"] += bool(columns)
        return finisher(columns)

    finisher = homology.gcd_smith_normal_form
    monkeypatch.setattr(macomplex, "check_square_zero", counted("check", homology.check_square_zero))
    monkeypatch.setattr(homology, "gcd_smith_normal_form", finish)
    # a chain complex is built by its constructor, or by from_cells, which calls _keep
    for cls, name in ((homology.ChainComplex, "__init__"), (homology.ChainComplex, "_keep"),
                      (facecat.CubicalComplex, "__init__")):
        monkeypatch.setattr(cls, name, counted("chains", getattr(cls, name)))
    for mod2 in (False, True):
        calls.update(check=0, finish=0)
        moment_angle_homology(K, mod2)
        # one d o d check on K's boundary; the sparse finisher gets columns only from a
        # residual without +-1 entries, so only where there is torsion
        assert calls["check"] == 1
        assert (calls["finish"] > 0) == (residual and not mod2)
    assert calls["chains"] == 0


@settings(max_examples=60)
@given(small_complexes())
@example(RP2)
@example(simplex_boundary(7))
@example(polygon_boundary(9))
@example(polygon_boundary(12))
def test_no_vertex_or_edge_reaches_a_reducer(K):
    # d_0 and d_1 leave only closed forms: a column passed to either reducer is the
    # boundary of a face of 3 or more vertices, with as many entries (as set bits over
    # Z/2), a chain passed is never empty, and a graph, such as a polygon, reaches no
    # reducer at all
    calls, sizes = [], []

    def recorded(reducer):
        def wrapper(chain):
            calls.append(chain)
            sizes.extend(len(col) if isinstance(col, dict) else col.bit_count() for col in chain)
            return reducer(chain)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("sparse_smith_normal_form", "xor_rank"):
            patch.setattr(macomplex, name, recorded(getattr(macomplex, name)))
        for mod2 in (False, True):
            moment_angle_homology(K, mod2)
    assert all(size >= 3 for size in sizes)
    assert all(calls)
    assert K.dim >= 2 or not calls


def test_boundary_sign_error_raises(monkeypatch):
    def flipped(face):
        terms = rule(face)
        return terms[:-1] + [(-terms[-1][0], terms[-1][1])] if len(terms) > 1 else terms

    rule = macomplex._simplex_boundary
    monkeypatch.setattr(macomplex, "_simplex_boundary", flipped)
    for mod2 in (False, True):
        with pytest.raises(ValueError, match="d o d"):
            moment_angle_homology(polygon_boundary(4), mod2)
