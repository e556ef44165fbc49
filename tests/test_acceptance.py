"""Acceptance suite: every criterion is exact and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import random
from contextlib import contextmanager

from combitop.connectivity import connectivity_report
from combitop.facecat import cubical_model, face_subcomplex
from combitop.graphprod import (
    CommutationGraph,
    GroupWord,
    cartier_foata_blocks,
    equal,
    normal_form,
    word,
)
from combitop.homology import HomologyGroup
from combitop.macomplex import act, moment_angle_homology, orbit_counts, real_moment_angle
from combitop.arrangement import arrangement
from combitop.simplicial import (
    discrete_complex,
    full_simplex,
    polygon_boundary,
    simplex_boundary,
)
from combitop.sralg import GradingMode, coproduct, hilbert_series, monomial_basis, multiply

from oracles import (
    PackedRewritingOracle,
    all_graphs,
    all_words,
    artin_alphabet,
    brute_monomial_count,
    coxeter_alphabet,
    face_sets,
    random_complexes,
    random_word,
)

Z = HomologyGroup(1)
ZERO = HomologyGroup(0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


def test_criterion_01_flagification(test_complexes):
    with criterion(1, "flagification of simplex boundaries, flag polygons, flag subdivisions"):
        for n in range(3, 9):
            assert simplex_boundary(n).flagify() == full_simplex(n)
        for m in range(4, 11):
            assert polygon_boundary(m).is_flag()
        for K in random_complexes(10, 6, seed=101):
            assert K.barycentric_subdivision().is_flag()


def test_criterion_02_moment_angle_spheres():
    with criterion(2, "moment-angle models of simplex boundaries are spheres"):
        expected_cells = {3: 26, 4: 80, 5: 242}
        for m in (3, 4, 5):
            model = real_moment_angle(simplex_boundary(m))
            assert model.cell_count() == expected_cells[m]
            groups = model.chain_complex().homology()
            assert groups == [Z] + [ZERO] * (m - 2) + [Z]


def test_criterion_03_torus():
    with criterion(3, "moment-angle model of the square is the torus"):
        model = real_moment_angle(polygon_boundary(4))
        assert model.cell_counts() == (16, 32, 16)
        assert model.euler_characteristic() == 0
        groups = model.chain_complex().homology()
        assert groups == [Z, HomologyGroup(2), Z]
        assert all(not g.torsion for g in groups)


def test_criterion_04_connectivity_vanishing():
    with criterion(4, "reduced homology vanishes up to the derived connectivity bound"):
        for K in random_complexes(20, 6, seed=404):
            bound = connectivity_report(K).d_prime["coxeter"]
            groups = moment_angle_homology(K)
            for i, g in enumerate(groups):
                if i > bound:
                    break
                assert g.betti == (1 if i == 0 else 0) and not g.torsion, (K, i)


def _check_word_problem(kind: str, max_len: int, alphabet_fn, rng: random.Random):
    from combitop.graphprod import _block_split, _fully_reduce

    pack = PackedRewritingOracle.pack
    for m in range(1, 5):
        words = all_words(alphabet_fn(m), max_len)
        packed = [pack(w) for w in words]
        for adj in all_graphs(m):
            graph = CommutationGraph(m, adj)
            oracle = PackedRewritingOracle(kind, m, adj, packed_seeds=packed)
            # the partition by normal form must match the closure partition;
            # the reduction internals here are exactly what normal_form runs
            by_component: dict[int, int] = {}
            by_normal_form: dict[int, int] = {}
            for raw, pw in zip(words, packed):
                reduced = _fully_reduce(kind, adj, list(raw))
                nf = pack(
                    letter
                    for block in _block_split(adj, reduced)
                    for letter in block
                )
                comp = oracle.component_packed(pw)
                assert by_component.setdefault(comp, nf) == nf, (m, adj, raw)
                assert by_normal_form.setdefault(nf, comp) == comp, (m, adj, raw)
            # spot-check the public equality predicate against the oracle
            for _ in range(40):
                w1 = rng.choice(words)
                w2 = rng.choice(words)
                got = equal(GroupWord(kind, graph, w1), GroupWord(kind, graph, w2))
                assert got == oracle.equal(w1, w2), (m, adj, w1, w2)


def test_criterion_05_word_problem_oracle():
    with criterion(5, "word problem matches the rewriting-closure oracle exhaustively"):
        rng = random.Random(505)
        _check_word_problem("artin", 5, artin_alphabet, rng)
        _check_word_problem("coxeter", 6, coxeter_alphabet, rng)


def test_criterion_06_complete_graph_coxeter():
    with criterion(6, "coxeter normal forms over complete graphs number 2^m"):
        for m in (2, 3, 4):
            graph = CommutationGraph.from_complex(full_simplex(m))
            seen = set()
            frontier = [()]
            while frontier:
                nxt = []
                for letters in frontier:
                    nf = normal_form(word("coxeter", graph, letters)).letters
                    if nf in seen:
                        continue
                    seen.add(nf)
                    nxt.extend(letters + ((v, 1),) for v in range(1, m + 1))
                frontier = nxt
            assert len(seen) == 2**m


def test_criterion_07_flag_block_property():
    with criterion(7, "normal-form blocks over flag polygons are faces"):
        rng = random.Random(707)
        for m in range(4, 8):
            K = polygon_boundary(m)
            graph = CommutationGraph.from_complex(K)
            for _ in range(1000):
                w = word("artin", graph, random_word("artin", m, rng.randint(0, 9), rng))
                for block in cartier_foata_blocks(w):
                    assert K.has_face([v for v, _ in block])


def test_criterion_08_hilbert_series():
    with criterion(8, "Hilbert series coefficients match brute-force monomial counts"):
        roster = [simplex_boundary(3), simplex_boundary(4), polygon_boundary(4)]
        roster += random_complexes(10, 5, seed=808)
        for K in roster:
            for mode in GradingMode:
                series = hilbert_series(K, mode)
                for d in range(7):
                    assert series.coefficient(d) == brute_monomial_count(K, mode.value, d)
        ext = hilbert_series(simplex_boundary(3), GradingMode.EXTERIOR)
        assert ext.numerator == (1, 3, 3) and ext.denominator_power == 0


def test_criterion_09_coalgebra():
    with criterion(9, "coproduct is coassociative and dual to multiplication"):
        roster = [simplex_boundary(3), polygon_boundary(4)]
        roster += random_complexes(4, 4, seed=909)
        for K in roster:
            for mode in GradingMode:
                basis = []
                for d in range(5):
                    basis.extend(monomial_basis(K, mode, d))
                for z in basis:
                    # coassociativity
                    left: dict = {}
                    right: dict = {}
                    for s, z1, z2 in coproduct(z, mode):
                        for s2, x, y in coproduct(z1, mode):
                            key = (x.powers, y.powers, z2.powers)
                            left[key] = left.get(key, 0) + s * s2
                        for s2, y, w in coproduct(z2, mode):
                            key = (z1.powers, y.powers, w.powers)
                            right[key] = right.get(key, 0) + s * s2
                    assert {k: v for k, v in left.items() if v} == {
                        k: v for k, v in right.items() if v
                    }
                    # duality against multiplication
                    terms = coproduct(z, mode)
                    for a, b in itertools.product(basis, repeat=2):
                        if a.degree(mode) + b.degree(mode) != z.degree(mode):
                            continue
                        lhs = sum(s for s, z1, z2 in terms if z1 == a and z2 == b)
                        prod = multiply(a, b, K, mode)
                        rhs = prod[0] if prod is not None and prod[1] == z else 0
                        assert lhs == rhs


def test_criterion_10_face_category_model(test_complexes):
    with criterion(10, "face-category model: cell counts, point homology, facet intersections"):
        for m in range(2, 7):
            model = cubical_model(simplex_boundary(m))
            assert model.cell_count() == 3**m - 2**m
        for K in test_complexes:
            model = cubical_model(K)
            assert model.euler_characteristic() == 1
            groups = model.chain_complex().homology()
            assert groups[0] == Z and all(g.is_trivial() for g in groups[1:])
            facets = {v: face_subcomplex(K, [v]) for v in range(1, K.m + 1)}
            for f in face_sets(K):
                if f:
                    expected = set.intersection(*(facets[v] for v in f))
                    assert face_subcomplex(K, f) == expected


def test_criterion_11_stabilizers_and_orbits(test_complexes):
    with criterion(11, "sign-flip stabilizers are the free coordinates; orbits count faces"):
        for K in test_complexes:
            flips = range(1, K.m + 1)
            unseen = set(real_moment_angle(K).all_cells())
            orbits = [0] * (K.dim + 2)
            while unseen:
                cell = unseen.pop()
                stabilizer = tuple(v for v in flips if act(cell, v) == cell)
                assert stabilizer == cell.free_vertices()
                # the orbit: the closure of the cell under the flips
                orbit, frontier = {cell}, [cell]
                while frontier:
                    source = frontier.pop()
                    for image in {act(source, v) for v in flips} - orbit:
                        orbit.add(image)
                        frontier.append(image)
                assert len(orbit) == 2 ** (K.m - len(stabilizer))
                unseen -= orbit
                orbits[cell.dim] += 1
            assert tuple(orbits) == orbit_counts(K)


def test_criterion_12_arrangements():
    with criterion(12, "arrangement generators and the zero-set complement predicate"):
        for m in (3, 4, 5):
            A = arrangement(discrete_complex(m), "C")
            assert A.generators == tuple(
                itertools.combinations(range(1, m + 1), 2)
            )
        for m in (3, 4, 5):
            A = arrangement(simplex_boundary(m), "C")
            assert A.generators == (tuple(range(1, m + 1)),)
        for K in random_complexes(8, 6, seed=1212) + [simplex_boundary(3)]:
            faces = face_sets(K)
            # a point with zero set Z lies in the subspace of a generator G when G <= Z
            gens = [frozenset(g) for g in arrangement(K, "R").generators]
            for r in range(K.m + 1):
                for sub in itertools.combinations(range(1, K.m + 1), r):
                    avoids = not any(g <= frozenset(sub) for g in gens)
                    assert avoids == K.has_face(sub) == (frozenset(sub) in faces)
