import itertools
import math
import random
import re
import signal
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combitop import cli
from combitop.facecat import face_subcomplex
from combitop.graphprod import (
    KINDS,
    CommutationGraph,
    GroupWord,
    _block_split,
    _fully_reduce,
    abelianize,
    cartier_foata_blocks,
    equal,
    format_word,
    in_commutator_subgroup,
    is_abelian_restriction,
    normal_form,
    parse_word,
    word,
    wordlength,
)
from combitop.simplicial import SimplicialComplex, full_simplex, polygon_boundary

from oracles import (
    RewritingOracle,
    brute_block_split,
    all_graphs,
    all_words,
    artin_alphabet,
    as_fractions,
    as_pairs,
    fraction_normal_form,
    group_word_reduce_payload,
    old_style_letters,
    random_word,
    restart_reduce,
)


def square_graph():
    return CommutationGraph.from_complex(polygon_boundary(4))


def awords(graph, *letter_lists):
    return [word("artin", graph, ls) for ls in letter_lists]


def test_graph_construction():
    g = square_graph()
    assert g.adjacent(1, 2) and g.adjacent(4, 1)
    assert not g.adjacent(1, 3)
    with pytest.raises(ValueError):
        CommutationGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        CommutationGraph(2, (0, 0b10, 0))  # asymmetric


def test_word_normalizes_letters():
    g = square_graph()
    w = word("artin", g, [(1, 0), (2, 3)])
    assert w.letters == ((2, 3),)
    w = word("circulation", g, [(1, Fraction(5, 4)), (2, 1)])
    assert w.letters == ((1, (1, 4)),)
    with pytest.raises(ValueError):
        word("artin", g, [(5, 1)])
    with pytest.raises(ValueError):
        word("borel", g, [])


def test_artin_exponent_must_be_an_integer():
    g = square_graph()
    for bad in (0.9, 1.5, Fraction(7, 2), "1/2"):
        with pytest.raises(ValueError, match="artin exponent must be an integer"):
            word("artin", g, [(2, bad)])
    w = word("artin", g, [(1, "3"), (2, 2.0), (3, Fraction(-4, 2)), (4, 0.0)])
    assert w.letters == ((1, 3), (2, 2), (3, -2))
    assert all(type(e) is int for _, e in w.letters)
    assert format_word(w) == "v1^3 v2^2 v3^-2"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("value", [float("inf"), float("nan"), "1/0", None, "x", (1, 0), (1, 2.0)])
def test_word_refuses_unreadable_values(kind, value):
    # each is a ValueError that names the value, not OverflowError, ZeroDivisionError or TypeError
    with pytest.raises(ValueError, match=re.escape(f"unreadable {kind} value {value!r}")):
        word(kind, square_graph(), [(1, value)])


def test_group_word_checks_its_letters():
    g = square_graph()
    # word() reads each of these, but changes or drops its value, or would store a list
    for kind, letter in [("circulation", (1, Fraction(1, 2))), ("circulation", (1, (2, 4))),
                         ("circulation", (1, (0, 3))), ("artin", (1, 0)), ("artin", (1, True)),
                         ("artin", (1, 2.0)), ("coxeter", (1, 2)), ("coxeter", (1, "1")),
                         ("artin", [1, 2])]:
        word(kind, g, [letter])
        with pytest.raises(ValueError, match=re.escape(f"{kind} letter {letter!r} is not canonical")):
            GroupWord(kind, g, (letter,))
    # a bad kind, vertex or value: the exception and message of word() for the same letters
    for kind, letters in [("borel", ()), ("artin", ((5, 1),)), ("artin", ((1.0, 1),)),
                          ("artin", ((1, 1.5),)), ("circulation", ((1, (1, 2)), (1, None))),
                          ("artin", ((1, 1, 1),)), ("coxeter", ((2, 2), (0, 1)))]:
        with pytest.raises(Exception) as refused:
            word(kind, g, letters)
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            GroupWord(kind, g, letters)
    # canonical letters build the word that word() builds
    w = GroupWord("circulation", g, ((1, (1, 2)), (2, (1, 4)), (1, (1, 2))))
    assert w == word("circulation", g, [(1, Fraction(1, 2)), (2, 0.25), (1, "1/2")])
    assert format_word(normal_form(w)) == "t2@1/4"


def test_reduce_examples():
    g = square_graph()
    w = word("artin", g, [(1, 1), (2, 1), (1, -1)])
    assert normal_form(w).letters == ((2, 1),)

    cox = word("coxeter", g, [(1, 1), (1, 1)])
    assert normal_form(cox).letters == ()

    w = word("artin", g, [(2, 1), (1, 1), (3, 1)])
    nf = normal_form(w)
    assert nf.letters == ((1, 1), (2, 1), (3, 1))
    assert cartier_foata_blocks(w) == [((1, 1),), ((2, 1), (3, 1))]


def test_reduce_merges_through_commuting_letters():
    # letters at vertex 2 merge across the commuting vertex 1
    g = square_graph()
    w = word("artin", g, [(2, 1), (1, 1), (2, 1)])
    assert normal_form(w).letters == ((1, 1), (2, 2))


def test_reduce_idempotent_on_randoms(test_complexes):
    rng = random.Random(99)
    for K in test_complexes:
        if K.m < 2:
            continue
        g = CommutationGraph.from_complex(K)
        for kind in ("coxeter", "artin", "circulation"):
            for _ in range(20):
                w = word(kind, g, random_word(kind, K.m, rng.randint(0, 8), rng))
                nf = normal_form(w)
                assert normal_form(nf) == nf


def test_equal_examples():
    edge = CommutationGraph.from_edges(2, [(1, 2)])
    w = word("coxeter", edge, [(1, 1), (2, 1), (1, 1), (2, 1)])
    assert equal(w, word("coxeter", edge, ()))

    g = square_graph()
    w1, w2 = awords(g, [(1, 1), (3, 1)], [(3, 1), (1, 1)])
    assert not equal(w1, w2)
    assert equal(w1, w1)


def test_equal_requires_same_ambient():
    g = square_graph()
    h = CommutationGraph.from_edges(4, [])
    with pytest.raises(ValueError):
        equal(word("artin", g, []), word("artin", h, []))
    with pytest.raises(ValueError):
        equal(word("artin", g, []), word("coxeter", g, []))


def test_wordlength():
    g = square_graph()
    assert wordlength(word("artin", g, ())) == 0
    assert wordlength(word("artin", g, [(1, 2), (1, 3)])) == 1
    assert wordlength(word("artin", g, [(1, 1), (3, 1), (1, 1)])) == 3


def test_wordlength_subadditive(test_complexes):
    rng = random.Random(4)
    for K in test_complexes[:8]:
        if K.m < 2:
            continue
        g = CommutationGraph.from_complex(K)
        for _ in range(25):
            u = word("artin", g, random_word("artin", K.m, rng.randint(0, 6), rng))
            v = word("artin", g, random_word("artin", K.m, rng.randint(0, 6), rng))
            assert wordlength(u * v) <= wordlength(u) + wordlength(v)


def test_blocks_single_letter():
    g = square_graph()
    assert cartier_foata_blocks(word("artin", g, [(2, 5)])) == [((2, 5),)]


def test_blocks_concatenate_to_normal_form(test_complexes):
    rng = random.Random(21)
    for K in test_complexes[:8]:
        if K.m < 2:
            continue
        g = CommutationGraph.from_complex(K)
        for _ in range(25):
            w = word("artin", g, random_word("artin", K.m, rng.randint(0, 7), rng))
            blocks = cartier_foata_blocks(w)
            flat = tuple(letter for block in blocks for letter in block)
            assert flat == normal_form(w).letters
            for block in blocks:
                assert g.complete_on(v for v, _ in block)


def test_blocks_are_faces_when_flag():
    rng = random.Random(2026)
    for m in range(4, 8):
        K = polygon_boundary(m)
        g = CommutationGraph.from_complex(K)
        for _ in range(250):
            w = word("artin", g, random_word("artin", m, rng.randint(0, 10), rng))
            for block in cartier_foata_blocks(w):
                assert K.has_face([v for v, _ in block])


_LETTER_VALUES = {
    "coxeter": st.just(1),
    "artin": st.sampled_from([-2, -1, 1, 2]),
    "circulation": st.builds(Fraction, st.integers(1, 5), st.integers(2, 7)),
}


@st.composite
def graphs_and_kinds(draw):
    """A group kind and a commutation graph on at most 10 vertices."""
    m = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return draw(st.sampled_from(KINDS)), CommutationGraph.from_edges(m, edges)


def words_in(kind, graph, max_size=60):
    """Words of the kind over the graph with at most max_size letters."""
    letter = st.tuples(st.integers(1, graph.m), _LETTER_VALUES[kind])
    return st.lists(letter, max_size=max_size).map(lambda letters: word(kind, graph, letters))


def shuffled_padded(draw, w):
    """The same element as w: commuting neighbours swapped, pairs x x^-1 inserted."""
    letters = list(w.letters)
    adj = w.graph.adjacency
    for i in draw(st.lists(st.integers(0, len(letters)), max_size=len(letters))):
        if i + 1 < len(letters) and adj[letters[i][0]] >> (letters[i + 1][0] - 1) & 1:
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    for pad in draw(st.lists(words_in(w.kind, w.graph, 3), max_size=4)):
        pos = draw(st.integers(0, len(letters)))
        letters[pos:pos] = (pad * pad.inverse()).letters
    return GroupWord(w.kind, w.graph, tuple(letters))


@st.composite
def word_cases(draw):
    """A word w u u^-1 w^-1, a shuffled and padded copy of w, or w itself."""
    kind, graph = draw(graphs_and_kinds())
    w = draw(words_in(kind, graph))
    shape = draw(st.sampled_from(("cancelling", "shuffled", "random")))
    if shape == "cancelling":
        u = draw(words_in(kind, graph, 8))
        return w * u * u.inverse() * w.inverse()
    return shuffled_padded(draw, w) if shape == "shuffled" else w


@st.composite
def reduced_words(draw):
    """A graph's adjacency and a reduced word of at most 60 letters."""
    kind, graph = draw(graphs_and_kinds())
    w = draw(words_in(kind, graph))
    return graph.adjacency, _fully_reduce(kind, graph.adjacency, w.letters)


@settings(max_examples=300)
@given(reduced_words())
def test_blocks_match_peeling_oracle(case):
    adj, reduced = case
    assert _block_split(adj, reduced) == brute_block_split(adj, reduced)


@settings(max_examples=400)
@given(word_cases())
def test_single_pass_matches_restart_oracle(w):
    adj = w.graph.adjacency
    fast = _fully_reduce(w.kind, adj, w.letters)
    slow = as_pairs(w.kind, restart_reduce(w.kind, adj, as_fractions(w.kind, w.letters)))
    assert len(fast) == len(slow)
    assert _block_split(adj, fast) == _block_split(adj, slow)


@settings(max_examples=300)
@given(word_cases())
def test_word_reduce_payload_matches_group_word_rendering(w):
    # word-reduce formats each block once and joins them; the oracle builds and
    # formats a GroupWord for the normal form and for each block
    m = w.graph.m
    edges = [[i, j] for i, j in itertools.combinations(range(1, m + 1), 2) if w.graph.adjacent(i, j)]
    K = SimplicialComplex.from_maximal_faces(m, edges)
    args = types.SimpleNamespace(group=w.kind, word=format_word(w))
    assert cli._cmd_word_reduce(K, args) == group_word_reduce_payload(w)


@st.composite
def word_pairs(draw):
    """Two words of one group: a copy of the first, that plus a letter, or another word."""
    w1 = draw(word_cases())
    shape = draw(st.sampled_from(("copy", "copy plus a letter", "other")))
    if shape == "other":
        return w1, draw(words_in(w1.kind, w1.graph))
    w2 = shuffled_padded(draw, w1)
    if shape == "copy plus a letter":
        pos = draw(st.integers(0, len(w2)))
        extra = draw(words_in(w1.kind, w1.graph, 1).filter(len))
        w2 = GroupWord(w1.kind, w1.graph, w2.letters[:pos] + extra.letters + w2.letters[pos:])
    return w1, w2


@settings(max_examples=300)
@given(word_pairs())
def test_equal_matches_normal_forms(pair):
    w1, w2 = pair
    assert equal(w1, w2) == (normal_form(w1).letters == normal_form(w2).letters)


def test_cancelling_word_reduces_in_one_pass():
    # w w^-1 with 20,000 letters: the restart loop takes about 30 s, one pass
    # about 20 ms
    graph = CommutationGraph.from_complex(polygon_boundary(6))
    w = word("artin", graph, random_word("artin", 6, 10_000, random.Random(15)))

    def too_slow(signum, frame):
        raise TimeoutError("normal_form(w * w^-1) took more than 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        assert normal_form(w * w.inverse()).letters == ()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _series_inverse(a: list[int], n: int) -> list[int]:
    """The first n coefficients of 1/a(t), for an integer series with a[0] == 1."""
    inv = [1] + [0] * (n - 1)
    for k in range(1, n):
        inv[k] = -sum(a[j] * inv[k - j] for j in range(1, k + 1))
    return inv


def _f_polynomial_at(f_vector: tuple[int, ...], c: int, n: int) -> list[int]:
    """f_K(-c t/(1+t)) to order t^(n-1), where f_K(x) = sum_i f_(i-1) x^i and f_(-1) = 1."""
    out = [1] + [0] * (n - 1)
    for i, f in enumerate(f_vector, start=1):
        # (-c t)^i (1+t)^(-i), with (1+t)^(-i) = sum_k (-1)^k C(i+k-1, k) t^k
        for k in range(n - i):
            out[i + k] += f * (-c) ** i * (-1) ** k * math.comb(i + k - 1, k)
    return out


def _sphere_sizes(kind: str, graph: CommutationGraph, generators, n: int) -> list[int]:
    """Elements at each distance 0..n-1 from the identity, told apart by normal form."""
    seen = {()}
    layer = [()]
    sizes = [1]
    for _ in range(1, n):
        nxt = []
        for letters in layer:
            for g in generators:
                key = normal_form(GroupWord(kind, graph, letters + (g,))).letters
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        sizes.append(len(nxt))
        layer = nxt
    return sizes


def _growth_graphs():
    named = [
        pytest.param(2, [(1, 2)], id="edge"),
        pytest.param(3, [], id="three-points"),
        pytest.param(4, [(1, 2), (2, 3), (3, 4)], id="path"),
        pytest.param(4, [(1, 2), (2, 3), (3, 4), (1, 4)], id="4-cycle"),
        pytest.param(4, list(itertools.combinations(range(1, 5), 2)), id="K4"),
        pytest.param(4, [(1, 2), (2, 3), (1, 3), (3, 4)], id="triangle-and-edge"),
        pytest.param(5, [(i, i % 5 + 1) for i in range(1, 6)], id="5-cycle"),
        pytest.param(6, [(i, i % 6 + 1) for i in range(1, 7)], id="6-cycle"),
    ]
    rng = random.Random(606)
    for k, m in enumerate((5, 6, 6)):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        edges = rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs)))
        named.append(pytest.param(m, edges, id=f"random-{m}-{k}"))
    return named


@pytest.mark.parametrize("m, edges", _growth_graphs())
def test_growth_series_matches_flag_f_vector(m, edges):
    # for a flag K, the right-angled Coxeter group has growth series
    # 1/f_K(-t/(1+t)) in the generators a_i, and the right-angled Artin group
    # 1/f_K(-2t/(1+t)) in the generators v_i^(+1) and v_i^(-1)
    n = 6
    graph = CommutationGraph.from_edges(m, edges)
    K = SimplicialComplex.from_maximal_faces(m, [list(e) for e in edges]).flagify()
    f = K.f_vector()
    coxeter = [(v, 1) for v in range(1, m + 1)]
    assert _sphere_sizes("coxeter", graph, coxeter, n) == _series_inverse(
        _f_polynomial_at(f, 1, n), n
    )
    artin = [(v, e) for v in range(1, m + 1) for e in (1, -1)]
    assert _sphere_sizes("artin", graph, artin, n) == _series_inverse(
        _f_polynomial_at(f, 2, n), n
    )


def test_abelianize_examples():
    g = square_graph()
    w = word("artin", g, [(1, 1), (2, 1), (1, -1)])
    assert abelianize(w) == (0, 1, 0, 0)

    cox = word("coxeter", g, [(1, 1), (2, 1), (1, 1)])
    assert abelianize(cox) == (0, 1, 0, 0)

    circ = word("circulation", g, [(1, Fraction(1, 4)), (1, Fraction(1, 2))])
    assert abelianize(circ)[0] == (3, 4)


def test_coxeter_letter_values_reduce_mod_2():
    g = square_graph()
    for value in (0, 2, -4, Fraction(2)):
        w = word("coxeter", g, [(1, value)])
        assert w == word("coxeter", g, ()) and abelianize(w) == (0, 0, 0, 0)
    for value in (1, 3, -1, Fraction(5)):
        w = word("coxeter", g, [(1, value)])
        assert w.letters == ((1, 1),) and abelianize(w) == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="coxeter exponent must be an integer"):
        word("coxeter", g, [(1, Fraction(1, 2))])


@pytest.mark.parametrize(
    "kind, letters, expected",
    [
        # Z/2: a1 three times, a2 twice, a3 once
        ("coxeter", [(1, 1), (2, 1), (1, 1), (3, 1), (2, 1), (1, 1)], (1, 0, 1, 0)),
        # Z: 2 - 5 + 3 = 0 at v1, -1 - 1 = -2 at v4
        ("artin", [(1, 2), (4, -1), (1, -5), (4, -1), (1, 3)], (0, 0, 0, -2)),
        # Q/Z: 3/4 + 1/2 = 5/4 = 1/4 at t1, 1/3 + 2/3 = 1 = 0 at t2, 1/6 at t3
        (
            "circulation",
            [(1, Fraction(3, 4)), (2, Fraction(1, 3)), (3, Fraction(1, 6)),
             (1, Fraction(1, 2)), (2, Fraction(2, 3))],
            ((1, 4), 0, (1, 6), 0),
        ),
    ],
    ids=["coxeter", "artin", "circulation"],
)
def test_abelianize_matches_hand_reduced_sums(kind, letters, expected):
    assert abelianize(word(kind, square_graph(), letters)) == expected


def test_abelianize_invariant_under_reduction(test_complexes):
    rng = random.Random(31)
    for K in test_complexes[:8]:
        if K.m < 2:
            continue
        g = CommutationGraph.from_complex(K)
        for kind in ("coxeter", "artin", "circulation"):
            for _ in range(15):
                w = word(kind, g, random_word(kind, K.m, rng.randint(0, 7), rng))
                assert abelianize(normal_form(w)) == abelianize(w)


def test_commutator_subgroup():
    g = square_graph()
    comm = word("artin", g, [(1, 1), (3, 1), (1, -1), (3, -1)])
    assert in_commutator_subgroup(comm)
    assert not in_commutator_subgroup(word("artin", g, [(1, 1)]))

    edge = CommutationGraph.from_edges(2, [(1, 2)])
    w = word("coxeter", edge, [(1, 1), (2, 1), (1, 1), (2, 1)])
    assert in_commutator_subgroup(w)


def test_is_abelian_restriction():
    K = polygon_boundary(4)
    assert is_abelian_restriction(K, [1, 2])
    assert not is_abelian_restriction(K, [1, 3])
    assert is_abelian_restriction(K, [2])
    assert is_abelian_restriction(K, [])
    # the vertices are read as a set
    assert is_abelian_restriction(K, [1, 1]) and is_abelian_restriction(K, [2, 1, 2])
    assert not is_abelian_restriction(K, [3, 1, 3])
    assert CommutationGraph.from_complex(K).complete_on([4, 4, 1])


def test_vertex_range_errors_name_the_first_bad_vertex():
    K = polygon_boundary(4)
    calls = [
        lambda: K.restrict([2, 7, 0]),
        lambda: is_abelian_restriction(K, iter([2, 7, 0])),
        lambda: square_graph().complete_on([2, 7, 0]),
        lambda: parse_word("artin", square_graph(), "v2^1 v7^1 v0^1"),
        lambda: word("artin", square_graph(), [(2, 1), (7, 1), (0, 1)]),
        lambda: CommutationGraph.from_edges(4, [(1, 2), (2, 7), (0, 1)]),
        lambda: K.has_face([2, 7, 0]),
        lambda: face_subcomplex(K, iter([2, 7, 0])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^vertex 7 out of range 1\.\.4$"):
            call()
    # a vertex below 1 or above m is no face to test: not a shift error, not False
    for bad in (0, 9):
        for call in (K.has_face, lambda vertices: face_subcomplex(K, vertices)):
            with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 1\.\.4$"):
                call([bad])
    # a vertex that is not an int is refused by name, a bool included
    for bad in (True, 1.0):
        calls = [
            lambda: word("artin", square_graph(), [(bad, 1)]),
            lambda: CommutationGraph.from_edges(2, [(bad, 2)]),
            lambda: K.has_face([bad]),
            lambda: face_subcomplex(K, [bad, 2]),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=rf"^vertex {bad} is not an integer$"):
                call()


def test_graphs_and_their_words_stop_at_64_vertices():
    g = CommutationGraph.from_edges(64, [(63, 64)])
    assert parse_word("artin", g, "v64^1 v63^2") == word("artin", g, [(64, 1), (63, 2)])
    assert g.complete_on([63, 64])
    calls = [
        lambda: parse_word("artin", g, "v65^1"),
        lambda: g.complete_on([65]),
        lambda: word("artin", g, [(65, 1)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^vertex 65 out of range 1\.\.64$"):
            call()
    for m, adjacency in ((65, (0,) * 66), (-1, ())):
        with pytest.raises(ValueError, match=rf"^vertex count must be in 0\.\.64, got {m}$"):
            CommutationGraph(m, adjacency)
    with pytest.raises(ValueError, match=r"^vertex count must be in 0\.\.64, got 65$"):
        CommutationGraph.from_edges(65, [])


def test_edge_letters_commute(test_complexes):
    rng = random.Random(61)
    for K in test_complexes[:8]:
        edges = K.edges()
        if not edges:
            continue
        g = CommutationGraph.from_complex(K)
        for _ in range(10):
            i, j = rng.choice(edges)
            u = random_word("artin", K.m, rng.randint(0, 4), rng)
            v = random_word("artin", K.m, rng.randint(0, 4), rng)
            w1 = word("artin", g, u + [(i, 1), (j, 1)] + v)
            w2 = word("artin", g, u + [(j, 1), (i, 1)] + v)
            assert equal(w1, w2)


def test_coxeter_complete_graph_is_elementary_abelian():
    for m in (2, 3, 4):
        g = CommutationGraph.from_complex(full_simplex(m))
        seen = set()
        frontier = {()}
        while frontier:
            nxt = set()
            for letters in frontier:
                nf = normal_form(word("coxeter", g, letters)).letters
                if nf in seen:
                    continue
                seen.add(nf)
                for v in range(1, m + 1):
                    nxt.add(letters + ((v, 1),))
            frontier = nxt
        assert len(seen) == 2**m


def test_matches_oracle_on_small_graphs():
    # spot version of the exhaustive acceptance sweep: one graph, short words
    adjacencies = [adj for adj in all_graphs(3)]
    rng = random.Random(17)
    for adj in rng.sample(adjacencies, 4):
        g = CommutationGraph(3, adj)
        words = all_words(artin_alphabet(3), 3)
        oracle = RewritingOracle("artin", adj, words)
        for raw in words:
            w = word("artin", g, raw)
            nf = normal_form(w).letters
            assert oracle.equal(raw, nf)
        by_canon = {}
        for raw in words:
            canon = oracle.canonical(raw)
            nf = normal_form(word("artin", g, raw)).letters
            assert by_canon.setdefault(canon, nf) == nf


def test_normal_form_invariant_under_random_moves(test_complexes):
    # single rewriting moves never change the normal form, also beyond the
    # graph sizes the exhaustive oracle sweep covers
    from oracles import single_moves

    rng = random.Random(777)
    for K in test_complexes:
        if K.m < 2:
            continue
        g = CommutationGraph.from_complex(K)
        for _ in range(20):
            raw = tuple(random_word("artin", K.m, rng.randint(2, 9), rng))
            expected = normal_form(word("artin", g, raw)).letters
            current = raw
            for _ in range(12):
                moves = single_moves("artin", g.adjacency, current)
                if not moves:
                    break
                current = rng.choice(moves)
                assert normal_form(word("artin", g, current)).letters == expected


def test_circulation_words_against_oracle():
    g = CommutationGraph.from_edges(3, [(1, 2)])
    qs = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)]
    alphabet = [(v, q) for v in (1, 2, 3) for q in qs]
    words = all_words(alphabet, 2)
    oracle = RewritingOracle("circulation", g.adjacency, words)
    for raw in words:
        nf = normal_form(word("circulation", g, raw)).letters
        assert oracle.equal(raw, tuple(as_fractions("circulation", nf)))


@st.composite
def circulation_cases(draw):
    """A graph on at most 5 vertices and two lists of circulation letters with
    ``Fraction`` values: signed multiples of up to four angles whose denominators
    reach 2^80, so that letters at one vertex merge, cancel and share factors."""
    m = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    angle = st.builds(Fraction, st.integers(1, 2**80), st.integers(2, 2**80))
    angles = draw(st.lists(angle, min_size=1, max_size=4))
    value = st.builds(lambda a, k: k * a, st.sampled_from(angles), st.integers(-3, 3))
    letters = st.lists(st.tuples(st.integers(1, m), value), max_size=30)
    return CommutationGraph.from_edges(m, edges), draw(letters), draw(letters)


def assert_canonical_pairs(letters):
    for _, (p, q) in letters:
        assert type(p) is int and type(q) is int and 0 < p < q and math.gcd(p, q) == 1


@settings(max_examples=200)
@given(circulation_cases(), st.integers(1, 2**20))
def test_circulation_pairs_match_fraction_reference(case, scale):
    # the int-pair arithmetic against Fractions reduced mod 1: normal forms, equality,
    # inverses and abelianizations agree, and every value is a pair in lowest terms
    graph, letters1, letters2 = case
    adj, m = graph.adjacency, graph.m
    w1, w2 = (word("circulation", graph, letters) for letters in (letters1, letters2))
    # an int pair is read as p/q, in lowest terms or not
    scaled = [(v, (x.numerator * scale, x.denominator * scale)) for v, x in letters1]
    assert word("circulation", graph, scaled) == w1
    ref1, ref2 = ([(v, x % 1) for v, x in letters if x % 1] for letters in (letters1, letters2))
    assert w1.letters == tuple(as_pairs("circulation", ref1))
    inverse1 = [(v, -x % 1) for v, x in reversed(ref1)]
    for w, ref in ((w1, ref1), (w1.inverse(), inverse1), (w1 * w2, ref1 + ref2)):
        assert_canonical_pairs(w.letters)
        nf = normal_form(w).letters
        assert_canonical_pairs(nf)
        assert list(nf) == as_pairs("circulation", fraction_normal_form(adj, ref))
        sums = [sum((x for u, x in ref if u == v), Fraction(0)) % 1 for v in range(1, m + 1)]
        assert abelianize(w) == tuple(s and (s.numerator, s.denominator) for s in sums)
    inverse2 = [(v, -x % 1) for v, x in reversed(ref2)]
    assert equal(w1, w2) == (not fraction_normal_form(adj, ref1 + inverse2))
    assert equal(w1, word("circulation", graph, fraction_normal_form(adj, ref1)))


def test_parse_and_format_round_trip():
    g = square_graph()
    w = parse_word("artin", g, "v1^2 v3^-1")
    assert w.letters == ((1, 2), (3, -1))
    assert format_word(w) == "v1^2 v3^-1"

    cox = parse_word("coxeter", g, "a1 a4")
    assert cox.letters == ((1, 1), (4, 1))
    assert format_word(cox) == "a1 a4"

    circ = parse_word("circulation", g, "t2@1/4")
    assert circ.letters == ((2, (1, 4)),)
    assert format_word(circ) == "t2@1/4"

    assert parse_word("artin", g, "").letters == ()
    assert format_word(word("artin", g, ())) == "e"
    assert parse_word("artin", g, "e").letters == ()


def test_parse_rejects_garbage():
    g = square_graph()
    for kind, text in [
        ("artin", "v1"),
        ("artin", "a1"),
        ("coxeter", "a1^2"),
        ("circulation", "t1@x/2"),
        ("artin", "v9^1"),
    ]:
        with pytest.raises(ValueError):
            parse_word(kind, g, text)


def test_parse_rejects_zero_denominator():
    g = square_graph()
    with pytest.raises(ValueError, match="zero denominator"):
        parse_word("circulation", g, "t1@1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_word("circulation", g, "t2@1/4 t1@-3/00")


def parsed_or_error(parse):
    try:
        return repr(parse())
    except ValueError as exc:
        return f"ValueError: {exc}"


LETTER_TEXTS = st.one_of(
    st.builds("v{}^{}".format, st.integers(0, 6), st.integers(-12, 12)),
    st.builds("a{}".format, st.integers(0, 6)),
    st.builds("t{}@{}/{}".format, st.integers(0, 6), st.integers(-30, 30), st.integers(0, 12)),
    st.sampled_from(["e", "v1^", "a", "t1@1", "v1^1.5", "x", "t1@-1/-2", "a01", "v2^+1"]),
)


@settings(max_examples=400)
@given(
    st.sampled_from(KINDS),
    st.integers(1, 5),
    st.lists(LETTER_TEXTS, max_size=12),
    st.sampled_from([" ", "  ", "\t", "\n "]),
)
def test_parse_word_matches_word_of_old_letters(kind, m, letters, sep):
    # the canonical letters built while parsing equal word() of the letters
    # parsed before, value types and error messages included
    g = CommutationGraph.from_edges(m, [(i, i + 1) for i in range(1, m)])
    text = sep.join(letters)
    assert parsed_or_error(lambda: parse_word(kind, g, text)) == parsed_or_error(
        lambda: word(kind, g, old_style_letters(kind, text))
    )


def test_inverse_and_product():
    g = square_graph()
    rng = random.Random(8)
    for kind in ("coxeter", "artin", "circulation"):
        for _ in range(10):
            w = word(kind, g, random_word(kind, 4, rng.randint(0, 6), rng))
            assert equal(w * w.inverse(), word(kind, g, ()))
