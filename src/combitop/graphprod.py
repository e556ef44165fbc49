"""Graph products of cyclic-type vertex groups over a commutation graph.

Three kinds are supported, differing only in the vertex group:

* ``coxeter``     - order-two vertex groups (right-angled Coxeter);
* ``artin``       - infinite cyclic vertex groups (right-angled Artin);
* ``circulation`` - rational rotation angles p/q in [0,1), an exact slice of
  the circle group, as int pairs (p, q) in lowest terms with 0 < p < q.

Words are sequences of (vertex, value) letters; letters at vertices joined
by an edge commute.  ``normal_form`` reduces a word in one left-to-right
pass, appending each letter to the reduced prefix or merging it into the
last letter at its vertex that only commuting letters follow (Green), then
fixes a canonical order: the Cartier-Foata blocks, which are the levels of
the word's heap (Viennot), each sorted by vertex.  Two words are equal in
the group exactly when w1 * w2^-1 reduces to the empty word.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

from ._bits import Value, iter_vertices, setfield
from .simplicial import SimplicialComplex, facet_masks

KINDS = ("coxeter", "artin", "circulation")

Letter = tuple[int, object]


class CommutationGraph(Value):
    """Symmetric adjacency on vertices 1..m, as a neighbor mask per vertex."""

    __slots__ = ("m", "adjacency")

    def __init__(self, m: int, adjacency: tuple[int, ...]) -> None:
        facet_masks(m, ())  # m in 0..MAX_VERTICES, as for the words on the graph
        if len(adjacency) != m + 1 or adjacency[0]:
            raise ValueError("adjacency must have one mask per vertex, index 0 unused")
        for v in range(1, m + 1):
            mask = adjacency[v]
            if mask >> m:
                raise ValueError("neighbor out of range")
            if mask & (1 << (v - 1)):
                raise ValueError("no loops allowed")
            for w in range(1, m + 1):
                if (mask >> (w - 1)) & 1 != (adjacency[w] >> (v - 1)) & 1:
                    raise ValueError("adjacency must be symmetric")
        setfield(self, "m", m)
        setfield(self, "adjacency", adjacency)

    @classmethod
    def from_complex(cls, K: SimplicialComplex) -> "CommutationGraph":
        return cls(K.m, K.adjacency_masks())

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[tuple[int, int]]) -> "CommutationGraph":
        edges = list(edges)
        facet_masks(m, edges)  # int vertices in 1..m, as for the words on the graph
        adj = [0] * (m + 1)
        for i, j in edges:
            if i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        return cls(m, tuple(adj))

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] & (1 << (j - 1)))

    def complete_on(self, vertices: Iterable[int]) -> bool:
        """True when the vertices, read as a set, are pairwise adjacent."""
        (mask,) = facet_masks(self.m, [vertices])
        # no loops: each vertex is the only one of the set outside its own neighbors
        return all(mask & ~self.adjacency[v] == 1 << (v - 1) for v in iter_vertices(mask))


def _circle(p: int, q: int) -> tuple[int, int] | None:
    """p/q mod 1 (q > 0) as the pair (p, q) in lowest terms with 0 < p < q, or None for 0."""
    p %= q
    g = math.gcd(p, q)
    return (p // g, q // g) if p else None


def _merge(kind: str, x, y) -> object | None:
    """x + y in the kind's vertex group, or None for the identity."""
    if kind == "circulation":
        return _circle(x[0] * y[1] + y[0] * x[1], x[1] * y[1])  # p/q + r/s = (ps + rq)/qs
    return (x + y) % 2 or None if kind == "coxeter" else x + y or None


def _normalize_value(kind: str, value) -> object | None:
    """Canonical letter value, or None for the identity, from an int, an int pair
    (p, q) with q > 0 for p/q, or what ``Fraction`` reads; ValueError otherwise."""
    if type(value) is int:
        p, q = value, 1
    elif type(value) is tuple and list(map(type, value)) == [int, int] and value[1] > 0:
        p, q = value
    else:  # fractions is imported for other values only
        from fractions import Fraction
        try:
            x = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):  # None, "1/0", inf, nan, ...
            raise ValueError(f"unreadable {kind} value {value!r}") from None
        p, q = x.numerator, x.denominator
    if kind == "circulation":
        return _circle(p, q)
    if p % q:
        raise ValueError(f"{kind} exponent must be an integer, got {value!r}")
    return _merge(kind, p // q, 0)  # the integer p/q in Z/2 or Z


class GroupWord(Value):
    __slots__ = ("kind", "graph", "letters")

    def __init__(self, kind: str, graph: CommutationGraph, letters: tuple[Letter, ...]) -> None:
        setfield(self, "kind", kind)
        setfield(self, "graph", graph)
        setfield(self, "letters", letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        _check_ambient(self, other)
        return GroupWord(self.kind, self.graph, self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        if self.kind == "circulation":
            inv = tuple((v, (q - p, q)) for v, (p, q) in reversed(self.letters))
        else:
            inv = tuple((v, -x if self.kind == "artin" else x) for v, x in reversed(self.letters))
        return GroupWord(self.kind, self.graph, inv)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def word(kind: str, graph: CommutationGraph, letters: Iterable[Sequence]) -> GroupWord:
    """Build a word, dropping identity letters and normalizing values."""
    if kind not in KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    letters = list(letters)
    facet_masks(graph.m, [(v for v, _ in letters)])
    normalized = [(v, _normalize_value(kind, value)) for v, value in letters]
    return GroupWord(kind, graph, tuple(letter for letter in normalized if letter[1] is not None))


def _check_ambient(w1: GroupWord, w2: GroupWord) -> None:
    if w1.kind != w2.kind or w1.graph != w2.graph:
        raise ValueError("words live in different groups")


def _fully_reduce(kind: str, adj: tuple[int, ...], letters: Iterable[Letter]) -> list[Letter]:
    """The reduced word, in one pass: each letter joins a reduced prefix.

    A letter at v scans back past the letters that commute with v (v itself
    does not).  If it stops at a letter at v the two merge, dropping an
    identity; changing or deleting a letter that only letters commuting with
    v follow keeps the word reduced.  Otherwise the letter is pushed.
    """
    out: list[Letter] = []
    for v, x in letters:
        neighbors = adj[v]
        i = len(out) - 1
        while i >= 0 and neighbors >> (out[i][0] - 1) & 1:
            i -= 1
        if i < 0 or out[i][0] != v:
            out.append((v, x))
            continue
        merged = _merge(kind, out[i][1], x)
        if merged is None:
            del out[i]
        else:
            out[i] = (v, merged)
    return out


def _block_split(adj: tuple[int, ...], letters: Sequence[Letter]) -> list[list[Letter]]:
    """Cartier-Foata blocks of a reduced word: the levels of its heap, leftmost first.

    Scanning from the right, each letter lands one level above the highest
    level holding a vertex it does not commute with (its own included).
    """
    levels: list[list[Letter]] = []
    masks: list[int] = []
    for letter in reversed(letters):
        v = letter[0]
        blockers = ~adj[v]
        top = len(masks)
        while top and not masks[top - 1] & blockers:
            top -= 1
        if top == len(masks):
            levels.append([])
            masks.append(0)
        levels[top].append(letter)
        masks[top] |= 1 << (v - 1)
    for level in levels:
        level.sort()
    levels.reverse()
    return levels


def normal_form(w: GroupWord) -> GroupWord:
    flat = tuple(letter for block in cartier_foata_blocks(w) for letter in block)
    return GroupWord(w.kind, w.graph, flat)


def equal(w1: GroupWord, w2: GroupWord) -> bool:
    """True when w1 * w2^-1 reduces to the empty word."""
    return not _fully_reduce(w1.kind, w1.graph.adjacency, (w1 * w2.inverse()).letters)


def wordlength(w: GroupWord) -> int:
    """Syllable count of the reduced word."""
    return len(_fully_reduce(w.kind, w.graph.adjacency, w.letters))


def cartier_foata_blocks(w: GroupWord) -> list[tuple[Letter, ...]]:
    """Unique decomposition of the reduced word into maximal commuting blocks."""
    reduced = _fully_reduce(w.kind, w.graph.adjacency, w.letters)
    return [tuple(block) for block in _block_split(w.graph.adjacency, reduced)]


def abelianize(w: GroupWord):
    """Per-vertex letter totals in Z/2, Z or Q/Z (p/q as the pair (p, q)); 0 is the identity."""
    sums: list = [None] * (w.graph.m + 1)
    for v, x in w.letters:
        sums[v] = x if sums[v] is None else _merge(w.kind, sums[v], x)
    return tuple(x or 0 for x in sums[1:])


def in_commutator_subgroup(w: GroupWord) -> bool:
    return not any(abelianize(w))


def is_abelian_restriction(K: SimplicialComplex, vertices: Iterable[int]) -> bool:
    """True when the subgroup generated by the vertex subset is abelian."""
    return CommutationGraph.from_complex(K).complete_on(vertices)


# -- word literals ----------------------------------------------------

#: Per kind, a letter's pattern and its shape for error messages.
_LETTERS = {
    "artin": (re.compile(r"v(\d+)\^(-?\d+)"), "v<i>^<e>"),
    "coxeter": (re.compile(r"a(\d+)"), "a<i>"),
    "circulation": (re.compile(r"t(\d+)@(-?\d+)/(\d+)"), "t<i>@<p>/<q>"),
}


def parse_word(kind: str, graph: CommutationGraph, text: str) -> GroupWord:
    """Parse space-separated letters, v<i>^<e>, a<i> or t<i>@<p>/<q>, to canonical values."""
    if kind not in KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    pattern, shape = _LETTERS[kind]
    tokens = text.split()
    letters = []
    for tok in [] if tokens == ["e"] else tokens:
        match = pattern.fullmatch(tok)
        if not match:
            raise ValueError(f"bad {kind} letter {tok!r} (expected {shape})")
        try:
            if kind == "circulation":
                x = _circle(int(match[2]), int(match[3]))
            else:
                x = int(match[2]) if kind == "artin" else 1
            letters.append((int(match[1]), x))
        except ZeroDivisionError:  # p % q with q = 0
            raise ValueError(f"zero denominator in circulation letter {tok!r}") from None
        except ValueError:  # int() refuses a number past the interpreter's int-to-str limit
            digits = max(len(n.lstrip("-")) for n in match.groups())
            raise ValueError(f"letter too large to read: {digits} digits") from None
    facet_masks(graph.m, [(v for v, _ in letters)])
    return GroupWord(kind, graph, tuple(letter for letter in letters if letter[1]))


def format_letters(kind: str, letters: Iterable[Letter]) -> str:
    """Space-separated letters of the kind, as ``parse_word`` reads them; "" for none."""
    if kind == "artin":
        return " ".join(f"v{v}^{e}" for v, e in letters)
    if kind == "coxeter":
        return " ".join(f"a{v}" for v, _ in letters)
    return " ".join(f"t{v}@{p}/{q}" for v, (p, q) in letters)


def format_word(w: GroupWord) -> str:
    return format_letters(w.kind, w.letters) or "e"
