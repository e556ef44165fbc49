"""Reference computations the checkers compare program output against.

Nothing here imports combitop: every expected value is worked out from the
generated inputs with code of the benchmark's own, so a defect in the
program under test cannot also hide in its check.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# -- complexes as bitmask face sets -------------------------------------


def face_set(m: int, facets) -> frozenset[int]:
    """Downward closure of the facets plus every singleton and the empty face."""
    faces = {0} | {1 << v for v in range(m)}
    for facet in facets:
        mask = 0
        for v in facet:
            mask |= 1 << (v - 1)
        sub = mask
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return frozenset(faces)


def f_vector(faces) -> list[int]:
    top = max(f.bit_count() for f in faces)
    counts = [0] * top
    for f in faces:
        if f:
            counts[f.bit_count() - 1] += 1
    return counts


def vertices(mask: int) -> list[int]:
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


def missing_faces(m: int, faces) -> list[list[int]]:
    """Minimal non-faces, sorted by size then vertices."""
    out = set()
    for f in faces:
        for v in range(m):
            cand = f | 1 << v
            if cand in faces:
                continue
            if all(cand & ~(1 << u) in faces for u in range(m) if cand >> u & 1):
                out.add(cand)
    return sorted((vertices(w) for w in out), key=lambda w: (len(w), w))


def clique_complex(m: int, faces) -> frozenset[int]:
    """Every vertex set whose pairs are all edges."""
    adj = [0] * m
    for f in faces:
        if f.bit_count() == 2:
            i, j = (v - 1 for v in vertices(f))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    out = {0}
    stack = [(1 << v, adj[v] >> (v + 1) << (v + 1)) for v in range(m)]
    while stack:
        mask, ext = stack.pop()
        out.add(mask)
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            ext ^= low
            stack.append((mask | low, ext & adj[v]))
    return frozenset(out)


def maximal(faces) -> list[list[int]]:
    top = [f for f in faces if f and not any(g != f and f & g == f for g in faces)]
    return sorted((vertices(f) for f in top), key=lambda f: (len(f), f))


def large_missing_dim(m: int, faces):
    """Least dimension of a missing face with at least three vertices, or inf."""
    dims = [len(w) - 1 for w in missing_faces(m, faces) if len(w) >= 3]
    return min(dims) if dims else math.inf


def derived(c) -> dict:
    return {"coxeter": c - 1, "artin": c - 1, "circulation": 2 * c}


# -- Stanley-Reisner counts -------------------------------------------------


def sr_count(faces, mode: str, degree: int) -> int:
    """Basis monomials of a graded degree: supports are faces."""
    if degree == 0:
        return 1
    step = 2 if mode == "complex" else 1
    if degree % step:
        return 0
    total = degree // step
    sizes = [f.bit_count() for f in faces if f]
    if mode == "exterior":
        return sizes.count(total)
    return sum(math.comb(total - 1, s - 1) for s in sizes if s <= total)


# -- homology over a prime field, and the real moment-angle splitting -------


def _rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a sparse matrix given as {row: entry} columns."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: a % p for r, a in col.items() if a % p}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], p - 2, p)
                pivots[r] = {i: a * inv % p for i, a in col.items()}
                rank += 1
                break
            f = col[r]
            for i, a in piv.items():
                b = (col.get(i, 0) - f * a) % p
                if b:
                    col[i] = b
                else:
                    col.pop(i, None)
    return rank


def reduced_betti(faces, p: int) -> list[int]:
    """Reduced Betti numbers over GF(p) of a complex, from dimension -1 up.

    The empty face spans the augmentation in dimension -1, so the void
    complex {empty} has a class there and nothing else.
    """
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    top = max(by_size)
    index = {s: {f: i for i, f in enumerate(sorted(fs))} for s, fs in by_size.items()}
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        cols = []
        for f in by_size[s]:
            col = {}
            for k, v in enumerate(vertices(f)):
                col[index[s - 1][f & ~(1 << (v - 1))]] = -1 if k & 1 else 1
            cols.append(col)
        ranks[s] = _rank_mod_p(cols, p)
    return [len(by_size[s]) - ranks[s] - ranks[s + 1] for s in range(top + 1)]


def moment_angle_betti(m: int, faces, primes) -> dict[int, list[int]]:
    """Betti numbers over GF(p), for each p, of the real moment-angle complex of K.

    By the stable splitting, H_i(RZ_K) is the sum over vertex sets W of
    the reduced H_{i-1} of the full subcomplex K_W (W empty gives H_0).
    """
    top = max(f.bit_count() for f in faces)
    betti = {p: [0] * (top + 1) for p in primes}
    for w in range(1 << m):
        sub = frozenset(f for f in faces if f & w == f)
        for p in primes:
            for d, b in enumerate(reduced_betti(sub, p)):
                betti[p][d] += b
    return betti


BIG_PRIME = 2147483647


def moment_angle_groups(m: int, faces) -> list[tuple[int, dict[int, int]]]:
    """Per dimension: (Betti number, {p: torsion summands divisible by p}) for p = 2, 3.

    Rational ranks are taken mod a large prime; the torsion counts follow
    from universal coefficients, b_k(F_p) = b_k + t_k(p) + t_{k-1}(p).
    """
    betti = moment_angle_betti(m, faces, (BIG_PRIME, 2, 3))
    rational = betti[BIG_PRIME]
    out = [(b, {}) for b in rational]
    for p in (2, 3):
        prev = 0
        for k, bp in enumerate(betti[p]):
            t = bp - rational[k] - prev
            out[k][1][p] = t
            prev = t
    return out


def euler_characteristic(m: int, faces) -> int:
    return sum((-1) ** f.bit_count() * 2 ** (m - f.bit_count()) for f in faces)


# -- graph-product words ----------------------------------------------------

_LETTER = {
    "artin": re.compile(r"v(\d+)\^(-?\d+)$"),
    "coxeter": re.compile(r"a(\d+)$"),
    "circulation": re.compile(r"t(\d+)@(-?\d+)/(\d+)$"),
}


def parse_word(kind: str, text: str) -> list[tuple[int, object]]:
    tokens = text.split()
    if tokens == ["e"]:
        return []
    out = []
    for tok in tokens:
        match = _LETTER[kind].match(tok)
        if not match:
            raise ValueError(f"bad {kind} letter {tok!r}")
        v = int(match.group(1))
        if kind == "artin":
            out.append((v, int(match.group(2))))
        elif kind == "coxeter":
            out.append((v, 1))
        else:
            out.append((v, Fraction(int(match.group(2)), int(match.group(3))) % 1))
    return out


def format_word(kind: str, letters) -> str:
    if not letters:
        return "e"
    if kind == "artin":
        return " ".join(f"v{v}^{e}" for v, e in letters)
    if kind == "coxeter":
        return " ".join(f"a{v}" for v, _ in letters)
    return " ".join(f"t{v}@{q.numerator}/{q.denominator}" for v, q in letters)


def _combine(kind: str, a, b):
    if kind == "coxeter":
        return None
    s = a + b if kind == "artin" else (a + b) % 1
    return s or None


def inverse(kind: str, letters):
    if kind == "artin":
        return [(v, -e) for v, e in reversed(letters)]
    if kind == "coxeter":
        return list(reversed(letters))
    return [(v, (1 - q) % 1) for v, q in reversed(letters)]


def merge_partner(adj: list[int], letters, v: int) -> int:
    """Index of the letter at vertex v that a new last letter at v would meet, or -1.

    Scans back over the letters that commute with v; the first other
    letter ends the scan.
    """
    for i in range(len(letters) - 1, -1, -1):
        u = letters[i][0]
        if u == v:
            return i
        if not adj[v] >> (u - 1) & 1:
            return -1
    return -1


def reduce_word(kind: str, adj: list[int], letters) -> list[tuple[int, object]]:
    """A reduced word for the same element, built one letter at a time.

    Each letter merges with its partner (and cancels if the product is
    trivial), or else is appended.  Appending to a reduced word this way
    keeps it reduced (Green 1990; Hermiller-Meier 1995), so the identity
    reduces to the empty word and the syllable count is the group's
    syllable length.
    """
    out: list[tuple[int, object]] = []
    for v, x in letters:
        i = merge_partner(adj, out, v)
        if i < 0:
            out.append((v, x))
            continue
        z = _combine(kind, out[i][1], x)
        if z is None:
            del out[i]
        else:
            out[i] = (v, z)
    return out


def abelianize(kind: str, m: int, letters) -> tuple:
    tot: list = [Fraction(0) if kind == "circulation" else 0] * (m + 1)
    for v, x in letters:
        if kind == "coxeter":
            tot[v] ^= 1
        elif kind == "artin":
            tot[v] += x
        else:
            tot[v] = (tot[v] + x) % 1
    return tuple(tot[1:])


def adjacency(m: int, edges) -> list[int]:
    adj = [0] * (m + 1)
    for i, j in edges:
        adj[i] |= 1 << (j - 1)
        adj[j] |= 1 << (i - 1)
    return adj
