"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (exhaustive
enumeration, single-step rewriting closures, determinant divisors) without
touching the library's own algorithms beyond the face-set representation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import random
from fractions import Fraction

from hypothesis import strategies as st

from combitop._bits import vertices_of
from combitop.homology import HomologyGroup, check_square_zero, homology_groups
from combitop.homology import sparse_smith_normal_form, xor_rank
from combitop.macomplex import _check_vertex_cap, _simplex_boundary
from combitop.simplicial import SimplicialComplex


# -- complexes ---------------------------------------------------------


def face_sets(K: SimplicialComplex) -> set[frozenset[int]]:
    return {frozenset(f) for f in K.faces()}


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """K * L on K's vertices, then L's shifted by K.m: each face of K united with each of L."""
    faces = frozenset(f | g << K.m for f in K.face_masks for g in L.face_masks)
    return SimplicialComplex(K.m + L.m, faces)


def brute_extension_sets(K: SimplicialComplex) -> dict[frozenset[int], frozenset[int]]:
    """Per face f, the vertices v outside f with f + {v} a face, by testing every vertex."""
    faces = face_sets(K)
    return {
        f: frozenset(v for v in range(1, K.m + 1) if v not in f and f | {v} in faces)
        for f in faces
    }


def brute_missing_faces(K: SimplicialComplex) -> set[frozenset[int]]:
    """Minimal non-faces by scanning every vertex subset."""
    faces = face_sets(K)
    out = set()
    for r in range(1, K.m + 1):
        for sub in itertools.combinations(range(1, K.m + 1), r):
            w = frozenset(sub)
            if w in faces:
                continue
            if all(w - {v} in faces for v in w):
                out.add(w)
    return out


def brute_clique_complex(K: SimplicialComplex) -> set[frozenset[int]]:
    """All subsets whose pairs are edges, by scanning every vertex subset."""
    edges = {frozenset(e) for e in K.edges()}
    out = {frozenset()}
    for r in range(1, K.m + 1):
        for sub in itertools.combinations(range(1, K.m + 1), r):
            if all(frozenset(p) in edges for p in itertools.combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


def walk_clique_masks(adj) -> set[int]:
    """Every clique of the graph with neighbor masks ``adj[1..m]``, the empty one included:
    a walk that extends each clique by its common neighbors above its top vertex."""
    cliques = {0}
    stack = [(1 << (v - 1), adj[v]) for v in range(1, len(adj))]
    while stack:
        mask, common = stack.pop()
        cliques.add(mask)
        top = mask.bit_length()
        ext = common >> top << top
        while ext:
            low = ext & -ext
            stack.append((mask | low, common & adj[low.bit_length()]))
            ext ^= low
    return cliques


def flag_pair_c(K: SimplicialComplex, L: SimplicialComplex):
    """c(K, L) for K <= L through the flagification: K's c when flag(K) holds L, else 1."""
    from combitop.connectivity import connectivity_report

    return connectivity_report(K).c if L.face_masks <= K.flagify().face_masks else 1


def brute_maximal_faces(K: SimplicialComplex) -> list[list[int]]:
    """Facets as sorted vertex lists, ordered by (size, vertices): every face against every other."""
    face_sets = [set(f) for f in K.faces() if f]
    maximal = [
        sorted(f)
        for f in face_sets
        if not any(g != f and f <= g for g in face_sets)
    ]
    return sorted(maximal, key=lambda f: (len(f), f))


def brute_barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Chains of faces, extending each chain by a scan over every face one size up."""
    verts = sorted((f for f in K.face_masks if f), key=lambda f: (f.bit_count(), vertices_of(f)))
    index = {f: i + 1 for i, f in enumerate(verts)}
    by_size: dict[int, list[int]] = {}
    for f in verts:
        by_size.setdefault(f.bit_count(), []).append(f)
    chains: list[list[int]] = []

    def grow(chain: list[int]) -> None:
        top = chain[-1]
        exts = [g for g in by_size.get(top.bit_count() + 1, []) if top & g == top]
        if not exts:
            chains.append(list(chain))
        for g in exts:
            chain.append(g)
            grow(chain)
            chain.pop()

    for v in by_size.get(1, []):
        grow([v])
    return SimplicialComplex.from_maximal_faces(
        len(verts), [[index[f] for f in chain] for chain in chains]
    )


@st.composite
def small_complexes(draw, max_m: int = 6):
    """A hypothesis strategy: the downward closure of up to six random subsets of [m], m <= max_m."""
    m = draw(st.integers(0, max_m))
    facets = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=6))
    return SimplicialComplex.from_maximal_faces(m, [vertices_of(f) for f in facets])


def random_complex(m: int, rng: random.Random) -> SimplicialComplex:
    """Downward closure of a random batch of small vertex subsets."""
    n_faces = rng.randint(0, 2 * m)
    maximal = []
    for _ in range(n_faces):
        size = rng.randint(1, min(m, 4))
        maximal.append(rng.sample(range(1, m + 1), size))
    return SimplicialComplex.from_maximal_faces(m, maximal)


def random_complexes(count: int, max_m: int, seed: int) -> list[SimplicialComplex]:
    rng = random.Random(seed)
    return [random_complex(rng.randint(1, max_m), rng) for _ in range(count)]


# -- monomial counting ---------------------------------------------------


def brute_monomial_count(K: SimplicialComplex, mode: str, degree: int) -> int:
    """Count exponent vectors of a given degree with support a face."""
    faces = face_sets(K)
    if degree == 0:
        return 1
    if mode == "exterior":
        return sum(1 for f in faces if len(f) == degree)
    step = 2 if mode == "complex" else 1
    if degree % step:
        return 0
    total = degree // step
    count = 0
    for vec in itertools.product(range(total + 1), repeat=K.m):
        if sum(vec) != total:
            continue
        support = frozenset(v + 1 for v, e in enumerate(vec) if e)
        if support in faces:
            count += 1
    return count


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in (*cuts, total):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def brute_monomial_basis(K: SimplicialComplex, mode: str, degree: int) -> list[tuple]:
    """Basis monomials as (vertex, exponent) tuples: every composition over every face, sorted.

    The order is by descending exponent vector.
    """
    if degree == 0:
        return [()]
    step = 2 if mode == "complex" else 1
    if degree % step:
        return []
    total = degree // step
    out = []
    for f in K.face_masks:
        s = f.bit_count()
        # an exterior monomial is squarefree: its one composition is all ones
        if s == 0 or s > total or (mode == "exterior" and s < total):
            continue
        face = vertices_of(f)
        for comp in _compositions(total, s):
            out.append(tuple(zip(face, comp)))

    def key(powers):
        vec = [0] * K.m
        for v, e in powers:
            vec[v - 1] = -e
        return vec

    out.sort(key=key)
    return out


def list_copy_sr_basis_output(K: SimplicialComplex, mode: str, degree: int, as_json: bool) -> str:
    """``sr-basis`` stdout as rendered before, from a payload of list copies, one per monomial."""
    from combitop import sralg

    basis = sralg.monomial_basis(K, sralg.GradingMode(mode), degree)
    payload = [[list(p) for p in mono.powers] for mono in basis]
    if as_json:
        return json.dumps(payload, indent=2) + "\n"
    lines = [sralg.format_powers(powers) for powers in payload] + [f"count: {len(payload)}"]
    return "\n".join(lines) + "\n"


# -- integer linear algebra ----------------------------------------------


def det_int(mat: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion (small matrices only)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_int(minor)
    return total


def snf_by_determinant_divisors(mat: list[list[int]]) -> list[int]:
    """Smith diagonal via d_k = gcd of all k x k minors."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def dense_smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Nonzero Smith diagonal by dense gcd-pivot elimination: the first +-1 entry,
    else one of least absolute value, row steps, then column steps on its row."""
    M = [list(row) for row in mat]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        p = 0
        for i in range(t, nrows):
            for j, a in enumerate(M[i][t:], t):
                if a and (not p or abs(a) < p):
                    p, pr, pc = abs(a), i, j
            if p == 1:
                break
        if not p:
            break
        M[t], M[pr] = M[pr], M[t]
        for row in M:
            row[t], row[pc] = row[pc], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        Mt = M[t]
        # clear column t by row operations, then row t by column operations,
        # which touch row t alone; a remainder is a smaller pivot: pick again
        for i in range(t + 1, nrows):
            q = M[i][t] // p
            if q:
                M[i] = [x - q * y for x, y in zip(M[i], Mt)]
        if any(M[i][t] for i in range(t + 1, nrows)):
            continue
        for j in range(t + 1, ncols):
            Mt[j] %= p
        if any(Mt[t + 1:]):
            continue
        diag.append(p)
        t += 1
    # diag(d_i) to a divisibility chain: Z/a + Z/b = Z/gcd + Z/lcm
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def dense_boundaries(X) -> list[list[list[int]]]:
    """The matrix of each d_k of a ``CubicalComplex``, zero-filled and summed entry by
    entry from each ``cell.boundary()``: the dense assembly that its sparse columns replaced."""
    ranks = X.cell_counts()
    index = [{cell: i for i, cell in enumerate(cells)} for cells in X.cells_by_dim]
    boundaries = []
    for k in range(1, len(ranks)):
        mat = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for j, cell in enumerate(X.cells_by_dim[k]):
            for coef, facet in cell.boundary():
                mat[index[k - 1][facet]][j] += coef
        boundaries.append(mat)
    return boundaries


def invariant_chain(orders) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of the sum of the cyclic groups Z/n, n in
    ``orders``: the k-th largest factor takes the k-th largest power of each prime."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            chain[k] *= q
    return tuple(reversed(chain))


def kunneth(A: list[HomologyGroup], B: list[HomologyGroup]) -> list[HomologyGroup]:
    """H_*(X x Y) from H_*(X) and H_*(Y), over Z or, for groups without torsion, a field:
    H_i(X) (x) H_j(Y) lands in degree i + j and Tor(H_i(X), H_j(Y)) in i + j + 1."""
    betti = [0] * (len(A) + len(B))
    cyclic: list[list[int]] = [[] for _ in betti]  # the orders of the summands Z/d
    for (i, a), (j, b) in itertools.product(enumerate(A), enumerate(B)):
        betti[i + j] += a.betti * b.betti
        # Z (x) Z/d = Z/d, and Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e)
        tor = [math.gcd(d, e) for d in a.torsion for e in b.torsion]
        cyclic[i + j] += [*a.torsion] * b.betti + [*b.torsion] * a.betti + tor
        cyclic[i + j + 1] += tor
    # the top groups of a cell complex are free, so nothing lands past the top degree
    assert not betti[-1] and not cyclic[-1]
    return [HomologyGroup(n, invariant_chain(c)) for n, c in zip(betti[:-1], cyclic)]


# -- the stable splitting over every vertex set ----------------------------


def components(adjacency: tuple[int, ...], vertices: int) -> int:
    """Connected components of the graph on ``vertices`` (a mask) whose neighbour
    masks ``adjacency`` lists by vertex number, as ``adjacency_masks`` does."""
    count = 0
    while vertices:
        count += 1
        front = vertices & -vertices
        vertices ^= front
        while front:
            low = front & -front
            front ^= low
            reached = adjacency[low.bit_length()] & vertices
            vertices ^= reached
            front |= reached
    return count


def subset_walk_homology(K: SimplicialComplex, mod2: bool = False) -> list[HomologyGroup]:
    """H_0 .. H_{dim K + 1} of the real moment-angle complex, by the stable splitting
    summed over all 2^m vertex sets W, with a component search on each K_W.

    H_i is the sum over vertex sets W of H~_{i-1}(K_W), the empty W giving
    H~_{-1}(empty) = Z in H_0.  The faces of K, the empty face included, are
    indexed once by size, each with its boundary as a sparse column.  The
    augmented chains of K_W are the columns of the faces inside W, so one
    d o d check on K covers every K_W.  A cone K_W, such as a simplex, adds 0.
    Otherwise d_0 has rank 1 if K_W has a vertex, and d_1, a graph's totally
    unimodular incidence matrix, has |V(K_W)| - c(K_W) ones as its Smith
    diagonal, c counting components: only faces of 3 or more vertices are reduced.
    """
    _check_vertex_cap(K)
    faces = sorted(K.face_masks, key=int.bit_count)
    index = {f: i for i, f in enumerate(faces)}
    columns = [{index[g]: a for a, g in _simplex_boundary(f)} for f in faces]
    check_square_zero(columns)
    if mod2:
        columns = [sum(1 << i for i in col) for col in columns]
    ext = list(map(K.extension_masks().get, faces))
    top = faces[-1].bit_count()
    counts, diagonals = [0] * (top + 1), [[] for _ in range(top + 1)]  # d_{top+1} = 0 too
    adjacency = K.adjacency_masks()
    # W grows by vertices above its top one, and a new vertex v adds the
    # faces g | v for the faces g of K_W that it extends.  K_W is a cone
    # with apex v when v is in W and in the star f | ext[f] of each face f.
    stack = [(0, [[0]] + [[] for _ in range(top)], ext[0])]
    while stack:
        W, by_size, star = stack.pop()
        if not W & star:
            for s, fs in enumerate(by_size):
                counts[s] += len(fs)
            if W:  # every vertex of K is a face, so V(K_W) = W
                diagonals[0].append(1)
                diagonals[1] += [1] * (W.bit_count() - components(adjacency, W))
            for s, fs in enumerate(by_size[3:], 3):  # over Z/2 the Smith diagonal is rank-many 1s
                chain = [columns[i] for i in fs]
                diagonals[s - 1] += [1] * xor_rank(chain) if mod2 else sparse_smith_normal_form(chain)
        for v in range(W.bit_length(), K.m):
            bit, grown, meet = 1 << v, [by_size[0]], star
            for fs, below in zip(by_size[1:], by_size):
                added = [index[faces[i] | bit] for i in below if ext[i] & bit]
                for j in added:
                    meet &= faces[j] | ext[j]
                grown.append(fs + added)
            stack.append((W | bit, grown, meet))
    return homology_groups(counts, diagonals)


# -- word rewriting closure ------------------------------------------------

# Letters are (vertex, value) pairs; words are tuples of letters.  Values:
# 1 for coxeter letters, nonzero ints for artin, Fractions in (0,1) for
# circulation, which graphprod writes as int pairs (p, q): ``as_fractions``
# and ``as_pairs`` convert.  The only moves are single adjacent swaps across
# an edge of the commutation graph and single adjacent same-vertex merges.


def as_fractions(kind: str, letters) -> list:
    """The letters with each circulation pair (p, q) read as ``Fraction(p, q)``."""
    return [(v, Fraction(*x)) for v, x in letters] if kind == "circulation" else list(letters)


def as_pairs(kind: str, letters) -> list:
    """The letters with each circulation ``Fraction`` written as its int pair."""
    if kind != "circulation":
        return list(letters)
    return [(v, (x.numerator, x.denominator)) for v, x in letters]


def _merge_value(kind: str, a, b):
    if kind == "coxeter":
        return None
    if kind == "artin":
        s = a + b
        return s if s else None
    s = (a + b) % 1
    return s if s else None


def single_moves(kind: str, adj: tuple[int, ...], w: tuple) -> list[tuple]:
    out = []
    for k in range(len(w) - 1):
        v1, e1 = w[k]
        v2, e2 = w[k + 1]
        if v1 == v2:
            merged = _merge_value(kind, e1, e2)
            if merged is None:
                out.append(w[:k] + w[k + 2 :])
            else:
                out.append(w[:k] + ((v1, merged),) + w[k + 2 :])
        elif (adj[v1] >> (v2 - 1)) & 1:
            out.append(w[:k] + (w[k + 1], w[k]) + w[k + 2 :])
    return out


def restart_reduce(kind: str, adj: tuple[int, ...], letters: list) -> list:
    """Reduce by merging same-vertex letters whenever everything between commutes
    with them, restarting from the first letter after every merge (quadratic or
    worse in the word length)."""
    changed = True
    while changed:
        changed = False
        n = len(letters)
        for i in range(n):
            v = letters[i][0]
            neighbors = adj[v]
            for j in range(i + 1, n):
                vj = letters[j][0]
                if vj == v:
                    merged = _merge_value(kind, letters[i][1], letters[j][1])
                    del letters[j]
                    if merged is None:
                        del letters[i]
                    else:
                        letters[i] = (v, merged)
                    changed = True
                    break
                if not (neighbors >> (vj - 1)) & 1:
                    break
            if changed:
                break
    return letters


def brute_block_split(adj: tuple[int, ...], letters) -> list[list]:
    """Cartier-Foata blocks by peeling: the letters commuting with everything to
    their right form the last block; repeat on the rest.  Leftmost block first."""
    blocks = []
    rest = list(letters)
    while rest:
        seen = 0
        block = []
        keep = []
        for letter in reversed(rest):
            v = letter[0]
            if seen & ~adj[v] == 0:
                block.append(letter)
            else:
                keep.append(letter)
            seen |= 1 << (v - 1)
        block.sort()
        keep.reverse()
        blocks.append(block)
        rest = keep
    blocks.reverse()
    return blocks


def fraction_normal_form(adj: tuple[int, ...], letters) -> list:
    """Normal form of circulation letters with ``Fraction`` values, the reference
    reduction: merges add in Q and take the sum mod 1, as ``Fraction`` arithmetic
    keeps it in lowest terms; then the blocks are peeled, leftmost first."""
    reduced = restart_reduce("circulation", adj, list(letters))
    return [letter for block in brute_block_split(adj, reduced) for letter in block]


class RewritingOracle:
    """Equality via the reflexive-symmetric-transitive closure of single moves.

    The closure is explored over all words reachable from the seeds; two
    seed words are equal in the group exactly when they land in the same
    connected component.
    """

    def __init__(self, kind: str, adj: tuple[int, ...], seeds):
        self.kind = kind
        self.adj = adj
        self._parent: dict[tuple, tuple] = {}
        self._explore(seeds)
        self._canon: dict[tuple, tuple] = {}
        roots: dict[tuple, tuple] = {}
        for w in self._parent:
            root = self._find(w)
            best = roots.get(root)
            key = (len(w), w)
            if best is None or key < (len(best), best):
                roots[root] = w
        for w in self._parent:
            self._canon[w] = roots[self._find(w)]

    def _find(self, w):
        parent = self._parent
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def _explore(self, seeds):
        stack = []
        for w in seeds:
            if w not in self._parent:
                self._parent[w] = w
                stack.append(w)
        while stack:
            w = stack.pop()
            for w2 in single_moves(self.kind, self.adj, w):
                if w2 not in self._parent:
                    self._parent[w2] = w2
                    stack.append(w2)
                self._union(w, w2)

    def canonical(self, w: tuple) -> tuple:
        return self._canon[w]

    def equal(self, w1: tuple, w2: tuple) -> bool:
        return self._canon[w1] == self._canon[w2]


class PackedRewritingOracle:
    """Same single-move closure as RewritingOracle, tuned for exhaustive sweeps.

    Words are packed into integers, six bits per letter below a sentinel
    bit: the vertex (minus one) in the high two-plus bits and the exponent,
    offset by 8, in the low four.  Only integer-exponent kinds (artin,
    coxeter) are supported; exponents must stay within -8..7, which holds
    for closures of short words with unit exponents.
    """

    def __init__(self, kind: str, m: int, adj: tuple[int, ...], seeds=(), packed_seeds=None):
        if kind not in ("artin", "coxeter"):
            raise ValueError("packed oracle supports artin and coxeter only")
        self.kind = kind
        self.m = m
        # neighbor masks re-indexed by vertex code (vertex - 1)
        self._adj = [adj[v] for v in range(1, m + 1)]
        self._parent: dict[int, int] = {}
        if packed_seeds is None:
            packed_seeds = [self.pack(w) for w in seeds]
        self._explore(packed_seeds)

    @staticmethod
    def pack(w) -> int:
        acc = 1
        for v, e in w:
            acc = (acc << 6) | ((v - 1) << 4) | (e + 8)
        return acc

    def _find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _explore(self, seeds: list[int]) -> None:
        parent = self._parent
        adj = self._adj
        coxeter = self.kind == "coxeter"
        stack = []
        for w in seeds:
            if w not in parent:
                parent[w] = w
                stack.append(w)
        while stack:
            w = stack.pop()
            rw = w
            while parent[rw] != rw:
                parent[rw] = parent[parent[rw]]
                rw = parent[rw]
            n = (w.bit_length() - 1) // 6
            sa = 6 * (n - 1)
            for _ in range(n - 1):
                sb = sa - 6
                a = (w >> sa) & 63
                b = (w >> sb) & 63
                va = a >> 4
                vb = b >> 4
                if va == vb:
                    if coxeter:
                        merged = None
                    else:
                        e = (a & 15) + (b & 15) - 16
                        merged = None if e == 0 else (va << 4) | (e + 8)
                    high = w >> (sa + 6)
                    low = w & ((1 << sb) - 1)
                    if merged is None:
                        w2 = (high << sb) | low
                    else:
                        w2 = (((high << 6) | merged) << sb) | low
                elif (adj[va] >> vb) & 1:
                    w2 = w - (a << sa) - (b << sb) + (b << sa) + (a << sb)
                else:
                    sa = sb
                    continue
                if w2 not in parent:
                    parent[w2] = w2
                    stack.append(w2)
                rb = w2
                while parent[rb] != rb:
                    parent[rb] = parent[parent[rb]]
                    rb = parent[rb]
                if rw != rb:
                    parent[rw] = rb
                    rw = rb
                sa = sb

    def component(self, w) -> int:
        return self._find(self.pack(w))

    def component_packed(self, pw: int) -> int:
        return self._find(pw)

    def equal(self, w1, w2) -> bool:
        return self.component(w1) == self.component(w2)


def all_graphs(m: int):
    """Every labeled graph on vertices 1..m, as adjacency-mask tuples."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * (m + 1)
        for idx, (i, j) in enumerate(pairs):
            if bits & (1 << idx):
                adj[i] |= 1 << (j - 1)
                adj[j] |= 1 << (i - 1)
        yield tuple(adj)


def all_words(alphabet, max_len: int):
    """Every word over the alphabet with at most max_len letters."""
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def artin_alphabet(m: int):
    return [(v, e) for v in range(1, m + 1) for e in (1, -1)]


def coxeter_alphabet(m: int):
    return [(v, 1) for v in range(1, m + 1)]


def random_word(kind: str, m: int, length: int, rng: random.Random):
    letters = []
    for _ in range(length):
        v = rng.randint(1, m)
        if kind == "artin":
            letters.append((v, rng.choice([-2, -1, 1, 2])))
        elif kind == "coxeter":
            letters.append((v, 1))
        else:
            letters.append((v, Fraction(rng.randint(1, 5), rng.randint(2, 7)) % 1))
    return [l for l in letters if l[1] != 0]


def group_word_reduce_payload(w) -> dict:
    """The ``word-reduce --json`` payload as rendered before: ``format_word`` of the
    normal form, and of a ``GroupWord`` built for each Cartier-Foata block."""
    from combitop import graphprod as gp

    nf = gp.normal_form(w)
    blocks = gp.cartier_foata_blocks(w)
    return {
        "word": gp.format_word(nf),
        "length": len(nf),
        "blocks": [gp.format_word(gp.GroupWord(w.kind, w.graph, block)) for block in blocks],
    }


# -- word literals and the command line, as parsed before ----------------


def old_style_letters(kind: str, text: str) -> list:
    """The letters that ``parse_word`` handed to ``word`` before it built canonical
    values itself: int exponents, 1, and ``Fraction(p, q)`` as written."""
    tokens = text.split()
    letters = []
    for tok in [] if tokens == ["e"] else tokens:
        if kind == "artin":
            match = re.fullmatch(r"v(\d+)\^(-?\d+)", tok)
            if not match:
                raise ValueError(f"bad artin letter {tok!r} (expected v<i>^<e>)")
            letters.append((int(match.group(1)), int(match.group(2))))
        elif kind == "coxeter":
            match = re.fullmatch(r"a(\d+)", tok)
            if not match:
                raise ValueError(f"bad coxeter letter {tok!r} (expected a<i>)")
            letters.append((int(match.group(1)), 1))
        else:
            match = re.fullmatch(r"t(\d+)@(-?\d+)/(\d+)", tok)
            if not match:
                raise ValueError(f"bad circulation letter {tok!r} (expected t<i>@<p>/<q>)")
            q = int(match.group(3))
            if q == 0:
                raise ValueError(f"zero denominator in circulation letter {tok!r}")
            letters.append((int(match.group(1)), Fraction(int(match.group(2)), q)))
    return letters


class _ArgumentParser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # argparse up to 3.11 also drops an argument that is itself "--" (in
        # "--degree=--", or after a first "--") and hands the command an empty
        # list, on which the command raised; the oracle keeps it as "--"
        value = super()._get_values(action, list(arg_strings))
        if value == [] and action.nargs is None:
            value = super()._get_values(action, ["--", "--"])
        return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``combitop.cli`` before its command table, the
    reference for the table's parser; ``--with`` now sets ``with``."""
    from combitop import cli

    parser = _ArgumentParser(prog="combitop", description=cli.DESCRIPTION)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    modes, kinds = ["real", "complex", "exterior"], ["coxeter", "artin", "circulation"]

    def add(name):
        run, text, _, help_ = cli.COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=run, text=text)
        return p

    add("info").add_argument("path", nargs="?", default="-")
    add("flagify").add_argument("path", nargs="?", default="-")
    p = add("sr-hilbert")
    p.add_argument("--mode", required=True, choices=modes)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("path", nargs="?", default="-")
    p = add("sr-basis")
    p.add_argument("--mode", required=True, choices=modes)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("path", nargs="?", default="-")
    for name, words in (("word-reduce", ["word"]), ("word-equal", ["word1", "word2"])):
        p = add(name)
        p.add_argument("--group", required=True, choices=kinds)
        for dest in ["path", *words]:
            p.add_argument(dest)
    p = add("ma-homology")
    p.add_argument("--mod2", action="store_true")
    p.add_argument("path", nargs="?", default="-")
    add("bcat-cells").add_argument("path", nargs="?", default="-")
    p = add("arrangement")
    p.add_argument("--field", required=True, choices=["R", "C", "E"])
    p.add_argument("path", nargs="?", default="-")
    p = add("pair-connectivity")
    p.add_argument("--with", dest="with", required=True, metavar="PATH")
    p.add_argument("path", nargs="?", default="-")
    return parser


def argparse_parse(argv):
    """A drop-in for ``cli._parse`` that reads ``argv`` with ``build_parser``."""
    parser = build_parser()
    # argparse 3.10.13 to 3.13.0 refuses a "--=" token before "--" ahead of
    # anything else, "-h" included, as the CLI does; 3.13.13 acts on "-h" first
    # and may read "--=x" as "--help=x"; the oracle keeps the older rule
    for token in argv[: argv.index("--")] if "--" in argv else argv:
        if token.startswith("--="):
            parser.error(f"ambiguous option: {token} could match --help, --json")
    args = parser.parse_args(argv)
    return (args.func, args.text), args
