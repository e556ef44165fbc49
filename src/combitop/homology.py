"""Exact homology of finite chain complexes over Z and Z/2.

Integer Smith normal form is computed by gcd-pivot elimination with
arbitrary-precision integers; pivots prefer +-1 entries, then smallest
absolute value, to limit coefficient growth.  Mod-2 Betti numbers use
bitset Gaussian elimination.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

from ._bits import Value, setfield

Matrix = list[list[int]]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form: positive entries, each dividing the next.

    The length of the returned list is the rank of the matrix.
    """
    M = [list(row) for row in mat]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        pr = pc = -1
        best = 0
        for i in range(t, nrows):
            Mi = M[i]
            for j in range(t, ncols):
                a = Mi[j]
                if a:
                    aa = -a if a < 0 else a
                    if best == 0 or aa < best:
                        pr, pc, best = i, j, aa
                        if aa == 1:
                            break
            if best == 1:
                break
        if best == 0:
            break
        if pr != t:
            M[t], M[pr] = M[pr], M[t]
        if pc != t:
            for row in M:
                row[t], row[pc] = row[pc], row[t]
        while True:
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
            p = M[t][t]
            # clear column t below the pivot; a nonzero remainder becomes
            # a strictly smaller pivot, so swap it up and start over
            restart = False
            for i in range(t + 1, nrows):
                a = M[i][t]
                if a:
                    q = a // p
                    if q:
                        Mt = M[t]
                        M[i] = [x - q * y for x, y in zip(M[i], Mt)]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        restart = True
                        break
            if restart:
                continue
            # column t is (p, 0, ..., 0), so clearing row t by column
            # operations touches row t only; a remainder swaps columns
            Mt = M[t]
            swapped = False
            for j in range(t + 1, ncols):
                a = Mt[j]
                if a:
                    r = a % p
                    Mt[j] = r
                    if r:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        swapped = True
                        break
            if not swapped:
                break
        diag.append(M[t][t])
        t += 1
    factors = invariant_factors(diag)
    return [1] * (len(diag) - len(factors)) + list(factors)


def invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of the sum of cyclic groups Z/d, d in ``orders``.

    The result is ascending, each entry divides the next, and trivial
    factors (1s) are dropped; every order must be positive.
    """
    if any(d < 1 for d in orders):
        raise ValueError(f"cyclic group orders must be positive, got {list(orders)}")
    diag = [d for d in orders if d != 1]
    # pairwise gcd/lcm sweep: Z/a + Z/b = Z/gcd + Z/lcm
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                diag[i] = g
                diag[j] = a // g * b
    return tuple(d for d in diag if d != 1)


def gf2_rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix reduced mod 2."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in mat:
        cur = 0
        for j, a in enumerate(row):
            if a & 1:
                cur |= 1 << j
        while cur:
            msb = cur.bit_length() - 1
            if msb in pivots:
                cur ^= pivots[msb]
            else:
                pivots[msb] = cur
                rank += 1
                break
    return rank


class HomologyGroup(Value):
    """A finitely generated abelian group Z^betti + sum of Z/d_i."""

    __slots__ = ("betti", "torsion")

    def __init__(self, betti: int, torsion: tuple[int, ...] = ()) -> None:
        if betti < 0:
            raise ValueError("negative Betti number")
        prev = 1
        for d in torsion:
            if d <= 1 or d % prev:
                raise ValueError(f"invalid torsion chain {torsion}")
            prev = d
        setfield(self, "betti", betti)
        setfield(self, "torsion", torsion)

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """Graded free Z-modules with integer boundary matrices.

    ``boundaries[k-1]`` is the matrix of d_k: C_k -> C_{k-1}, with
    ranks[k-1] rows and ranks[k] columns.  d o d = 0 is checked eagerly:
    a violation signals a boundary-sign bug upstream.
    """

    def __init__(self, ranks: Sequence[int], boundaries: Sequence[Matrix]):
        self.ranks = tuple(ranks)
        self.boundaries = [[list(row) for row in b] for b in boundaries]
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            raise ValueError("need one boundary matrix per positive dimension")
        for k, b in enumerate(self.boundaries, start=1):
            if len(b) != self.ranks[k - 1] or any(len(row) != self.ranks[k] for row in b):
                raise ValueError(f"boundary {k} has the wrong shape")
        for k in range(2, len(self.ranks)):
            self._check_square_zero(self.boundaries[k - 2], self.boundaries[k - 1], k)

    @staticmethod
    def _check_square_zero(prev: Matrix, cur: Matrix, k: int) -> None:
        # sparse column-by-column composition
        prev_cols: dict[int, list[tuple[int, int]]] = {}
        for i, row in enumerate(prev):
            for j, a in enumerate(row):
                if a:
                    prev_cols.setdefault(j, []).append((i, a))
        for j in range(len(cur[0]) if cur else 0):
            acc: dict[int, int] = {}
            for i, row in enumerate(cur):
                a = row[j]
                if a:
                    for i2, c in prev_cols.get(i, ()):
                        acc[i2] = acc.get(i2, 0) + a * c
            if any(acc.values()):
                raise ValueError(f"d_{k-1} o d_{k} != 0 (column {j})")

    @property
    def top_dimension(self) -> int:
        return len(self.ranks) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def homology(self, mod2: bool = False) -> list[HomologyGroup]:
        """H_k = ker d_k / im d_{k+1} for each dimension, bottom up."""
        d = self.top_dimension
        if mod2:
            bd_rank = [0] + [gf2_rank(b) for b in self.boundaries] + [0]
            return [
                HomologyGroup(self.ranks[k] - bd_rank[k] - bd_rank[k + 1])
                for k in range(d + 1)
            ]
        snfs = [smith_normal_form(b) for b in self.boundaries]
        bd_rank = [0] + [len(s) for s in snfs] + [0]
        out = []
        for k in range(d + 1):
            betti = self.ranks[k] - bd_rank[k] - bd_rank[k + 1]
            torsion = tuple(e for e in snfs[k]) if k < d else ()
            torsion = tuple(e for e in torsion if e > 1)
            out.append(HomologyGroup(betti, torsion))
        return out


class CubicalComplex:
    """A finite complex of abstract cells with a signed boundary map.

    ``cells_by_dim[k]`` lists the k-cells (any hashable objects) and
    ``boundary(cell)`` returns [(coefficient, facet), ...].  The chain
    complex over Z is materialized on demand.
    """

    def __init__(
        self,
        cells_by_dim: Sequence[Sequence[Hashable]],
        boundary: Callable[[Hashable], list[tuple[int, Hashable]]],
    ):
        self.cells_by_dim = [list(cells) for cells in cells_by_dim]
        while self.cells_by_dim and not self.cells_by_dim[-1]:
            self.cells_by_dim.pop()
        self.boundary = boundary
        self._chain: ChainComplex | None = None

    @property
    def dimension(self) -> int:
        return len(self.cells_by_dim) - 1

    def cells(self, k: int) -> list[Hashable]:
        if 0 <= k <= self.dimension:
            return list(self.cells_by_dim[k])
        return []

    def all_cells(self) -> list[Hashable]:
        return [c for cells in self.cells_by_dim for c in cells]

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def cell_count(self) -> int:
        return sum(self.cell_counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.cell_counts()))

    def chain_complex(self) -> ChainComplex:
        if self._chain is None:
            ranks = self.cell_counts()
            index = [
                {cell: i for i, cell in enumerate(cells)} for cells in self.cells_by_dim
            ]
            boundaries = []
            for k in range(1, len(ranks)):
                mat = [[0] * ranks[k] for _ in range(ranks[k - 1])]
                for j, cell in enumerate(self.cells_by_dim[k]):
                    for coef, facet in self.boundary(cell):
                        mat[index[k - 1][facet]][j] += coef
                boundaries.append(mat)
            self._chain = ChainComplex(ranks, boundaries)
        return self._chain

    def homology(self, mod2: bool = False) -> list[HomologyGroup]:
        return self.chain_complex().homology(mod2=mod2)
