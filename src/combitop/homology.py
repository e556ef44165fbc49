"""Exact homology of finite chain complexes over Z and Z/2.

Integer Smith normal form is computed by gcd-pivot elimination with
arbitrary-precision integers; pivots prefer +-1 entries, then smallest
absolute value, to limit coefficient growth.  A matrix given by sparse
columns has its +-1 pivots eliminated sparsely first, and only the residual
goes to the dense Smith form.  Mod-2 ranks use one bitset xor elimination.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Sequence

from ._bits import Value, setfield

Matrix = list[list[int]]
#: A sparse column: row index -> nonzero entry.
Column = dict[int, int]


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
        # the pivot: the first +-1 entry, else one of least absolute value
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


def xor_rank(vectors: Iterable[int]) -> int:
    """Rank over Z/2 of vectors packed as bitsets, by xor elimination on the top bit."""
    pivots: dict[int, int] = {}
    for cur in vectors:
        while cur:
            top = cur.bit_length() - 1
            if top not in pivots:
                pivots[top] = cur
                break
            cur ^= pivots[top]
    return len(pivots)


def sparse_smith_normal_form(columns: Iterable[Column]) -> list[int]:
    """``smith_normal_form`` of the matrix with these sparse columns.

    A column is reduced past the +-1 pivots found so far, and a unit entry
    left in it becomes a pivot; the residual columns that hold its row are
    then reduced again.  The pivots form a triangular unimodular block, so
    the rest of the Smith form is that of the residual columns alone.
    """
    pivots: dict[int, Column] = {}
    residual: list[Column] = []
    todo = list(columns)
    while todo:
        col = todo.pop()
        while hits := [r for r in col if r in pivots]:
            col = dict(col)  # reduce a copy: the columns are the caller's
            for r in hits:
                if r in col:
                    q = col[r] * pivots[r][r]
                    for i, a in pivots[r].items():
                        v = col.get(i, 0) - q * a
                        if v:
                            col[i] = v
                        else:
                            del col[i]
        for unit, a in col.items():
            if a == 1 or a == -1:
                break
        else:
            residual += [col] if col else []
            continue
        pivots[unit] = col
        todo += [c for c in residual if unit in c]
        residual = [c for c in residual if unit not in c]
    rows = sorted({r for c in residual for r in c})
    rest = smith_normal_form([[c.get(r, 0) for c in residual] for r in rows]) if rows else []
    return [1] * len(pivots) + rest


def homology_groups(ranks: Sequence[int], diagonals: Sequence[list[int]]) -> list[HomologyGroup]:
    """H_k from the rank of each C_k and the Smith diagonal of each d_{k+1}: C_{k+1} -> C_k.

    A diagonal may join those of a direct sum's summands.  Over Z/2 it is
    rank-many 1s, and the Betti numbers are mod 2.
    """
    rank = [0] + [len(d) for d in diagonals] + [0]
    torsion = [invariant_factors(d) for d in diagonals] + [()]
    return [HomologyGroup(n - rank[k] - rank[k + 1], torsion[k]) for k, n in enumerate(ranks)]


def check_square_zero(columns: Sequence[Column]) -> None:
    """Raise ValueError unless d o d = 0, where column j of d is the boundary of cell j.

    Rows and columns share one index over the cells of every degree.
    """
    for j, col in enumerate(columns):
        acc: Column = {}
        for i, a in col.items():
            for k, b in columns[i].items():
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            raise ValueError(f"d o d != 0 on cell {j}: a boundary sign is wrong")


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
    ranks[k-1] rows and ranks[k] columns.  ``homology`` reduces their sparse
    columns, on which d o d = 0 is checked eagerly: see ``check_square_zero``.
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
        # sparse columns of each d_k, over one index of the cells of all degrees
        start = [sum(self.ranks[:k]) for k in range(len(self.ranks))]
        self._columns = [
            [{start[k - 1] + i: row[j] for i, row in enumerate(b) if row[j]}
             for j in range(self.ranks[k])]
            for k, b in enumerate(self.boundaries, start=1)
        ]
        check_square_zero([{}] * sum(self.ranks[:1]) + [c for cols in self._columns for c in cols])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def homology(self, mod2: bool = False) -> list[HomologyGroup]:
        """H_k = ker d_k / im d_{k+1} for each dimension, bottom up."""
        if mod2:  # the Smith diagonal is rank-many 1s, the rank of the odd entries
            return homology_groups(self.ranks, [
                [1] * xor_rank(sum(1 << i for i, a in col.items() if a & 1) for col in cols)
                for cols in self._columns
            ])
        return homology_groups(self.ranks, list(map(sparse_smith_normal_form, self._columns)))


class CubicalComplex:
    """A finite complex of abstract cells with a signed boundary map.

    ``cells_by_dim[k]`` lists the k-cells (any hashable objects) and
    ``boundary(cell)`` returns [(coefficient, facet), ...].  The chain
    complex over Z is materialized on demand.
    """

    def __init__(self, cells_by_dim: Sequence[Sequence[Hashable]],
                 boundary: Callable[[Hashable], list[tuple[int, Hashable]]]):
        self.cells_by_dim = [list(cells) for cells in cells_by_dim]
        while self.cells_by_dim and not self.cells_by_dim[-1]:
            self.cells_by_dim.pop()
        self.boundary = boundary
        self._chain: ChainComplex | None = None

    @property
    def dimension(self) -> int:
        return len(self.cells_by_dim) - 1

    def cells(self, k: int) -> list[Hashable]:
        return list(self.cells_by_dim[k]) if 0 <= k <= self.dimension else []

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
            index = [{cell: i for i, cell in enumerate(cells)} for cells in self.cells_by_dim]
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
