"""Exact homology of finite chain complexes over Z and Z/2; the cells live elsewhere.

A chain complex keeps one representation: the sparse boundary column of each
cell, over one index of its cells (``ChainComplex.from_cells``).  ``smith_diagonal``
reduces every chain: by bitset xor elimination over Z/2, and over Z by sparse +-1
pivots, then pivots of least absolute value on any residual, in exact integers.
Torsion is normalised once per homology group, in one pass that does not sweep
repeated orders.
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

    The length of the returned list is the rank of the matrix, whose columns
    go to ``smith_diagonal``.
    """
    diag = smith_diagonal([{i: row[j] for i, row in enumerate(mat) if row[j]}
                           for j in range(len(mat[0]) if mat else 0)])
    factors = invariant_factors(diag)
    return [1] * (len(diag) - len(factors)) + list(factors)


def invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of the sum of cyclic groups Z/d, d in ``orders``.

    The result is ascending, each entry divides the next, and trivial factors
    (1s) are dropped; every order must be positive.  Each order goes once down
    the factors, kept with multiplicities: it passes one it divides, and else
    Z/f + Z/d = Z/gcd + Z/lcm raises a copy of f to the lcm and takes the gcd on.
    """
    diag = [d for d in orders if d != 1]
    if any(d < 1 for d in diag):
        raise ValueError(f"cyclic group orders must be positive, got {list(orders)}")
    chain: dict[int, int] = {}  # factor -> multiplicity; the factors divide one another
    for d in diag:
        for f in sorted(chain, reverse=True):
            if f % d:
                g = math.gcd(f, d)
                chain[f // g * d] = chain.get(f // g * d, 0) + 1
                chain[f] -= 1
                if not chain[f]:
                    del chain[f]
                d = g
        if d > 1:
            chain[d] = chain.get(d, 0) + 1
    return tuple(f for f in sorted(chain) for _ in range(chain[f]))


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


def reduce_column(col: Column, r: int, pivot: Column) -> None:
    """Subtract q * ``pivot`` from ``col`` in place, q = col[r] // pivot[r], so that
    col[r] becomes col[r] mod pivot[r]; entries that reach 0 are dropped."""
    q = col[r] // pivot[r]
    for i, a in pivot.items():
        v = col.get(i, 0) - q * a
        if v:
            col[i] = v
        else:
            del col[i]


def smith_diagonal(columns: Iterable, mod2: bool = False) -> list[int]:
    """A diagonal of the matrix with these columns, over Z/2 if ``mod2``, not yet
    normalised: ``invariant_factors`` of it is the Smith form's torsion.

    Over Z/2 the columns are bitsets: ``xor_rank``-many 1s.  Over Z each sparse
    column is reduced past the +-1 pivots found so far, a unit entry left in it
    becomes a pivot, and the residual columns holding its row are reduced again.
    The pivots form a triangular unimodular block, so only residual columns are
    left to finish, if any: a pivot of least absolute value clears its row by
    column steps, then its column by row steps on the pivot column alone; a
    remainder is a smaller entry, picked next.  The caller's columns are kept.
    """
    if mod2:
        return [1] * xor_rank(columns)
    pivots: dict[int, Column] = {}
    residual: list[Column] = []
    todo = list(columns)
    while todo:
        col = todo.pop()
        while hits := [r for r in col if r in pivots]:
            col = dict(col)  # reduce a copy: the columns are the caller's
            for r in hits:
                if r in col:
                    reduce_column(col, r, pivots[r])
        for unit, a in col.items():
            if a == 1 or a == -1:
                break
        else:
            residual += [col] if col else []
            continue
        pivots[unit] = col
        todo += [c for c in residual if unit in c]
        residual = [c for c in residual if unit not in c]
    diag, cols = [1] * len(pivots), [dict(c) for c in residual]
    while any(cols):
        _, r, j = min((abs(a), r, j) for j, col in enumerate(cols) for r, a in col.items())
        pivot = cols.pop(j)
        p = pivot[r]
        for col in cols:
            if r in col:
                reduce_column(col, r, pivot)
        if any(r in col for col in cols):
            cols.append(pivot)
        elif rest := {i: a % p for i, a in pivot.items() if a % p}:
            cols.append({r: p, **rest})
        else:
            diag.append(abs(p))
    return diag


def homology_groups(ranks: Sequence[int], diagonals: Sequence[list[int]]) -> list[HomologyGroup]:
    """H_k from the rank of each C_k and a diagonal of each d_{k+1}: C_{k+1} -> C_k.

    A diagonal may join those of a direct sum's summands, and its torsion is
    normalised here, once.  Over Z/2 it is rank-many 1s; Betti numbers are mod 2.
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
    """Graded free Z-modules whose boundaries are kept as sparse columns only.

    Column j of d_k: C_k -> C_{k-1} maps the rows of (k-1)-cells, in one index of all
    cells, to the nonzero coefficients of k-cell j's boundary.  The constructor takes each
    d_k as a ranks[k-1] x ranks[k] matrix, ``from_cells`` each cell's signed boundary.
    """

    def __init__(self, ranks: Sequence[int], boundaries: Sequence[Matrix]):
        if len(boundaries) != max(len(ranks) - 1, 0):
            raise ValueError("need one boundary matrix per positive dimension")
        for k, b in enumerate(boundaries, start=1):
            if len(b) != ranks[k - 1] or any(len(row) != ranks[k] for row in b):
                raise ValueError(f"boundary {k} has the wrong shape")
        start = [sum(ranks[:k]) for k in range(len(ranks))]
        self._keep(ranks, [[{a + i: row[j] for i, row in enumerate(b) if row[j]} for j in range(n)]
                           for b, a, n in zip(boundaries, start, ranks[1:])])

    @classmethod
    def from_cells(cls, cells_by_dim: Sequence[Sequence[Hashable]],
                   boundary: Callable[[Hashable], Iterable[tuple[int, Hashable]]]) -> ChainComplex:
        """Chains on the k-cells ``cells_by_dim[k]``: the (coefficient, facet) pairs of
        ``boundary(cell)`` summed into its column; KeyError for a facet not a (k-1)-cell."""
        ranks, columns = [len(cells) for cells in cells_by_dim], []
        for k in range(1, len(ranks)):
            index = {c: i for i, c in enumerate(cells_by_dim[k - 1], sum(ranks[:k - 1]))}
            columns.append([])
            for cell in cells_by_dim[k]:
                col: Column = {}
                for coef, facet in boundary(cell):  # KeyError if not a (k-1)-cell
                    col[index[facet]] = col.get(index[facet], 0) + coef
                # rows ascending: the sparse Smith form pivots on the first +-1 entry it meets
                columns[-1].append({i: col[i] for i in sorted(col) if col[i]})
        return cls.__new__(cls)._keep(ranks, columns)

    def _keep(self, ranks: Sequence[int], columns: list[list[Column]]) -> ChainComplex:
        """Keep the ranks and each d_k's columns, k >= 1, if no rank is negative and d o d = 0."""
        if any(r < 0 for r in ranks):
            raise ValueError("negative rank")
        check_square_zero([{}] * sum(ranks[:1]) + [c for cols in columns for c in cols])
        self.ranks, self._columns = tuple(ranks), columns
        return self

    @property
    def boundaries(self) -> list[Matrix]:
        """Each d_k as a matrix, rebuilt from its columns on each read; ``homology`` reads none."""
        start = [sum(self.ranks[:k]) for k in range(len(self.ranks))]
        return [[[col.get(r, 0) for col in cols] for r in range(a, b)]
                for cols, a, b in zip(self._columns, start, start[1:])]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def homology(self, mod2: bool = False) -> list[HomologyGroup]:
        """H_k = ker d_k / im d_{k+1} for each dimension, bottom up; over Z/2 a column
        is the bitset of its odd entries."""
        return homology_groups(self.ranks, [
            smith_diagonal((sum(1 << i for i, a in c.items() if a & 1) for c in cols)
                           if mod2 else cols, mod2) for cols in self._columns])

