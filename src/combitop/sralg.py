"""Stanley-Reisner algebra and dual coalgebra of a complex, in three gradings.

REAL: polynomial generators of degree 1 with mod-2 coefficients.
COMPLEX: polynomial generators of degree 2 over the integers.
EXTERIOR: anticommuting degree-1 generators; squares vanish, and signs
follow the Koszul convention for ascending vertex order.

Basis monomials are the multisets (subsets, in the exterior case) whose
support is a face; everything else is killed by the relation ideal.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum

from ._bits import Value, mask_of, popcount, setfield, vertices_of
from .simplicial import SimplicialComplex


class GradingMode(Enum):
    REAL = "real"
    COMPLEX = "complex"
    EXTERIOR = "exterior"

    @property
    def generator_degree(self) -> int:
        return 2 if self is GradingMode.COMPLEX else 1


class Monomial(Value):
    """Product of vertex generators, stored as (vertex, exponent) pairs in ascending order."""

    __slots__ = ("powers",)

    def __init__(self, powers: tuple[tuple[int, int], ...]) -> None:
        last = 0
        for v, e in powers:
            if v <= last:
                raise ValueError("vertices must be strictly ascending")
            if e <= 0:
                raise ValueError("exponents must be positive")
            last = v
        setfield(self, "powers", powers)

    @classmethod
    def from_exponents(cls, exponents: dict[int, int]) -> "Monomial":
        return cls(tuple(sorted((v, e) for v, e in exponents.items() if e)))

    @classmethod
    def from_vertices(cls, vertices) -> "Monomial":
        """Squarefree monomial on a vertex set."""
        return cls(tuple((v, 1) for v in sorted(vertices)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.powers)

    @property
    def support_mask(self) -> int:
        return mask_of(self.support)

    @property
    def total_exponent(self) -> int:
        return sum(e for _, e in self.powers)

    def degree(self, mode: GradingMode) -> int:
        return self.total_exponent * mode.generator_degree

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.powers)

    def exponent_vector(self, m: int) -> tuple[int, ...]:
        vec = [0] * m
        for v, e in self.powers:
            vec[v - 1] = e
        return tuple(vec)

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return " ".join(f"v{v}" if e == 1 else f"v{v}^{e}" for v, e in self.powers)


ONE = Monomial(())


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


def monomial_basis(K: SimplicialComplex, mode: GradingMode, degree: int) -> list[Monomial]:
    """All basis monomials of the given graded degree, sorted by exponent vector."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return [ONE]
    g = mode.generator_degree
    if degree % g:
        return []
    total = degree // g
    out = []
    for f in K.face_masks:
        s = popcount(f)
        # an exterior monomial is squarefree: its one composition is all ones
        if s == 0 or s > total or (mode is GradingMode.EXTERIOR and s < total):
            continue
        face = vertices_of(f)
        for comp in _compositions(total, s):
            out.append(Monomial(tuple(zip(face, comp))))
    out.sort(key=lambda mono: tuple(-e for e in mono.exponent_vector(K.m)))
    return out


class HilbertSeries(Value):
    """Rational function numerator(t) / (1 - t^step)^denominator_power."""

    __slots__ = ("numerator", "denominator_power", "step")

    def __init__(self, numerator: tuple[int, ...], denominator_power: int, step: int) -> None:
        setfield(self, "numerator", numerator)
        setfield(self, "denominator_power", denominator_power)
        setfield(self, "step", step)

    def coefficient(self, d: int) -> int:
        """Power-series coefficient of t^d, by exact expansion."""
        if d < 0:
            return 0
        e = self.denominator_power
        total = 0
        for j, a in enumerate(self.numerator):
            if a == 0 or j > d:
                continue
            rem = d - j
            if rem % self.step:
                continue
            k = rem // self.step
            if e == 0:
                if k == 0:
                    total += a
            else:
                total += a * math.comb(k + e - 1, e - 1)
        return total

    def __str__(self) -> str:
        terms = []
        for j, a in enumerate(self.numerator):
            if a == 0:
                continue
            if j == 0:
                terms.append(str(a))
            else:
                coef = "" if a == 1 else ("-" if a == -1 else f"{a}*")
                terms.append(f"{coef}t" if j == 1 else f"{coef}t^{j}")
        num = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        if self.denominator_power == 0:
            return num
        base = "(1 - t)" if self.step == 1 else f"(1 - t^{self.step})"
        denom = base if self.denominator_power == 1 else f"{base}^{self.denominator_power}"
        return f"({num}) / {denom}"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def hilbert_series(K: SimplicialComplex, mode: GradingMode) -> HilbertSeries:
    """Generating function of basis-monomial counts by degree."""
    counts = (1,) + K.f_vector()
    top = len(counts) - 1
    g = mode.generator_degree
    if mode is GradingMode.EXTERIOR:
        return HilbertSeries(counts, 0, 1)
    # common denominator (1 - t^g)^top
    one_minus = [1] + [0] * (g - 1) + [-1]
    pows = [[1]]
    for _ in range(top):
        pows.append(_poly_mul(pows[-1], one_minus))
    num = [0] * (g * top + 1)
    for s, n in enumerate(counts):
        for j, a in enumerate(pows[top - s]):
            num[g * s + j] += n * a
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return HilbertSeries(tuple(num), top, g)


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Koszul sign of sorting the concatenation of two ascending vertex lists."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions & 1 else 1


def multiply(
    a: Monomial, b: Monomial, K: SimplicialComplex, mode: GradingMode
) -> tuple[int, Monomial] | None:
    """Product in the quotient algebra: None when it lands in the relation ideal."""
    union = a.support_mask | b.support_mask
    if union not in K.face_masks:
        return None
    if mode is GradingMode.EXTERIOR:
        if a.support_mask & b.support_mask:
            return None
        sign = _merge_sign(a.support, b.support)
        return sign, Monomial.from_vertices(a.support + b.support)
    exps = dict(a.powers)
    for v, e in b.powers:
        exps[v] = exps.get(v, 0) + e
    return 1, Monomial.from_exponents(exps)


def coproduct(z: Monomial, mode: GradingMode) -> list[tuple[int, Monomial, Monomial]]:
    """All ordered two-part splittings of z, dual to multiplication.

    Dual basis elements of the coalgebra share the ``Monomial`` representation.
    """
    if mode is GradingMode.EXTERIOR:
        if not z.is_squarefree():
            raise ValueError("exterior coalgebra elements are squarefree")
        support = z.support
        out = []
        for r in range(len(support) + 1):
            for left in itertools.combinations(support, r):
                right = tuple(v for v in support if v not in left)
                out.append(
                    (
                        _merge_sign(left, right),
                        Monomial.from_vertices(left),
                        Monomial.from_vertices(right),
                    )
                )
        return out
    ranges = [range(e + 1) for _, e in z.powers]
    verts = z.support
    out = []
    for pick in itertools.product(*ranges):
        left = Monomial.from_exponents(
            {v: e for v, e in zip(verts, pick)}
        )
        right = Monomial.from_exponents(
            {v: e0 - e for (v, e0), e in zip(z.powers, pick)}
        )
        out.append((1, left, right))
    return out
