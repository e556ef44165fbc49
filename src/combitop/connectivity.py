"""Connectivity invariants read off from the missing faces of a complex.

``c`` is the minimal dimension of a missing face with at least three
vertices (infinite exactly when the complex is flag); ``c_prime`` drops the
size restriction (infinite exactly for a full simplex).  Each bound yields
a derived degree per group kind: one less for coxeter/artin, doubled for
circulation.  Infinity is represented by ``math.inf``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._bits import Value, setfield
from .simplicial import SimplicialComplex


def derived_degrees(c) -> dict[str, object]:
    """Degree bound per group kind from a minimal missing-face dimension."""
    return {"coxeter": c - 1, "artin": c - 1, "circulation": 2 * c}


class ConnectivityReport(Value):
    __slots__ = ("c", "c_prime", "flag")

    def __init__(self, c: object, c_prime: object, flag: bool) -> None:
        setfield(self, "c", c)
        setfield(self, "c_prime", c_prime)
        setfield(self, "flag", flag)

    @property
    def d(self) -> dict[str, object]:
        return derived_degrees(self.c)

    @property
    def d_prime(self) -> dict[str, object]:
        return derived_degrees(self.c_prime)


def connectivity_report(
    K: SimplicialComplex, missing_faces: Sequence[tuple[int, ...]] | None = None
) -> ConnectivityReport:
    """The report of K; ``missing_faces`` may pass ``K.missing_faces()`` if already computed."""
    if missing_faces is None:
        missing_faces = K.missing_faces()
    dims = [len(w) - 1 for w in missing_faces]
    c = min((d for d in dims if d >= 2), default=math.inf)
    c_prime = min(dims, default=math.inf)
    return ConnectivityReport(c=c, c_prime=c_prime, flag=c == math.inf)


def pair_connectivity(K: SimplicialComplex, L: SimplicialComplex):
    """(c, derived degrees) for a subcomplex pair K <= L on the same vertices."""
    if K.m != L.m:
        raise ValueError("complexes must share a vertex set")
    if not K.face_masks <= L.face_masks:
        raise ValueError("first complex must be a subcomplex of the second")
    # L lies in flag(K), the clique complex of K's 1-skeleton, exactly when it adds no edge
    c = connectivity_report(K).c if L.adjacency_masks() == K.adjacency_masks() else 1
    return c, derived_degrees(c)
