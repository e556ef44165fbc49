"""Bitmask helpers for vertex subsets.

Vertex j (1-indexed) corresponds to bit j-1.  All face/subset manipulation
in the package goes through masks for exactness and speed.  ``Value`` is the
base of the package's immutable value classes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_vertices(mask))


def iter_vertices(mask: int) -> Iterator[int]:
    """Yield the vertices of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# Hand-written instead of @dataclass(frozen=True): importing dataclasses (and
# with it inspect) costs about 20 ms per CLI process.
class Value:
    """Immutable value over ``__slots__``: field-wise ``==``, ``hash`` and ``repr``.

    A subclass lists its fields in ``__slots__`` and writes its own
    ``__init__``, which validates the arguments and stores each one with
    ``setfield``.  Instances of different classes are never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        # the fields as a tuple, as dataclasses hash and compare them
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


#: Stores a field of a ``Value`` from its ``__init__``, past ``__setattr__``.
setfield = object.__setattr__
