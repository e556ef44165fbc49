"""The package's immutable value classes, and what importing the CLI costs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from combitop import (
    Arrangement,
    CommutationGraph,
    ConnectivityReport,
    CubicalCell,
    GroupWord,
    HilbertSeries,
    HomologyGroup,
    Monomial,
    SimplicialComplex,
)

SRC = Path(__file__).resolve().parents[1] / "src"
EDGE = CommutationGraph(2, (0, 2, 1))

# class, keyword arguments of one valid instance, the fields that have defaults
VALUES = [
    (SimplicialComplex, {"m": 2, "face_masks": frozenset({0, 1, 2, 3})}, {}),
    (ConnectivityReport, {"c": 2, "c_prime": 2, "flag": False}, {}),
    (CubicalCell, {"lower": 1, "upper": 3}, {}),
    (Arrangement, {"field": "R", "generators": ((1, 2),)}, {}),
    (CommutationGraph, {"m": 2, "adjacency": (0, 2, 1)}, {}),
    (GroupWord, {"kind": "artin", "graph": EDGE, "letters": ((1, 1), (2, -1))}, {}),
    (HomologyGroup, {"betti": 1, "torsion": (2,)}, {"torsion": ()}),
    (Monomial, {"powers": ((1, 2), (3, 1))}, {}),
    (HilbertSeries, {"numerator": (1, 3), "denominator_power": 2, "step": 1}, {}),
]

# keyword arguments that each class's __init__ check rejects
INVALID = [
    (SimplicialComplex, {"m": 2, "face_masks": frozenset({0, 1})}),
    (CubicalCell, {"lower": 2, "upper": 1}),
    (CommutationGraph, {"m": 2, "adjacency": (0, 2, 0)}),
    (HomologyGroup, {"betti": -1}),
    (Monomial, {"powers": ((2, 1), (1, 1))}),
]

OWN_REPR = (SimplicialComplex, CubicalCell)


def _ids(params):
    return [p[0].__name__ for p in params]


@pytest.mark.parametrize("cls, kwargs, defaults", VALUES, ids=_ids(VALUES))
def test_value_class(cls, kwargs, defaults):
    obj = cls(**kwargs)
    fields = tuple(kwargs.values())
    assert tuple(getattr(obj, name) for name in kwargs) == fields
    # keyword and positional construction agree; equal fields, equal values
    twin = cls(*fields)
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin)
    # the hash of a dataclass: set iteration orders stay as they were
    assert hash(obj) == hash(fields)
    assert {obj: 1}[twin] == 1

    # a different class with the same field values is never equal
    other = type(cls.__name__, (cls,), {})(**kwargs)
    assert obj != other and other != obj
    assert obj != fields

    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in kwargs) == fields

    for name, value in defaults.items():
        rest = {k: v for k, v in kwargs.items() if k != name}
        assert getattr(cls(**rest), name) == value
    for name in kwargs.keys() - defaults.keys():
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})

    if cls not in OWN_REPR:
        shown = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
        assert repr(obj) == f"{cls.__name__}({shown})"
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("cls, kwargs", INVALID, ids=_ids(INVALID))
def test_value_class_checks_fields(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_cli_import_skips_dataclasses_and_inspect():
    # under -S, since the site hooks of some interpreters (Python 3.13) import inspect
    code = (
        "import combitop.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
