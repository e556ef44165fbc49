import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    polygon_boundary,
    simplex_boundary,
)

from oracles import random_complexes

# Every property test draws the same examples on every run, keeps no example
# database and has no per-example deadline; each test sets its own max_examples.
settings.register_profile("combitop", derandomize=True, database=None, deadline=None)
settings.load_profile("combitop")


@pytest.fixture(scope="session")
def named_complexes() -> dict[str, SimplicialComplex]:
    return {
        "point": full_simplex(1),
        "two-points": discrete_complex(2),
        "three-points": discrete_complex(3),
        "edge": full_simplex(2),
        "triangle": full_simplex(3),
        "boundary-3": simplex_boundary(3),
        "boundary-4": simplex_boundary(4),
        "square": polygon_boundary(4),
        "pentagon": polygon_boundary(5),
        "path": SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [3, 4]]),
        "square-with-diagonal": SimplicialComplex.from_maximal_faces(
            4, [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]]
        ),
    }


@pytest.fixture(scope="session")
def test_complexes(named_complexes) -> list[SimplicialComplex]:
    """The roster used by the invariant sweeps: named examples plus seeded randoms."""
    return list(named_complexes.values()) + random_complexes(10, 6, seed=20260810)
