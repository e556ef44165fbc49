"""The package namespace: lazy public names, and the modules each CLI command loads."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import combitop
from combitop import cli
from combitop.arrangement import FIELDS
from combitop.graphprod import KINDS

SRC = Path(__file__).resolve().parents[1] / "src"
SQUARE = {"vertices": 4, "maximal_faces": [[1, 2], [2, 3], [3, 4], [1, 4]]}

PUBLIC = [
    "Arrangement", "ChainComplex", "CommutationGraph", "ConnectivityReport", "CubicalCell",
    "CubicalComplex", "GradingMode", "GroupWord", "HilbertSeries", "HomologyGroup", "Monomial",
    "SimplicialComplex", "abelianize", "arrangement", "cartier_foata_blocks", "chain_count",
    "connectivity_report", "coproduct", "cubical_model", "discrete_complex", "equal",
    "face_subcomplex", "full_simplex", "hilbert_series", "in_commutator_subgroup",
    "is_abelian_restriction", "moment_angle_homology", "monomial_basis", "multiply",
    "normal_form", "object_count", "orbit_counts", "pair_connectivity", "polygon_boundary",
    "real_moment_angle", "simplex_boundary", "smith_normal_form", "word", "wordlength",
]

# modules that none of these commands needs (fractions brings decimal)
UNUSED = {"fractions", "decimal", "combitop.graphprod", "combitop.sralg"}


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with the package on the path; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(argv: list[str]) -> set[str]:
    """The modules in ``sys.modules`` after ``main(argv)`` in a fresh interpreter."""
    code = (
        "import contextlib, io, json, sys\n"
        "from combitop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(run_python(code)))


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["info"], set()),
        (["ma-homology"], set()),
        (["--json", "ma-homology", "--mod2"], set()),
        (["sr-hilbert", "--mode", "real"], {"combitop.sralg"}),
    ],
    ids=["info", "ma-homology", "ma-homology-mod2-json", "sr-hilbert"],
)
def test_command_loads_only_its_modules(square, argv, needed):
    loaded = loaded_after(argv + [square])
    assert needed <= loaded
    assert not (UNUSED - needed) & loaded


def test_word_command_loads_graphprod(square):
    # the probe sees a module that a command does import
    loaded = loaded_after(["word-reduce", "--group", "circulation", square, "t1@1/2"])
    assert "combitop.graphprod" in loaded


def imported_by_process(argv: list[str]) -> set[str]:
    """The modules that ``python -m combitop.cli argv`` imports, read from -X importtime."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "combitop.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


@pytest.mark.parametrize(
    "argv",
    [["info"], ["word-reduce", "--group", "coxeter", "a1 a3 a1"],
     ["word-reduce", "--group", "artin", "v1^2 v3^-1 v1^-1"],
     ["word-reduce", "--group", "circulation", "t1@2/4 t3@-1/6 t1@1/4"],
     ["word-equal", "--group", "circulation", "t1@1/2 t2@1/3", "t2@2/6 t1@3/6"]],
    ids=["info", "word-reduce-coxeter", "word-reduce-artin", "word-reduce-circulation",
         "word-equal-circulation"],
)
def test_cli_process_skips_argparse_and_fractions(square, argv):
    # the command line is parsed without argparse (which brings gettext and
    # locale), and word letters, circulation angles too, are ints: no fractions
    # (which brings decimal)
    loaded = imported_by_process(argv[:3] + [square] + argv[3:])
    assert "combitop.simplicial" in loaded
    assert not {"argparse", "gettext", "locale", "fractions", "decimal"} & loaded


def test_star_import_is_all():
    assert combitop.__all__ == PUBLIC
    names: dict = {}
    exec("from combitop import *", names)
    names.pop("__builtins__")
    assert sorted(names) == PUBLIC
    assert all(getattr(combitop, name) is names[name] for name in PUBLIC)
    assert set(PUBLIC) <= set(dir(combitop))
    with pytest.raises(AttributeError):
        combitop.no_such_name


@pytest.mark.parametrize(
    "code",
    [
        "import combitop.arrangement, combitop",
        "import combitop.arrangement, combitop.macomplex, combitop",
        "from combitop import arrangement; import combitop.arrangement, combitop",
        "import combitop, combitop.arrangement; combitop.Arrangement",
    ],
)
def test_arrangement_stays_the_function(code):
    assert run_python(f"{code}\nprint(type(combitop.arrangement).__name__)") == "function\n"


def test_arrangement_stays_the_function_after_cli(square):
    code = (
        "import contextlib, io\n"
        "from combitop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['arrangement', '--field', 'R', {square!r}]) == 0\n"
        "import combitop.arrangement, combitop\n"
        "print(type(combitop.arrangement).__name__)\n"
    )
    assert run_python(code) == "function\n"
    assert isinstance(combitop.arrangement, types.FunctionType)


def test_cli_choices_match_the_library():
    def choices(command: str, option: str) -> list[str]:
        options, _, _ = cli._grammar(cli.COMMANDS[command][2])
        return list(options[option])

    assert choices("word-reduce", "--group") == choices("word-equal", "--group") == list(KINDS)
    assert choices("arrangement", "--field") == list(FIELDS)


def test_cli_modes_match_the_library():
    from combitop.sralg import GradingMode

    for command in ("sr-hilbert", "sr-basis"):
        options, _, _ = cli._grammar(cli.COMMANDS[command][2])
        assert list(options["--mode"]) == [mode.value for mode in GradingMode]
