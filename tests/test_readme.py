"""The README's library quick tour runs and gives the results its comments state."""

import contextlib
import io
import re
from pathlib import Path

import combitop as ct
from combitop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ns: dict = {}
    exec(block, ns)
    K, w = ns["K"], ns["w"]
    assert K.missing_faces() == [(1, 2, 3)]
    assert not K.is_flag()
    assert K.flagify() == ct.full_simplex(3)
    assert ct.normal_form(w).letters == ((2, 1),)
    assert ct.wordlength(w) == 1


def test_readme_cli_help():
    (block,) = re.findall(r"\$ combitop --help\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--help"]) == 0
    assert out.getvalue() == block
