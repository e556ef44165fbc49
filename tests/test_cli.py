import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combitop import cli, facecat, simplicial, sralg
from combitop._bits import vertices_of
from combitop.cli import emit_complex, main, parse_complex
from combitop.facecat import cubical_model
from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    simplex_boundary,
)

from oracles import (
    argparse_parse,
    brute_maximal_faces,
    list_copy_sr_basis_output,
    small_complexes,
)

BOUNDARY3 = {"vertices": 3, "maximal_faces": [[1, 2], [1, 3], [2, 3]]}
SQUARE = {"vertices": 4, "maximal_faces": [[1, 2], [2, 3], [3, 4], [1, 4]]}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="complex.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(write_doc, capsys):
    code, out, _ = run(capsys, ["info", write_doc(BOUNDARY3)])
    assert code == 0
    assert "f-vector: (3, 3)" in out
    assert "flag: no" in out
    assert "missing faces: {1,2,3}" in out
    assert "c: 2" in out


def test_info_json(write_doc, capsys):
    code, out, _ = run(capsys, ["--json", "info", write_doc(BOUNDARY3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [3, 3]
    assert payload["flag"] is False
    assert payload["missing_faces"] == [[1, 2, 3]]
    assert payload["c"] == 2
    assert payload["d"]["circulation"] == 4


def test_info_infinite_values(write_doc, capsys):
    doc = {"vertices": 2, "maximal_faces": [[1, 2]]}
    code, out, _ = run(capsys, ["--json", "info", write_doc(doc)])
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "inf" and payload["c_prime"] == "inf"


def test_info_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SQUARE)))
    code, out, _ = run(capsys, ["info"])
    assert code == 0
    assert "flag: yes" in out


def test_flagify_round_trip(write_doc, capsys, tmp_path):
    code, out, _ = run(capsys, ["flagify", write_doc(BOUNDARY3)])
    assert code == 0
    doc = json.loads(out)
    K = SimplicialComplex.from_maximal_faces(doc["vertices"], doc["maximal_faces"])
    assert K == simplex_boundary(3).flagify()


def test_flagify_fixed_point_round_trip(write_doc, capsys):
    code, out, _ = run(capsys, ["flagify", write_doc(SQUARE)])
    doc = json.loads(out)
    assert doc["maximal_faces"] == [[1, 2], [1, 4], [2, 3], [3, 4]]
    K = SimplicialComplex.from_maximal_faces(doc["vertices"], doc["maximal_faces"])
    assert K == SimplicialComplex.from_maximal_faces(
        SQUARE["vertices"], SQUARE["maximal_faces"]
    )


def test_flagify_large_round_trip(write_doc, capsys):
    # 30 random 6-sets on 24 vertices; the flagification has 36,500 faces,
    # which an all-pairs facet scan took minutes to print
    rng = random.Random(10)
    K = SimplicialComplex.from_maximal_faces(24, [rng.sample(range(1, 25), 6) for _ in range(30)])
    code, out, _ = run(capsys, ["flagify", write_doc(emit_complex(K))])
    assert code == 0
    F, _ = parse_complex(write_doc(json.loads(out), "flag.json"))
    assert F == K.flagify()
    assert len(F.face_masks) == 36500


def check_maximal_faces(K):
    expect = brute_maximal_faces(K)
    assert {vertices_of(f) for f in K.maximal_face_masks()} == {tuple(f) for f in expect}
    assert emit_complex(K)["maximal_faces"] == expect


def test_maximal_faces_match_brute_force(test_complexes):
    for K in test_complexes + [discrete_complex(0), discrete_complex(4), full_simplex(5)]:
        check_maximal_faces(K)


@settings(max_examples=100)
@given(small_complexes(max_m=10))
def test_maximal_faces_match_brute_force_drawn(K):
    check_maximal_faces(K)


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["info", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_vertex_out_of_range_exit_2(write_doc, capsys):
    doc = {"vertices": 2, "maximal_faces": [[1, 3]]}
    code, _, err = run(capsys, ["info", write_doc(doc)])
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": True, "maximal_faces": []},
        {"vertices": 2, "maximal_faces": [[True, 2]]},
    ],
)
def test_boolean_in_complex_exit_2(write_doc, capsys, doc):
    code, out, err = run(capsys, ["info", write_doc(doc)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["info", "/nonexistent/path.json"])
    assert code == 2


NOT_UTF8 = b'{"vertices": 1, "maximal_faces": [], "name": "caf\xe9"}'
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "data, message",
    [(NOT_UTF8, "cannot read"), (TOO_DEEP, "invalid JSON")],
    ids=["not-utf-8", "nested-too-deep"],
)
def test_unreadable_document_exit_2(tmp_path, capsys, monkeypatch, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    for argv in (["info", str(path)], ["info"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message} ") and err.count("\n") == 1


def test_sr_hilbert(write_doc, capsys):
    code, out, _ = run(
        capsys, ["sr-hilbert", "--mode", "exterior", write_doc(BOUNDARY3)]
    )
    assert code == 0
    assert out.strip() == "series: 1 + 3*t + 3*t^2"

    code, out, _ = run(
        capsys,
        ["sr-hilbert", "--mode", "real", "--degree", "3", write_doc(BOUNDARY3)],
    )
    assert "coefficient of t^3: 9" in out


def test_sr_hilbert_json(write_doc, capsys):
    code, out, _ = run(
        capsys,
        ["--json", "sr-hilbert", "--mode", "real", "--degree", "2", write_doc(BOUNDARY3)],
    )
    payload = json.loads(out)
    assert payload["numerator"] == [1, 1, 1]
    assert payload["denominator_power"] == 2
    assert payload["coefficient"] == 6


def test_sr_basis(write_doc, capsys):
    code, out, _ = run(
        capsys,
        ["sr-basis", "--mode", "exterior", "--degree", "2", write_doc(BOUNDARY3)],
    )
    assert code == 0
    assert out.splitlines() == ["v1 v2", "v1 v3", "v2 v3", "count: 3"]


def run_on_stdin(argv, doc: dict) -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), contextlib.redirect_stdout(out):
        code = main([*argv, "-"])
    return code, out.getvalue()


@settings(max_examples=150)
@given(small_complexes(), st.sampled_from(["real", "complex", "exterior"]), st.integers(0, 5),
       st.booleans())
def test_sr_basis_matches_list_copy_rendering(K, mode, degree, as_json):
    argv = ["--json"] * as_json + ["sr-basis", "--mode", mode, "--degree", str(degree)]
    assert run_on_stdin(argv, emit_complex(K)) == (
        0, list_copy_sr_basis_output(K, mode, degree, as_json))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=200)
@given(JSON_VALUES, st.sampled_from([1, 2, 3, cli.WRITE_BATCH]))
@example({"q\"\\\n\t\x00é€😀": ["\u2028", ("a", None, True, -(10**30))], "": {}}, 1)
def test_streamed_json_matches_dumps(payload, batch):
    # a command whose payload is drawn, printed the way every --json payload is
    row = (lambda K, args: payload, None, "[PATH]", "")
    with mock.patch.dict(cli.COMMANDS, {"info": row}), mock.patch.object(cli, "WRITE_BATCH", batch):
        got = run_on_stdin(["info"], SQUARE)
    assert got == (0, json.dumps(payload, indent=2) + "\n")


@settings(max_examples=100)
@given(st.lists(st.text()), st.sampled_from([1, 2, 3, cli.WRITE_BATCH]))
@example([], 1)  # no line: only the final newline
@example(["", "é€😀", "", "\u2028x", ""], 1)
@example(["", "é€😀", "", "\u2028x", ""], 2)
@example(["a", "", "ü"] * 5, 3)
def test_streamed_text_matches_join(lines, batch):
    # a command whose text renderer yields drawn lines, printed the way every text payload is
    row = (lambda K, args: lines, iter, "[PATH]", "")
    with mock.patch.dict(cli.COMMANDS, {"info": row}), mock.patch.object(cli, "WRITE_BATCH", batch):
        got = run_on_stdin(["info"], SQUARE)
    assert got == (0, "\n".join(lines) + "\n")


def test_sr_basis_negative_degree_exit_2(write_doc, capsys):
    code, out, err = run(
        capsys, ["sr-basis", "--mode", "real", "--degree", "-1", write_doc(BOUNDARY3)]
    )
    assert (code, out, err) == (2, "", "error: --degree must be >= 0, got -1\n")


NINES = "9" * 2500  # a degree whose coefficient on the 2-simplex has about 5,000 digits


@pytest.mark.parametrize("command, code, message", [
    ("sr-hilbert", 2, "coefficient too large to print: {bits} bits"),
    ("sr-basis", 1, "monomial basis too large: a {bits}-bit number of monomials,"
                    " more than 1048576"),
])
def test_coefficient_past_the_int_to_str_limit(write_doc, capsys, command, code, message):
    # past the interpreter's int-to-str digit limit the coefficient cannot be printed;
    # it is refused before any output, by its size in bits
    bits = math.comb(int(NINES) + 2, 2).bit_length()
    path = write_doc({"vertices": 3, "maximal_faces": [[1, 2, 3]]})
    argv = [command, "--mode", "real", "--degree", NINES, path]
    for flag in ([], ["--json"]):
        assert run(capsys, flag + argv) == (code, "", f"error: {message.format(bits=bits)}\n")


def test_word_reduce(write_doc, capsys):
    code, out, _ = run(
        capsys,
        ["word-reduce", "--group", "artin", write_doc(SQUARE), "v1^1 v2^1 v1^-1"],
    )
    assert code == 0
    assert out.strip() == "v2^1"


def test_word_reduce_blocks_json(write_doc, capsys):
    code, out, _ = run(
        capsys,
        [
            "--json",
            "word-reduce",
            "--group",
            "artin",
            write_doc(SQUARE),
            "v2^1 v1^1 v3^1",
        ],
    )
    payload = json.loads(out)
    assert payload["word"] == "v1^1 v2^1 v3^1"
    assert payload["blocks"] == ["v1^1", "v2^1 v3^1"]
    assert payload["length"] == 3


@pytest.mark.parametrize("as_json", [False, True])
def test_word_reduce_normalises_once(write_doc, capsys, monkeypatch, as_json):
    from combitop import graphprod

    calls = {"_fully_reduce": 0, "_block_split": 0, "GroupWord": 0}
    for name in calls:
        real = getattr(graphprod, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(graphprod, name, counting)
    argv = ["word-reduce", "--group", "artin", write_doc(SQUARE), "v2^1 v1^1 v3^1 v2^-1 v4^2"]
    code, out, _ = run(capsys, ["--json", *argv] if as_json else argv)
    assert code == 0 and out
    # one GroupWord, the parsed word: no word is built per block to format it
    assert calls == {"_fully_reduce": 1, "_block_split": 1, "GroupWord": 1}


def test_word_reduce_identity(write_doc, capsys):
    code, out, _ = run(
        capsys, ["word-reduce", "--group", "coxeter", write_doc(SQUARE), "a1 a1"]
    )
    assert out.strip() == "e"


def test_word_equal(write_doc, capsys):
    path = write_doc(SQUARE)
    code, out, _ = run(
        capsys, ["word-equal", "--group", "artin", path, "v1^1 v3^1", "v3^1 v1^1"]
    )
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(
        capsys, ["word-equal", "--group", "artin", path, "v1^1 v2^1", "v2^1 v1^1"]
    )
    assert code == 0 and out.strip() == "true"


def test_word_parse_error_exit_2(write_doc, capsys):
    code, _, err = run(
        capsys, ["word-reduce", "--group", "artin", write_doc(SQUARE), "nonsense"]
    )
    assert code == 2


def test_word_zero_denominator_exit_2(write_doc, capsys):
    code, out, err = run(
        capsys, ["word-reduce", "--group", "circulation", write_doc(SQUARE), "t1@1/0"]
    )
    assert code == 2
    assert out == ""
    assert "error: zero denominator" in err and "Traceback" not in err


def test_circulation_word(write_doc, capsys):
    code, out, _ = run(
        capsys,
        ["word-reduce", "--group", "circulation", write_doc(SQUARE), "t1@1/4 t1@1/2"],
    )
    assert out.strip() == "t1@3/4"


def test_ma_homology(write_doc, capsys):
    code, out, _ = run(capsys, ["ma-homology", write_doc(BOUNDARY3)])
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = 0", "H_2 = Z"]


def test_ma_homology_json(write_doc, capsys):
    code, out, _ = run(capsys, ["--json", "ma-homology", write_doc(SQUARE)])
    payload = json.loads(out)
    assert payload == [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 2, "torsion": []},
        {"dim": 2, "betti": 1, "torsion": []},
    ]


def test_ma_homology_too_many_vertices_exit_1(write_doc, capsys):
    doc = {"vertices": 17, "maximal_faces": []}
    code, _, err = run(capsys, ["ma-homology", write_doc(doc)])
    assert code == 1


def run_capped(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh process under a 1 GiB address-space cap and a 60 s timeout.

    A CLI that builds an object too large for the input fails on the cap or the timeout.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # noqa: E731
    return subprocess.run(
        [sys.executable, "-m", "combitop.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )


def complete_graph(m: int) -> dict:
    """The document of the complete graph on m vertices, as a 1-dimensional complex."""
    edges = [[i, j] for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return {"vertices": m, "maximal_faces": edges}


def test_large_facet_refused_exit_1(write_doc):
    # 2^40 submasks: the estimate refuses the document before enumerating any
    doc = {"vertices": 64, "maximal_faces": [list(range(1, 41)), [63, 64]]}
    done = run_capped("info", write_doc(doc))
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and f"up to {1 + 64 + 2**40 + 2**2} faces" in line


def test_large_face_category_model_refused_exit_1(write_doc):
    # 2^19 faces pass the parse bound, and the model's 3^19 cells are counted, not built
    doc = {"vertices": 19, "maximal_faces": [list(range(1, 20))]}
    done = run_capped("bcat-cells", write_doc(doc))
    assert done.returncode == 0
    assert done.stderr == ""
    row = ", ".join(str(math.comb(19, k) << (19 - k)) for k in range(20))
    assert done.stdout.splitlines() == [
        f"cells by dimension: ({row})",
        f"total cells: {3**19}",
        "euler characteristic: 1",
    ]


def test_large_monomial_basis_refused_exit_1(write_doc):
    # 4,096 faces pass the parse bound, but degree 16 has C(27, 11) monomials
    doc = {"vertices": 12, "maximal_faces": [list(range(1, 13))]}
    done = run_capped("sr-basis", "--mode", "real", "--degree", "16", write_doc(doc))
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and f"{math.comb(27, 11)} monomials" in line


def test_monomial_basis_bound(write_doc, capsys, monkeypatch):
    path = write_doc(BOUNDARY3)  # degree 2, real: 3 squares + 3 edges = 6 monomials
    argv = ["sr-basis", "--mode", "real", "--degree", "2", path]
    monkeypatch.setattr(sralg, "MAX_BASIS_MONOMIALS", 6)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(sralg, "MAX_BASIS_MONOMIALS", 5)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: monomial basis too large: 6 monomials, more than 5\n"


def test_face_estimate_bound(write_doc, capsys, monkeypatch):
    path = write_doc(BOUNDARY3)  # estimate 1 + 3 + 3 * 2^2 = 16
    monkeypatch.setattr(simplicial, "MAX_FACE_ESTIMATE", 16)
    assert run(capsys, ["info", path])[0] == 0
    monkeypatch.setattr(simplicial, "MAX_FACE_ESTIMATE", 15)
    code, out, err = run(capsys, ["info", path])
    assert (code, out) == (1, "")
    assert err == "error: complex too large: its maximal faces span up to 16 faces, more than 15\n"


def test_bcat_cells(write_doc, capsys):
    code, out, _ = run(capsys, ["bcat-cells", write_doc(BOUNDARY3)])
    assert out.splitlines() == [
        "cells by dimension: (7, 9, 3)",
        "total cells: 19",
        "euler characteristic: 1",
    ]


@settings(max_examples=60)
@given(small_complexes())
def test_bcat_cells_match_cubical_model(K):
    model = cubical_model(K)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/doc.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(emit_complex(K), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--json", "bcat-cells", path]) == 0
    assert json.loads(out.getvalue()) == {
        "cells_by_dimension": list(model.cell_counts()),
        "total": model.cell_count(),
        "euler_characteristic": model.euler_characteristic(),
    }


def test_bcat_cells_builds_no_cell(write_doc, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("bcat-cells built a cubical cell")

    monkeypatch.setattr(facecat, "CubicalCell", refuse)
    monkeypatch.setattr(facecat, "cubical_model", refuse)
    code, out, _ = run(capsys, ["bcat-cells", write_doc(BOUNDARY3)])
    assert code == 0
    assert out.splitlines()[:2] == ["cells by dimension: (7, 9, 3)", "total cells: 19"]


def test_arrangement_command(write_doc, capsys):
    doc = {"vertices": 3, "maximal_faces": []}
    code, out, _ = run(capsys, ["arrangement", "--field", "C", write_doc(doc)])
    assert code == 0
    assert "{1,2} codim 4" in out
    code, out, _ = run(capsys, ["--json", "arrangement", "--field", "R", write_doc(doc)])
    payload = json.loads(out)
    assert payload["generators"] == [[1, 2], [1, 3], [2, 3]]
    assert payload["codimensions"] == [2, 2, 2]


def test_pair_connectivity_command(write_doc, capsys):
    kpath = write_doc(SQUARE, "k.json")
    lpath = write_doc({"vertices": 4, "maximal_faces": [[1, 2, 3, 4]]}, "l.json")
    code, out, _ = run(capsys, ["pair-connectivity", "--with", lpath, kpath])
    assert code == 0
    assert "c(K,L): 1" in out


@pytest.mark.parametrize("m", [40, 64])
def test_pair_connectivity_complete_graph(write_doc, m):
    # L adds a triangle, not an edge, so c(K,L) is K's c: the dimension of its missing triangles
    K = complete_graph(m)
    L = {**K, "maximal_faces": K["maximal_faces"] + [[1, 2, 3]]}
    done = run_capped("pair-connectivity", "--with", write_doc(L, "l.json"), write_doc(K, "k.json"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "c(K,L): 2"


def complete_multipartite_graph(parts: int, size: int) -> dict:
    """The document of the complete graph with ``parts`` parts of ``size`` vertices each."""
    m = parts * size
    edges = [[i, j] for i in range(1, m + 1) for j in range(i + 1, m + 1)
             if (i - 1) // size != (j - 1) // size]
    return {"vertices": m, "maximal_faces": edges}


@pytest.mark.parametrize("doc, first", [
    pytest.param(complete_graph(40), 40, id="40"),
    pytest.param(complete_graph(64), 64, id="64"),
    pytest.param(complete_multipartite_graph(21, 3), 21, id="3x21"),
])
def test_flagify_complete_graph_refused(write_doc, doc, first):
    # the first maximal clique found, of `first` vertices, already passes the estimate's bound
    path = write_doc(doc)
    start = time.perf_counter()
    done = run_capped("flagify", path)
    assert time.perf_counter() - start < 1
    assert done.returncode == 1
    assert done.stdout == ""
    estimate = 1 + doc["vertices"] + 2**first
    assert done.stderr == (
        "error: flag complex too large: its maximal cliques found so far span"
        f" up to {estimate} faces, more than {2**20}\n"
    )


@settings(max_examples=150)
@given(small_complexes(max_m=8), st.integers(1, 300))
def test_flagify_refused_exactly_when_its_document_is(K, bound):
    # the flag complex's own document, read under the same bound
    doc = emit_complex(K.flagify())
    with mock.patch.object(simplicial, "MAX_FACE_ESTIMATE", bound), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_on_stdin(["info"], doc)[0]
        try:
            K.flagify()
        except ValueError as exc:
            assert str(exc).startswith("flag complex too large: ")
            assert code == 1 and err.getvalue().startswith("error: complex too large: ")
        else:
            assert code == 0


@settings(max_examples=150)
@given(st.integers(0, 8), st.lists(st.lists(st.integers(1, 8)), max_size=4), st.integers(1, 600))
def test_document_refused_exactly_when_the_library_refuses(m, faces, bound):
    # redundant and repeated faces count in the estimate as they do in from_facet_masks
    faces = [[v for v in face if v <= m] for face in faces]
    with mock.patch.object(simplicial, "MAX_FACE_ESTIMATE", bound), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code, out = run_on_stdin(["info"], {"vertices": m, "maximal_faces": faces})
        try:
            SimplicialComplex.from_facet_masks(m, simplicial.facet_masks(m, faces))
        except ValueError as exc:
            assert (code, out) == (1, "") and err.getvalue() == f"error: {exc}\n"
        else:
            assert code == 0


def test_pair_connectivity_not_subcomplex_exit_1(write_doc, capsys):
    kpath = write_doc({"vertices": 3, "maximal_faces": [[1, 2, 3]]}, "k.json")
    lpath = write_doc(BOUNDARY3, "l.json")
    code, _, err = run(capsys, ["pair-connectivity", "--with", lpath, kpath])
    assert code == 1


def test_deterministic_output(write_doc, capsys):
    path = write_doc(BOUNDARY3)
    _, out1, _ = run(capsys, ["info", path])
    _, out2, _ = run(capsys, ["info", path])
    assert out1 == out2


def test_round_trip_parse_emit(test_complexes, capsys, tmp_path):
    for i, K in enumerate(test_complexes):
        doc = emit_complex(K)
        path = tmp_path / f"rt{i}.json"
        path.write_text(json.dumps(doc))
        K2, _ = parse_complex(str(path))
        assert K2 == K


# -- golden output: exact stdout, stderr and exit code -----------------

GOLDEN_DOCS = {
    "BOUNDARY3_NAMED": {"name": "boundary3", **BOUNDARY3},
    "SQUARE": SQUARE,
    "POINTS3": {"vertices": 3, "maximal_faces": [[1], [2], [3]]},
    "EDGE": {"vertices": 2, "maximal_faces": [[1, 2]]},
    "SIMPLEX3": {"vertices": 3, "maximal_faces": [[1, 2, 3]]},
    "SIMPLEX4": {"vertices": 4, "maximal_faces": [[1, 2, 3, 4]]},
    "GHOSTS17": {"vertices": 17, "maximal_faces": []},
    "FLOAT_VERTEX": {"vertices": 3, "maximal_faces": [[1, 2.0]]},
    "STRING_VERTEX": {"vertices": 3, "maximal_faces": [[1, "2"]]},
    "BOOL_VERTEX": {"vertices": 3, "maximal_faces": [[1, True]]},
    "FACE_NOT_A_LIST": {"vertices": 3, "maximal_faces": [[1, 2], 3]},
    "VERTICES_65": {"vertices": 65, "maximal_faces": []},
    "VERTICES_TRUE": {"vertices": True, "maximal_faces": []},
    # past the interpreter's int-to-str digit limit, which json.dumps would refuse to write
    "DIGITS_5000": '{"vertices": 1' + "0" * 4999 + ', "maximal_faces": []}',
}


def int_limit_text() -> str:
    """The interpreter's message for a 5,000-digit integer literal."""
    try:
        int("1" * 5000)
    except ValueError as exc:
        return str(exc)
    pytest.skip("this interpreter has no int-to-str digit limit")


def lines(*rows):
    return "".join(row + "\n" for row in rows)


def J(payload):
    return json.dumps(payload, indent=2) + "\n"


# argv (document names are files in GOLDEN_DOCS), text stdout, --json stdout
GOLDEN = [
    (
        ["info", "BOUNDARY3_NAMED"],
        lines(
            "name: boundary3", "vertices: 3", "dimension: 1", "f-vector: (3, 3)",
            "faces (including empty): 7", "flag: no", "missing faces: {1,2,3}", "c: 2", "c': 2",
            "d (coxeter/artin): 1", "d (circulation): 4", "d' (coxeter/artin): 1",
            "d' (circulation): 4",
        ),
        J({
            "name": "boundary3", "vertices": 3, "dimension": 1, "f_vector": [3, 3],
            "face_count": 7, "flag": False, "missing_faces": [[1, 2, 3]], "c": 2, "c_prime": 2,
            "d": {"coxeter": 1, "artin": 1, "circulation": 4},
            "d_prime": {"coxeter": 1, "artin": 1, "circulation": 4},
        }),
    ),
    (
        ["info", "SQUARE"],
        lines(
            "vertices: 4", "dimension: 1", "f-vector: (4, 4)", "faces (including empty): 9",
            "flag: yes", "missing faces: {1,3} {2,4}", "c: inf", "c': 1",
            "d (coxeter/artin): inf", "d (circulation): inf", "d' (coxeter/artin): 0",
            "d' (circulation): 2",
        ),
        J({
            "name": None, "vertices": 4, "dimension": 1, "f_vector": [4, 4], "face_count": 9,
            "flag": True, "missing_faces": [[1, 3], [2, 4]], "c": "inf", "c_prime": 1,
            "d": {"coxeter": "inf", "artin": "inf", "circulation": "inf"},
            "d_prime": {"coxeter": 0, "artin": 0, "circulation": 2},
        }),
    ),
    (
        ["info", "POINTS3"],
        lines(
            "vertices: 3", "dimension: 0", "f-vector: (3)", "faces (including empty): 4",
            "flag: yes", "missing faces: {1,2} {1,3} {2,3}", "c: inf", "c': 1",
            "d (coxeter/artin): inf", "d (circulation): inf", "d' (coxeter/artin): 0",
            "d' (circulation): 2",
        ),
        J({
            "name": None, "vertices": 3, "dimension": 0, "f_vector": [3], "face_count": 4,
            "flag": True, "missing_faces": [[1, 2], [1, 3], [2, 3]], "c": "inf", "c_prime": 1,
            "d": {"coxeter": "inf", "artin": "inf", "circulation": "inf"},
            "d_prime": {"coxeter": 0, "artin": 0, "circulation": 2},
        }),
    ),
    (
        ["info", "EDGE"],
        lines(
            "vertices: 2", "dimension: 1", "f-vector: (2, 1)", "faces (including empty): 4",
            "flag: yes", "missing faces: (none)", "c: inf", "c': inf", "d (coxeter/artin): inf",
            "d (circulation): inf", "d' (coxeter/artin): inf", "d' (circulation): inf",
        ),
        J({
            "name": None, "vertices": 2, "dimension": 1, "f_vector": [2, 1], "face_count": 4,
            "flag": True, "missing_faces": [], "c": "inf", "c_prime": "inf",
            "d": {"coxeter": "inf", "artin": "inf", "circulation": "inf"},
            "d_prime": {"coxeter": "inf", "artin": "inf", "circulation": "inf"},
        }),
    ),
    (
        ["flagify", "BOUNDARY3_NAMED"],
        J({"name": "boundary3", "vertices": 3, "maximal_faces": [[1, 2, 3]]}),
        J({"name": "boundary3", "vertices": 3, "maximal_faces": [[1, 2, 3]]}),
    ),
    (
        ["flagify", "POINTS3"],
        J({"vertices": 3, "maximal_faces": [[1], [2], [3]]}),
        J({"vertices": 3, "maximal_faces": [[1], [2], [3]]}),
    ),
    (
        ["sr-hilbert", "--mode", "exterior", "BOUNDARY3_NAMED"],
        lines("series: 1 + 3*t + 3*t^2"),
        J({"numerator": [1, 3, 3], "denominator_power": 0, "generator_degree": 1}),
    ),
    (
        ["sr-hilbert", "--mode", "real", "--degree", "3", "SQUARE"],
        lines("series: (1 + 2*t + t^2) / (1 - t)^2", "coefficient of t^3: 12"),
        J({
            "numerator": [1, 2, 1], "denominator_power": 2, "generator_degree": 1, "degree": 3,
            "coefficient": 12,
        }),
    ),
    (
        ["sr-hilbert", "--mode", "complex", "--degree", "4", "POINTS3"],
        lines("series: (1 + 2*t^2) / (1 - t^2)", "coefficient of t^4: 3"),
        J({
            "numerator": [1, 0, 2], "denominator_power": 1, "generator_degree": 2, "degree": 4,
            "coefficient": 3,
        }),
    ),
    (
        ["sr-hilbert", "--mode", "real", "--degree", "-3", "EDGE"],
        lines("series: (1) / (1 - t)^2", "coefficient of t^-3: 0"),
        J({
            "numerator": [1], "denominator_power": 2, "generator_degree": 1, "degree": -3,
            "coefficient": 0,
        }),
    ),
    (
        ["sr-basis", "--mode", "exterior", "--degree", "2", "BOUNDARY3_NAMED"],
        lines("v1 v2", "v1 v3", "v2 v3", "count: 3"),
        J([[[1, 1], [2, 1]], [[1, 1], [3, 1]], [[2, 1], [3, 1]]]),
    ),
    (
        ["sr-basis", "--mode", "real", "--degree", "3", "BOUNDARY3_NAMED"],
        lines(
            "v1^3", "v1^2 v2", "v1^2 v3", "v1 v2^2", "v1 v3^2", "v2^3", "v2^2 v3", "v2 v3^2",
            "v3^3", "count: 9",
        ),
        J([
            [[1, 3]], [[1, 2], [2, 1]], [[1, 2], [3, 1]], [[1, 1], [2, 2]], [[1, 1], [3, 2]],
            [[2, 3]], [[2, 2], [3, 1]], [[2, 1], [3, 2]], [[3, 3]],
        ]),
    ),
    (
        ["sr-basis", "--mode", "real", "--degree", "2", "SQUARE"],
        lines("v1^2", "v1 v2", "v1 v4", "v2^2", "v2 v3", "v3^2", "v3 v4", "v4^2", "count: 8"),
        J([
            [[1, 2]], [[1, 1], [2, 1]], [[1, 1], [4, 1]], [[2, 2]], [[2, 1], [3, 1]], [[3, 2]],
            [[3, 1], [4, 1]], [[4, 2]],
        ]),
    ),
    (
        ["sr-basis", "--mode", "complex", "--degree", "4", "EDGE"],
        lines("v1^2", "v1 v2", "v2^2", "count: 3"),
        J([[[1, 2]], [[1, 1], [2, 1]], [[2, 2]]]),
    ),
    (
        ["sr-basis", "--mode", "complex", "--degree", "0", "POINTS3"],
        lines("1", "count: 1"),
        J([[]]),
    ),
    (
        ["word-reduce", "--group", "artin", "SQUARE", "v2^1 v1^1 v3^1"],
        lines("v1^1 v2^1 v3^1"),
        J({"word": "v1^1 v2^1 v3^1", "length": 3, "blocks": ["v1^1", "v2^1 v3^1"]}),
    ),
    (
        ["word-reduce", "--group", "coxeter", "BOUNDARY3_NAMED", "a1 a2 a1"],
        lines("a2"),
        J({"word": "a2", "length": 1, "blocks": ["a2"]}),
    ),
    (
        ["word-reduce", "--group", "circulation", "POINTS3", "t1@1/4 t1@1/2 t2@1/3"],
        lines("t1@3/4 t2@1/3"),
        J({"word": "t1@3/4 t2@1/3", "length": 2, "blocks": ["t1@3/4", "t2@1/3"]}),
    ),
    # cancelling pairs inside, and a letter that blocks a merge: on SQUARE
    # 1 and 3 do not commute, and POINTS3 has no edges
    (
        ["word-reduce", "--group", "artin", "SQUARE", "v1^2 v3^1 v2^1 v4^-1 v4^1 v2^-1 v1^-2"],
        lines("v1^2 v3^1 v1^-2"),
        J({"word": "v1^2 v3^1 v1^-2", "length": 3, "blocks": ["v1^2", "v3^1", "v1^-2"]}),
    ),
    (
        ["word-reduce", "--group", "artin", "SQUARE", "v1^1 v3^-2 v2^1 v4^3 v4^-3 v2^-1 v3^2 v1^-1"],
        lines("e"),
        J({"word": "e", "length": 0, "blocks": []}),
    ),
    (
        ["word-reduce", "--group", "coxeter", "SQUARE", "a1 a3 a2 a4 a4 a2 a1"],
        lines("a1 a3 a1"),
        J({"word": "a1 a3 a1", "length": 3, "blocks": ["a1", "a3", "a1"]}),
    ),
    (
        ["word-reduce", "--group", "circulation", "POINTS3", "t1@1/4 t2@1/3 t3@1/2 t3@1/2 t1@1/2"],
        lines("t1@1/4 t2@1/3 t1@1/2"),
        J({"word": "t1@1/4 t2@1/3 t1@1/2", "length": 3, "blocks": ["t1@1/4", "t2@1/3", "t1@1/2"]}),
    ),
    (
        ["word-equal", "--group", "artin", "SQUARE", "v1^1 v3^1", "v3^1 v1^1"],
        lines("false"),
        J({"equal": False}),
    ),
    (
        ["word-equal", "--group", "coxeter", "EDGE", "a1 a2", "a2 a1"],
        lines("true"),
        J({"equal": True}),
    ),
    (
        ["ma-homology", "BOUNDARY3_NAMED"],
        lines("H_0 = Z", "H_1 = 0", "H_2 = Z"),
        J([
            {"dim": 0, "betti": 1, "torsion": []}, {"dim": 1, "betti": 0, "torsion": []},
            {"dim": 2, "betti": 1, "torsion": []},
        ]),
    ),
    (
        ["ma-homology", "SQUARE"],
        lines("H_0 = Z", "H_1 = Z^2", "H_2 = Z"),
        J([
            {"dim": 0, "betti": 1, "torsion": []}, {"dim": 1, "betti": 2, "torsion": []},
            {"dim": 2, "betti": 1, "torsion": []},
        ]),
    ),
    (
        ["ma-homology", "--mod2", "POINTS3"],
        lines("H_0 = Z", "H_1 = Z^5"),
        J([{"dim": 0, "betti": 1, "torsion": []}, {"dim": 1, "betti": 5, "torsion": []}]),
    ),
    (
        ["ma-homology", "EDGE"],
        lines("H_0 = Z", "H_1 = 0", "H_2 = 0"),
        J([
            {"dim": 0, "betti": 1, "torsion": []}, {"dim": 1, "betti": 0, "torsion": []},
            {"dim": 2, "betti": 0, "torsion": []},
        ]),
    ),
    (
        ["bcat-cells", "BOUNDARY3_NAMED"],
        lines("cells by dimension: (7, 9, 3)", "total cells: 19", "euler characteristic: 1"),
        J({"cells_by_dimension": [7, 9, 3], "total": 19, "euler_characteristic": 1}),
    ),
    (
        ["bcat-cells", "POINTS3"],
        lines("cells by dimension: (4, 3)", "total cells: 7", "euler characteristic: 1"),
        J({"cells_by_dimension": [4, 3], "total": 7, "euler_characteristic": 1}),
    ),
    (
        ["bcat-cells", "EDGE"],
        lines("cells by dimension: (4, 4, 1)", "total cells: 9", "euler characteristic: 1"),
        J({"cells_by_dimension": [4, 4, 1], "total": 9, "euler_characteristic": 1}),
    ),
    (
        ["arrangement", "--field", "C", "POINTS3"],
        lines(
            "field: C", "generators (zero sets, with real codimension):", "  {1,2} codim 4",
            "  {1,3} codim 4", "  {2,3} codim 4",
        ),
        J({"field": "C", "generators": [[1, 2], [1, 3], [2, 3]], "codimensions": [4, 4, 4]}),
    ),
    (
        ["arrangement", "--field", "R", "SQUARE"],
        lines(
            "field: R", "generators (zero sets, with real codimension):", "  {1,3} codim 2",
            "  {2,4} codim 2",
        ),
        J({"field": "R", "generators": [[1, 3], [2, 4]], "codimensions": [2, 2]}),
    ),
    (
        ["arrangement", "--field", "E", "EDGE"],
        lines("field: E", "generators: (none; the arrangement is empty)"),
        J({"field": "E", "generators": [], "codimensions": []}),
    ),
    (
        ["pair-connectivity", "--with", "SIMPLEX4", "SQUARE"],
        lines("c(K,L): 1", "d(K,L) (coxeter/artin): 0", "d(K,L) (circulation): 2"),
        J({"c": 1, "d": {"coxeter": 0, "artin": 0, "circulation": 2}}),
    ),
    (
        ["pair-connectivity", "--with", "SIMPLEX3", "BOUNDARY3_NAMED"],
        lines("c(K,L): 2", "d(K,L) (coxeter/artin): 1", "d(K,L) (circulation): 4"),
        J({"c": 2, "d": {"coxeter": 1, "artin": 1, "circulation": 4}}),
    ),
    (
        ["pair-connectivity", "--with", "EDGE", "EDGE"],
        lines("c(K,L): inf", "d(K,L) (coxeter/artin): inf", "d(K,L) (circulation): inf"),
        J({"c": "inf", "d": {"coxeter": "inf", "artin": "inf", "circulation": "inf"}}),
    ),
]

# argv, exit code, stderr; stdout is empty, with or without --json
GOLDEN_ERRORS = [
    (
        ["ma-homology", "GHOSTS17"],
        1,
        "error: moment-angle model limited to 16 vertices, got 17\n",
    ),
    (
        ["pair-connectivity", "--with", "SIMPLEX3", "SQUARE"],
        1,
        "error: complexes must share a vertex set\n",
    ),
    (["info", "FLOAT_VERTEX"], 2, "error: vertex 2.0 is not an integer\n"),
    (["info", "STRING_VERTEX"], 2, "error: vertex '2' is not an integer\n"),
    (["info", "BOOL_VERTEX"], 2, "error: vertex True is not an integer\n"),
    (["info", "FACE_NOT_A_LIST"], 2, "error: 'maximal_faces' must be a list of lists\n"),
    (["info", "VERTICES_65"], 2, "error: vertex count must be in 0..64, got 65\n"),
    (["info", "VERTICES_TRUE"], 2, "error: vertex count True is not an integer\n"),
    (["info", "DIGITS_5000"], 2, "error: invalid JSON in DIGITS_5000: {int_limit}\n"),
    # letters whose merged value passes the int-to-str digit limit: 1/(10^3001 + 7) +
    # 1/(10^3001 + 9) has a denominator of about 6,000 digits, 2(10^4300 - 1) 4,301 digits
    (["word-reduce", "--group", "circulation", "EDGE", f"t1@1/1{'0' * 3000}7 t1@1/1{'0' * 3000}9"],
     2, "error: letter too large to print: 19939 bits\n"),
    (["word-reduce", "--group", "artin", "EDGE", f"v1^{'9' * 4300} v1^{'9' * 4300}"], 2,
     "error: letter too large to print: 14286 bits\n"),
    # a number past the int-to-str digit limit in a letter, refused as it is read
    (["word-reduce", "--group", "artin", "EDGE", f"v1^{'9' * 5000}"], 2,
     "error: letter too large to read: 5000 digits\n"),
    (["word-reduce", "--group", "circulation", "EDGE", f"t1@1/{'9' * 5000}"], 2,
     "error: letter too large to read: 5000 digits\n"),
]


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, doc in GOLDEN_DOCS.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, text, as_json", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(golden_dir, capsys, argv, text, as_json):
    assert run(capsys, argv) == (0, text, "")
    assert run(capsys, ["--json", *argv]) == (0, as_json, "")


@pytest.mark.parametrize(
    "argv, code, err", GOLDEN_ERRORS,
    ids=[" ".join(a if len(a) < 40 else f"<{len(a)} chars>" for a in g[0]) for g in GOLDEN_ERRORS],
)
def test_golden_errors(golden_dir, capsys, argv, code, err):
    if "{int_limit}" in err or "too large to read" in err:  # both need the digit limit
        err = err.format(int_limit=int_limit_text())
    assert run(capsys, argv) == (code, "", err)
    assert run(capsys, ["--json", *argv]) == (code, "", err)


# -- fuzz: every document, degree and word ends with exit 0, 1 or 2 -----

SCALARS = st.one_of(
    st.integers(-2, 9), st.booleans(), st.floats(), st.text(max_size=3), st.none()
)
FACE_ENTRIES = st.one_of(SCALARS, st.lists(st.integers(-1, 9), max_size=2))


@st.composite
def documents(draw):
    """Complex documents, most of them valid, the rest malformed in one field or both."""
    m = draw(st.integers(-2, 8) if draw(st.integers(0, 3)) else SCALARS)
    top = m if type(m) is int and m > 0 else 3
    valid = st.lists(st.lists(st.integers(1, top), min_size=1, max_size=5), max_size=5)
    malformed = st.one_of(
        st.lists(st.one_of(st.lists(FACE_ENTRIES, max_size=5), FACE_ENTRIES), max_size=5),
        SCALARS,
    )
    faces = draw(valid if draw(st.integers(0, 3)) else malformed)
    return {"vertices": m, "maximal_faces": faces}


FRAGMENTS = ["v1^1", "v2^-1", "v9^1", "a1", "a3", "t1@1/2", "t2@1/0", "e", "v", "^", "@1/", "-v1"]
WORDS = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(st.sampled_from(FRAGMENTS), max_size=4),
    st.sampled_from([" ", ""]),
)


def exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code


@settings(max_examples=100)
@given(
    documents(),
    documents(),
    st.integers(-2, 4),
    WORDS,
    WORDS,
    st.sampled_from(["real", "complex", "exterior"]),
    st.sampled_from(["coxeter", "artin", "circulation"]),
    st.sampled_from(["R", "C", "E"]),
)
def test_fuzz_exit_codes(doc, other, degree, word1, word2, mode, group, field):
    with tempfile.TemporaryDirectory() as d:
        path, other_path = f"{d}/doc.json", f"{d}/other.json"
        for name, payload in ((path, doc), (other_path, other)):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        commands = [
            ["info", path],
            ["flagify", path],
            ["sr-hilbert", "--mode", mode, "--degree", str(degree), path],
            ["sr-basis", "--mode", mode, "--degree", str(degree), path],
            ["word-reduce", "--group", group, path, word1],
            ["word-equal", "--group", group, path, word1, word2],
            ["ma-homology", path],
            ["ma-homology", "--mod2", path],
            ["bcat-cells", path],
            ["arrangement", "--field", field, path],
            ["pair-connectivity", "--with", other_path, path],
        ]
        for argv in commands:
            for flag in ([], ["--json"]):
                assert exit_code(flag + argv) in (0, 1, 2), flag + argv


# -- the command table's parser against the argparse parser it replaced ---


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sr-hilbert", "--mode", "real", "--degree=--"], "argument --degree: invalid int value: '--'"),
        (["sr-hilbert", "--mode=--"], "argument --mode: invalid choice: '--'"),
        (["word-reduce", "--group", "artin", "DOC", "--", "--"], "bad artin letter '--'"),
    ],
)
def test_dashes_as_a_value(write_doc, capsys, argv, err):
    # argparse dropped a value that is itself "--" and handed the command an
    # empty list, on which the first and third lines raised
    argv = [write_doc(SQUARE) if token == "DOC" else token for token in argv]
    code, out, stderr = run(capsys, argv)
    assert (code, out) == (2, "") and err in stderr

OPTION_VALUES = {
    "--json": [], "--help": [], "--mod2": [],
    "--mode": ["real", "complex", "exterior", "bogus"], "--degree": ["0", "2", "-1", "x", "-1.5"],
    "--group": ["coxeter", "artin", "circulation", "Artin"], "--field": ["R", "C", "E", "Q"],
    "--with": ["DOC", "OTHER"],
}
OPTION_NAMES = [flag[:n] for flag in OPTION_VALUES for n in range(3, len(flag) + 1)]
VALUES = sorted({v for values in OPTION_VALUES.values() for v in values})
PATHS = {"DOC": SQUARE, "OTHER": {"vertices": 4, "maximal_faces": [[1, 2], [3, 4]]}, "BAD": "{"}
TOKENS = st.one_of(
    st.sampled_from([*cli.COMMANDS, "nope", *OPTION_NAMES, *VALUES, *PATHS, "MISSING"]),
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.sampled_from(VALUES + [""])),
    st.sampled_from(["-", "--", "-h", "--json", "-5"]),
    WORDS,
)


OPTIONS = {"sr-hilbert": ["--mode", "--degree"], "sr-basis": ["--mode", "--degree"],
           "word-reduce": ["--group"], "word-equal": ["--group"], "ma-homology": ["--mod2"],
           "arrangement": ["--field"], "pair-connectivity": ["--with"]}


@st.composite
def command_lines(draw):
    """Argument lists over TOKENS: a subcommand with its options, in any order and
    spelling, and operands, give or take a token or a last "--"; or tokens at random."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(TOKENS, max_size=8))
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    words = draw(st.lists(WORDS, min_size=2, max_size=2))
    argv = ["DOC", *words[: {"word-reduce": 1, "word-equal": 2}.get(name, 0)]]
    argv = [] if name not in OPTIONS and draw(st.booleans()) else argv
    for flag in OPTIONS.get(name, []):
        spelt = flag[: draw(st.integers(3, len(flag)))]
        values = OPTION_VALUES[flag]
        value = draw(st.sampled_from(values) if draw(st.integers(0, 5)) else TOKENS) if values else None
        spellings = [[spelt, value], [f"{spelt}={value}"]]
        option = draw(st.sampled_from(spellings)) if values else [spelt]
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = option
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv)))
        argv.insert(at, draw(TOKENS))
    argv += ["--"] * (draw(st.integers(0, 3)) == 0)
    return draw(st.sampled_from([[], ["--json"]])) + [name] + argv


def run_main(argv, directory) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main``, the document names in ``argv`` as paths."""
    argv = [f"{directory}/{token}" if token in PATHS or token == "MISSING" else token
            for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(json.dumps(SQUARE))):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600)
@given(command_lines())
@example(["sr-hilbert", "DOC", "--mode", "real", "--"])  # no operand takes this "--"
@example(["sr-hilbert", "--mode", "real", "DOC", "--"])  # the path takes it
@example(["word-reduce", "--group", "artin", "DOC", "--", "-v1"])
@example(["info", "-v1", "-h"])  # an unknown option is an error only at the end
@example(["pair-connectivity", "--with", "-h", "DOC"])  # an option is no value
@example(["--json", "sr-hilbert", "--mo=real", "--deg", "-1", "--mode", "complex", "DOC"])
@example(["info", "--json", "DOC"])
@example(["-h", "--=x"])  # ambiguous before anything else
def test_parser_matches_argparse(argv):
    with tempfile.TemporaryDirectory() as d:
        for name, doc in PATHS.items():
            Path(d, name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_main(argv, d)
        with mock.patch.object(cli, "_parse", argparse_parse):
            want_code, want_out, want_err = run_main(argv, d)
    if want_out.startswith("usage:"):  # help: each parser prints its own
        assert code == 0 and out.startswith("usage: combitop")
        assert {n for n in cli.COMMANDS if n in want_out} <= {n for n in cli.COMMANDS if n in out}
        return
    assert (code, out) == (want_code, want_out)
    # a bad command line, and only that, prints a usage line
    assert ("usage:" in err) == ("usage:" in want_err)
