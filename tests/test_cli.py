import io
import json
import random

import pytest
from hypothesis import given, settings

from combitop._bits import vertices_of
from combitop.cli import emit_complex, main, parse_complex
from combitop.simplicial import (
    SimplicialComplex,
    discrete_complex,
    full_simplex,
    simplex_boundary,
)

from oracles import brute_maximal_faces, small_complexes

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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
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


def test_bcat_cells(write_doc, capsys):
    code, out, _ = run(capsys, ["bcat-cells", write_doc(BOUNDARY3)])
    assert out.splitlines() == [
        "cells by dimension: (7, 9, 3)",
        "total cells: 19",
        "euler characteristic: 1",
    ]


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
