"""Command-line front end.

Complexes are read from JSON documents: {"vertices": m, "maximal_faces":
[[...], ...], "name": "..."} with 1-indexed vertices.  Each subcommand
returns a JSON-ready payload and prints nothing; ``main`` alone renders it,
as JSON under --json (``flagify`` always prints a complex document) and
through the subcommand's text renderer otherwise, and maps errors to exit
codes: 0 on success, 1 for domain errors (a library ValueError), 2 for
input errors.  All output is deterministically ordered.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import connectivity as conn
from . import facecat, graphprod, macomplex, sralg
from ._bits import vertices_of
from .arrangement import FIELDS as ARRANGEMENT_FIELDS
from .arrangement import arrangement as build_arrangement
from .homology import HomologyGroup
from .simplicial import MAX_VERTICES, SimplicialComplex


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(2, f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(2, "complex document must be a JSON object")
    return doc


def parse_complex(path: str) -> tuple[SimplicialComplex, str | None]:
    doc = _read_document(path)
    try:
        m = doc["vertices"]
        maximal = doc["maximal_faces"]
    except KeyError as exc:
        raise CliError(2, f"missing key {exc} in complex document") from exc
    name = doc.get("name")
    # bool is a subclass of int, but true and false are not vertex labels
    if isinstance(m, bool) or not isinstance(m, int) or not isinstance(maximal, list):
        raise CliError(2, "'vertices' must be an integer and 'maximal_faces' a list")
    if any(isinstance(v, bool) for face in maximal if isinstance(face, list) for v in face):
        raise CliError(2, "vertices in 'maximal_faces' must be integers, not booleans")
    if m > MAX_VERTICES:
        raise CliError(2, f"at most {MAX_VERTICES} vertices supported, got {m}")
    try:
        K = SimplicialComplex.from_maximal_faces(m, maximal)
    except (TypeError, ValueError) as exc:
        raise CliError(2, str(exc)) from exc
    return K, name if isinstance(name, str) else None


def emit_complex(K: SimplicialComplex, name: str | None = None) -> dict:
    maximal = [list(vertices_of(f)) for f in K.maximal_face_masks()]
    doc: dict = {}
    if name:
        doc["name"] = name
    doc["vertices"] = K.m
    doc["maximal_faces"] = sorted(maximal, key=lambda f: (len(f), f))
    return doc


def _fmt_num(x) -> object:
    """JSON-safe number: infinity becomes the string "inf"."""
    return "inf" if x == math.inf else x


def _fmt_set(vertices) -> str:
    return "{" + ",".join(str(v) for v in vertices) + "}"


# -- subcommands: each returns its --json payload; a _text_* renders it ----


def _cmd_info(args) -> dict:
    K, name = parse_complex(args.path)
    report = conn.connectivity_report(K)
    return {
        "name": name,
        "vertices": K.m,
        "dimension": K.dim,
        "f_vector": list(K.f_vector()),
        "face_count": facecat.object_count(K),
        "flag": report.flag,
        "missing_faces": [list(w) for w in K.missing_faces()],
        "c": _fmt_num(report.c),
        "c_prime": _fmt_num(report.c_prime),
        "d": {k: _fmt_num(v) for k, v in report.d.items()},
        "d_prime": {k: _fmt_num(v) for k, v in report.d_prime.items()},
    }


def _text_info(p) -> list[str]:
    head = [f"name: {p['name']}"] if p["name"] else []
    return head + [
        f"vertices: {p['vertices']}",
        f"dimension: {p['dimension']}",
        f"f-vector: ({', '.join(str(n) for n in p['f_vector'])})",
        f"faces (including empty): {p['face_count']}",
        f"flag: {'yes' if p['flag'] else 'no'}",
        f"missing faces: {' '.join(_fmt_set(w) for w in p['missing_faces']) or '(none)'}",
        f"c: {p['c']}",
        f"c': {p['c_prime']}",
        f"d (coxeter/artin): {p['d']['coxeter']}",
        f"d (circulation): {p['d']['circulation']}",
        f"d' (coxeter/artin): {p['d_prime']['coxeter']}",
        f"d' (circulation): {p['d_prime']['circulation']}",
    ]


def _cmd_flagify(args) -> dict:
    K, name = parse_complex(args.path)
    return emit_complex(K.flagify(), name)


def _cmd_sr_hilbert(args) -> dict:
    K, _ = parse_complex(args.path)
    series = sralg.hilbert_series(K, sralg.GradingMode(args.mode))
    payload = {
        "numerator": list(series.numerator),
        "denominator_power": series.denominator_power,
        "generator_degree": series.step,
    }
    if args.degree is not None:
        payload |= {"degree": args.degree, "coefficient": series.coefficient(args.degree)}
    return payload


def _text_sr_hilbert(p) -> list[str]:
    series = sralg.HilbertSeries(
        tuple(p["numerator"]), p["denominator_power"], p["generator_degree"]
    )
    out = [f"series: {series}"]
    if "degree" in p:
        out.append(f"coefficient of t^{p['degree']}: {p['coefficient']}")
    return out


def _cmd_sr_basis(args) -> list:
    K, _ = parse_complex(args.path)
    if args.degree < 0:
        raise CliError(2, f"--degree must be >= 0, got {args.degree}")
    basis = sralg.monomial_basis(K, sralg.GradingMode(args.mode), args.degree)
    return [[list(p) for p in mono.powers] for mono in basis]


def _text_sr_basis(p) -> list[str]:
    monomials = [str(sralg.Monomial(tuple(map(tuple, powers)))) for powers in p]
    return monomials + [f"count: {len(p)}"]


def _parse_words(args, *texts) -> list[graphprod.GroupWord]:
    """Words of the graph product of ``--group`` kind over the 1-skeleton of the complex."""
    K, _ = parse_complex(args.path)
    graph = graphprod.CommutationGraph.from_complex(K)
    try:
        return [graphprod.parse_word(args.group, graph, text) for text in texts]
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _cmd_word_reduce(args) -> dict:
    nf = graphprod.normal_form(*_parse_words(args, args.word))
    return {
        "word": graphprod.format_word(nf),
        "length": graphprod.wordlength(nf),
        "blocks": [
            graphprod.format_word(graphprod.GroupWord(nf.kind, nf.graph, block))
            for block in graphprod.cartier_foata_blocks(nf)
        ],
    }


def _cmd_word_equal(args) -> dict:
    return {"equal": graphprod.equal(*_parse_words(args, args.word1, args.word2))}


def _cmd_ma_homology(args) -> list:
    K, _ = parse_complex(args.path)
    groups = macomplex.moment_angle_homology(K, mod2=args.mod2)
    return [{"dim": k, "betti": g.betti, "torsion": list(g.torsion)} for k, g in enumerate(groups)]


def _text_ma_homology(p) -> list[str]:
    return [f"H_{row['dim']} = {HomologyGroup(row['betti'], tuple(row['torsion']))}" for row in p]


def _cmd_bcat_cells(args) -> dict:
    K, _ = parse_complex(args.path)
    model = facecat.cubical_model(K)
    return {
        "cells_by_dimension": list(model.cell_counts()),
        "total": model.cell_count(),
        "euler_characteristic": model.euler_characteristic(),
    }


def _text_bcat_cells(p) -> list[str]:
    return [
        f"cells by dimension: ({', '.join(str(n) for n in p['cells_by_dimension'])})",
        f"total cells: {p['total']}",
        f"euler characteristic: {p['euler_characteristic']}",
    ]


def _cmd_arrangement(args) -> dict:
    K, _ = parse_complex(args.path)
    A = build_arrangement(K, args.field)
    return {
        "field": A.field,
        "generators": [list(g) for g in A.generators],
        "codimensions": list(A.codimensions()),
    }


def _text_arrangement(p) -> list[str]:
    if not p["generators"]:
        return [f"field: {p['field']}", "generators: (none; the arrangement is empty)"]
    return [f"field: {p['field']}", "generators (zero sets, with real codimension):"] + [
        f"  {_fmt_set(gen)} codim {codim}" for gen, codim in zip(p["generators"], p["codimensions"])
    ]


def _cmd_pair_connectivity(args) -> dict:
    K, _ = parse_complex(args.path)
    L, _ = parse_complex(args.with_path)
    c, degrees = conn.pair_connectivity(K, L)
    return {"c": _fmt_num(c), "d": {k: _fmt_num(v) for k, v in degrees.items()}}


def _text_pair_connectivity(p) -> list[str]:
    return [
        f"c(K,L): {p['c']}",
        f"d(K,L) (coxeter/artin): {p['d']['coxeter']}",
        f"d(K,L) (circulation): {p['d']['circulation']}",
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combitop",
        description="Combinatorial, algebraic, and homological invariants of simplicial complexes.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, text, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func, text=text)
        return p

    p = add("info", _cmd_info, _text_info, "f-vector, flag status, missing faces, connectivity")
    p.add_argument("path", nargs="?", default="-")

    p = add("flagify", _cmd_flagify, None, "emit the minimal flag complex containing K")
    p.add_argument("path", nargs="?", default="-")

    p = add("sr-hilbert", _cmd_sr_hilbert, _text_sr_hilbert, "Hilbert series of the face-ring")
    p.add_argument("--mode", required=True, choices=["real", "complex", "exterior"])
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("path", nargs="?", default="-")

    p = add("sr-basis", _cmd_sr_basis, _text_sr_basis, "monomial basis in a fixed degree")
    p.add_argument("--mode", required=True, choices=["real", "complex", "exterior"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("path", nargs="?", default="-")

    p = add("word-reduce", _cmd_word_reduce, lambda res: [res["word"]],
            "normal form of a graph-product word")
    p.add_argument("--group", required=True, choices=list(graphprod.KINDS))
    p.add_argument("path")
    p.add_argument("word")

    p = add("word-equal", _cmd_word_equal, lambda res: ["true" if res["equal"] else "false"],
            "decide equality of two words")
    p.add_argument("--group", required=True, choices=list(graphprod.KINDS))
    p.add_argument("path")
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("ma-homology", _cmd_ma_homology, _text_ma_homology,
            "homology of the real moment-angle complex")
    p.add_argument("--mod2", action="store_true")
    p.add_argument("path", nargs="?", default="-")

    p = add("bcat-cells", _cmd_bcat_cells, _text_bcat_cells,
            "cell counts of the face-category model")
    p.add_argument("path", nargs="?", default="-")

    p = add("arrangement", _cmd_arrangement, _text_arrangement,
            "generators of the coordinate arrangement")
    p.add_argument("--field", required=True, choices=list(ARRANGEMENT_FIELDS))
    p.add_argument("path", nargs="?", default="-")

    p = add("pair-connectivity", _cmd_pair_connectivity, _text_pair_connectivity,
            "connectivity of a subcomplex pair")
    p.add_argument("--with", dest="with_path", required=True, metavar="PATH")
    p.add_argument("path", nargs="?", default="-")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except (CliError, ValueError) as exc:
        # a ValueError that input parsing did not turn into a CliError is a domain error
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1
    if args.json or args.text is None:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(args.text(payload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
