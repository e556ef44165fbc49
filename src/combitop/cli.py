"""Command-line front end.

Complexes are read from JSON documents: {"vertices": m, "maximal_faces":
[[...], ...], "name": "..."} with 1-indexed vertices.  Exit codes: 0 on
success, 1 for domain errors, 2 for input errors.  All output is
deterministically ordered; --json switches to machine-readable form.
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
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# -- subcommands -------------------------------------------------------


def _cmd_info(args) -> int:
    K, name = parse_complex(args.path)
    report = conn.connectivity_report(K)
    missing = K.missing_faces()
    if args.json:
        _print_json(
            {
                "name": name,
                "vertices": K.m,
                "dimension": K.dim,
                "f_vector": list(K.f_vector()),
                "face_count": facecat.object_count(K),
                "flag": report.flag,
                "missing_faces": [list(w) for w in missing],
                "c": _fmt_num(report.c),
                "c_prime": _fmt_num(report.c_prime),
                "d": {k: _fmt_num(v) for k, v in report.d.items()},
                "d_prime": {k: _fmt_num(v) for k, v in report.d_prime.items()},
            }
        )
        return 0
    if name:
        print(f"name: {name}")
    print(f"vertices: {K.m}")
    print(f"dimension: {K.dim}")
    print(f"f-vector: ({', '.join(str(n) for n in K.f_vector())})")
    print(f"faces (including empty): {facecat.object_count(K)}")
    print(f"flag: {'yes' if report.flag else 'no'}")
    print(f"missing faces: {' '.join(_fmt_set(w) for w in missing) or '(none)'}")
    print(f"c: {report.c}")
    print(f"c': {report.c_prime}")
    print(f"d (coxeter/artin): {report.d['coxeter']}")
    print(f"d (circulation): {report.d['circulation']}")
    print(f"d' (coxeter/artin): {report.d_prime['coxeter']}")
    print(f"d' (circulation): {report.d_prime['circulation']}")
    return 0


def _cmd_flagify(args) -> int:
    K, name = parse_complex(args.path)
    doc = emit_complex(K.flagify(), name)
    print(json.dumps(doc, indent=2))
    return 0


def _mode(args) -> sralg.GradingMode:
    return sralg.GradingMode(args.mode)


def _cmd_sr_hilbert(args) -> int:
    K, _ = parse_complex(args.path)
    series = sralg.hilbert_series(K, _mode(args))
    if args.json:
        payload = {
            "numerator": list(series.numerator),
            "denominator_power": series.denominator_power,
            "generator_degree": series.step,
        }
        if args.degree is not None:
            payload["degree"] = args.degree
            payload["coefficient"] = series.coefficient(args.degree)
        _print_json(payload)
        return 0
    print(f"series: {series}")
    if args.degree is not None:
        print(f"coefficient of t^{args.degree}: {series.coefficient(args.degree)}")
    return 0


def _cmd_sr_basis(args) -> int:
    K, _ = parse_complex(args.path)
    basis = sralg.monomial_basis(K, _mode(args), args.degree)
    if args.json:
        _print_json([[list(p) for p in mono.powers] for mono in basis])
        return 0
    for mono in basis:
        print(mono)
    print(f"count: {len(basis)}")
    return 0


def _word_context(args) -> tuple[str, graphprod.CommutationGraph]:
    K, _ = parse_complex(args.path)
    return args.group, graphprod.CommutationGraph.from_complex(K)


def _parse_cli_word(kind, graph, text) -> graphprod.GroupWord:
    try:
        return graphprod.parse_word(kind, graph, text)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _cmd_word_reduce(args) -> int:
    kind, graph = _word_context(args)
    w = _parse_cli_word(kind, graph, args.word)
    nf = graphprod.normal_form(w)
    if args.json:
        _print_json(
            {
                "word": graphprod.format_word(nf),
                "length": graphprod.wordlength(nf),
                "blocks": [
                    graphprod.format_word(graphprod.GroupWord(kind, graph, block))
                    for block in graphprod.cartier_foata_blocks(nf)
                ],
            }
        )
        return 0
    print(graphprod.format_word(nf))
    return 0


def _cmd_word_equal(args) -> int:
    kind, graph = _word_context(args)
    w1 = _parse_cli_word(kind, graph, args.word1)
    w2 = _parse_cli_word(kind, graph, args.word2)
    result = graphprod.equal(w1, w2)
    if args.json:
        _print_json({"equal": result})
    else:
        print("true" if result else "false")
    return 0


def _homology_lines(groups) -> list[str]:
    return [f"H_{k} = {g}" for k, g in enumerate(groups)]


def _cmd_ma_homology(args) -> int:
    K, _ = parse_complex(args.path)
    try:
        groups = macomplex.moment_angle_homology(K, mod2=args.mod2)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    if args.json:
        _print_json(
            [
                {"dim": k, "betti": g.betti, "torsion": list(g.torsion)}
                for k, g in enumerate(groups)
            ]
        )
        return 0
    for line in _homology_lines(groups):
        print(line)
    return 0


def _cmd_bcat_cells(args) -> int:
    K, _ = parse_complex(args.path)
    model = facecat.cubical_model(K)
    counts = model.cell_counts()
    if args.json:
        _print_json(
            {
                "cells_by_dimension": list(counts),
                "total": model.cell_count(),
                "euler_characteristic": model.euler_characteristic(),
            }
        )
        return 0
    print(f"cells by dimension: ({', '.join(str(n) for n in counts)})")
    print(f"total cells: {model.cell_count()}")
    print(f"euler characteristic: {model.euler_characteristic()}")
    return 0


def _cmd_arrangement(args) -> int:
    K, _ = parse_complex(args.path)
    A = build_arrangement(K, args.field)
    if args.json:
        _print_json(
            {
                "field": A.field,
                "generators": [list(g) for g in A.generators],
                "codimensions": list(A.codimensions()),
            }
        )
        return 0
    print(f"field: {A.field}")
    if not A.generators:
        print("generators: (none; the arrangement is empty)")
        return 0
    print("generators (zero sets, with real codimension):")
    for gen, codim in zip(A.generators, A.codimensions()):
        print(f"  {_fmt_set(gen)} codim {codim}")
    return 0


def _cmd_pair_connectivity(args) -> int:
    K, _ = parse_complex(args.path)
    L, _ = parse_complex(args.with_path)
    try:
        c, degrees = conn.pair_connectivity(K, L)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    if args.json:
        _print_json({"c": _fmt_num(c), "d": {k: _fmt_num(v) for k, v in degrees.items()}})
        return 0
    print(f"c(K,L): {c}")
    print(f"d(K,L) (coxeter/artin): {degrees['coxeter']}")
    print(f"d(K,L) (circulation): {degrees['circulation']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combitop",
        description="Combinatorial, algebraic, and homological invariants of simplicial complexes.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("info", _cmd_info, "f-vector, flag status, missing faces, connectivity")
    p.add_argument("path", nargs="?", default="-")

    p = add("flagify", _cmd_flagify, "emit the minimal flag complex containing K")
    p.add_argument("path", nargs="?", default="-")

    p = add("sr-hilbert", _cmd_sr_hilbert, "Hilbert series of the face-ring")
    p.add_argument("--mode", required=True, choices=["real", "complex", "exterior"])
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("path", nargs="?", default="-")

    p = add("sr-basis", _cmd_sr_basis, "monomial basis in a fixed degree")
    p.add_argument("--mode", required=True, choices=["real", "complex", "exterior"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("path", nargs="?", default="-")

    p = add("word-reduce", _cmd_word_reduce, "normal form of a graph-product word")
    p.add_argument("--group", required=True, choices=list(graphprod.KINDS))
    p.add_argument("path")
    p.add_argument("word")

    p = add("word-equal", _cmd_word_equal, "decide equality of two words")
    p.add_argument("--group", required=True, choices=list(graphprod.KINDS))
    p.add_argument("path")
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("ma-homology", _cmd_ma_homology, "homology of the real moment-angle complex")
    p.add_argument("--mod2", action="store_true")
    p.add_argument("path", nargs="?", default="-")

    p = add("bcat-cells", _cmd_bcat_cells, "cell counts of the face-category model")
    p.add_argument("path", nargs="?", default="-")

    p = add("arrangement", _cmd_arrangement, "generators of the coordinate arrangement")
    p.add_argument("--field", required=True, choices=list(ARRANGEMENT_FIELDS))
    p.add_argument("path", nargs="?", default="-")

    p = add("pair-connectivity", _cmd_pair_connectivity, "connectivity of a subcomplex pair")
    p.add_argument("--with", dest="with_path", required=True, metavar="PATH")
    p.add_argument("path", nargs="?", default="-")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
