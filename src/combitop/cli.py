"""Command-line front end: it reads the input, runs a subcommand and writes its output.

Complexes are read from JSON documents: {"vertices": m, "maximal_faces":
[[...], ...], "name": "..."} with 1-indexed vertices.  ``main`` alone reads
the document, once per job, and renders the JSON-ready payload that the
subcommand computes from it without printing, writing it as it is encoded or
rendered: as JSON under --json (``flagify`` always prints a complex document),
and through the subcommand's text renderer otherwise.  The size bounds belong
to the library calls that build what they bound.  Exit codes go by exception
type: 0 on success, 1 when the library refuses the work (a ValueError), 2 when
the CLI refuses its input (a CliError), 120 when the output cannot be written.
Output order is deterministic.

Run as a program (``combitop`` or ``python -m combitop.cli``), the process
exits right after it flushes its output, without the interpreter's teardown,
so ``atexit`` handlers do not run.  Under a tracer or profiler (a
``sys.settrace`` or ``sys.setprofile`` hook or a ``sys.monitoring`` tool), or
when a flush fails, it exits normally.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import sys
import types

from ._bits import vertices_of
from .arrangement import arrangement as build_arrangement
from .simplicial import SimplicialComplex, facet_masks

# Each subcommand imports the library modules it runs, so a process loads
# only those: graphprod and sralg, say, stay out of every other command.

DESCRIPTION = "Combinatorial, algebraic, and homological invariants of simplicial complexes."
USAGE = "[-h] [--json] COMMAND ..."

#: The ``--group`` and ``--mode`` choices: ``graphprod.KINDS`` and the values of
#: ``sralg.GradingMode``, written out so that the parser imports neither module.
GROUP = "--group {coxeter,artin,circulation}"
MODE = "--mode {real,complex,exterior}"

#: Output chunks joined into one write: JSON tokens, or text lines.  The encoder
#: yields a chunk per token, and under PYTHONUNBUFFERED each write is a system call.
WRITE_BATCH = 8192


class CliError(Exception):
    """The CLI refuses its input: exit code 2."""


def parse_complex(path: str) -> tuple[SimplicialComplex, str | None]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an integer past the int-to-str limit too
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("complex document must be a JSON object")
    try:
        m, maximal = doc["vertices"], doc["maximal_faces"]
    except KeyError as exc:
        raise CliError(f"missing key {exc} in complex document") from exc
    if not isinstance(maximal, list) or not all(isinstance(face, list) for face in maximal):
        raise CliError("'maximal_faces' must be a list of lists")
    try:
        masks = facet_masks(m, maximal)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    name = doc.get("name")
    return SimplicialComplex.from_facet_masks(m, masks), name if isinstance(name, str) else None


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


# -- subcommands: each takes K and its arguments, the document's name as
# args.name, and returns its --json payload; a _text_* renders it ----


def _cmd_info(K, args) -> dict:
    from . import connectivity as conn

    missing = K.missing_faces()
    report = conn.connectivity_report(K, missing)
    f = K.f_vector()
    return {
        "name": args.name,
        "vertices": K.m,
        "dimension": len(f) - 1,
        "f_vector": list(f),
        "face_count": 1 + sum(f),
        "flag": report.flag,
        "missing_faces": [list(w) for w in missing],
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


def _cmd_flagify(K, args) -> dict:
    return emit_complex(K.flagify(), args.name)


def _cmd_sr_hilbert(K, args) -> dict:
    from . import sralg

    series = sralg.hilbert_series(K, sralg.GradingMode(args.mode))
    payload = {
        "numerator": list(series.numerator),
        "denominator_power": series.denominator_power,
        "generator_degree": series.step,
    }
    if args.degree is not None:
        c = series.coefficient(args.degree)
        try:
            str(c)  # as the output will: past the interpreter's int-to-str digit limit it fails
        except ValueError:
            raise CliError(f"coefficient too large to print: {c.bit_length()} bits") from None
        payload |= {"degree": args.degree, "coefficient": c}
    return payload


def _text_sr_hilbert(p) -> list[str]:
    from . import sralg

    series = sralg.HilbertSeries(
        tuple(p["numerator"]), p["denominator_power"], p["generator_degree"]
    )
    out = [f"series: {series}"]
    if "degree" in p:
        out.append(f"coefficient of t^{p['degree']}: {p['coefficient']}")
    return out


def _cmd_sr_basis(K, args) -> list:
    from . import sralg

    if args.degree < 0:
        raise CliError(f"--degree must be >= 0, got {args.degree}")
    mode = sralg.GradingMode(args.mode)
    return [mono.powers for mono in sralg.monomial_basis(K, mode, args.degree)]


def _text_sr_basis(p):
    from .sralg import format_powers

    yield from map(format_powers, p)
    yield f"count: {len(p)}"


def _parse_words(K: SimplicialComplex, kind: str, *texts) -> list:
    """Words of the graph product of the given kind over the 1-skeleton of K."""
    from . import graphprod

    graph = graphprod.CommutationGraph.from_complex(K)
    try:
        return [graphprod.parse_word(kind, graph, text) for text in texts]
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_word_reduce(K, args) -> dict:
    from . import graphprod

    (w,) = _parse_words(K, args.group, args.word)
    blocks = graphprod.cartier_foata_blocks(w)
    try:  # a value past the interpreter's int-to-str digit limit fails to print
        texts = [graphprod.format_letters(w.kind, block) for block in blocks]
    except ValueError:
        # a circulation value is a pair (p, q) with 0 < p < q: q has the most bits
        circle = w.kind == "circulation"
        bits = max(abs(x[1] if circle else x).bit_length() for b in blocks for _, x in b)
        raise CliError(f"letter too large to print: {bits} bits") from None
    return {"word": " ".join(texts) or "e", "length": sum(map(len, blocks)), "blocks": texts}


def _cmd_word_equal(K, args) -> dict:
    from . import graphprod

    return {"equal": graphprod.equal(*_parse_words(K, args.group, args.word1, args.word2))}


def _cmd_ma_homology(K, args) -> list:
    from . import macomplex

    groups = macomplex.moment_angle_homology(K, mod2=args.mod2)
    return [{"dim": k, "betti": g.betti, "torsion": list(g.torsion)} for k, g in enumerate(groups)]


def _text_ma_homology(p) -> list[str]:
    from .homology import HomologyGroup

    return [f"H_{row['dim']} = {HomologyGroup(row['betti'], tuple(row['torsion']))}" for row in p]


def _cmd_bcat_cells(K, args) -> dict:
    # the k-cells of (I, 0)^K are the pairs sigma <= tau with |tau - sigma| = k,
    # so they are counted from the f-vector, the empty face first
    f = (1, *K.f_vector())
    row = [sum(n * math.comb(s, k) for s, n in enumerate(f)) for k in range(len(f))]
    return {
        "cells_by_dimension": row,
        "total": sum(n << s for s, n in enumerate(f)),
        "euler_characteristic": sum((-1) ** k * n for k, n in enumerate(row)),
    }


def _text_bcat_cells(p) -> list[str]:
    return [
        f"cells by dimension: ({', '.join(str(n) for n in p['cells_by_dimension'])})",
        f"total cells: {p['total']}",
        f"euler characteristic: {p['euler_characteristic']}",
    ]


def _cmd_arrangement(K, args) -> dict:
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


def _cmd_pair_connectivity(K, args) -> dict:
    from . import connectivity as conn

    L, _ = parse_complex(getattr(args, "with"))
    c, degrees = conn.pair_connectivity(K, L)
    return {"c": _fmt_num(c), "d": {k: _fmt_num(v) for k, v in degrees.items()}}


def _text_pair_connectivity(p) -> list[str]:
    return [
        f"c(K,L): {p['c']}",
        f"d(K,L) (coxeter/artin): {p['d']['coxeter']}",
        f"d(K,L) (circulation): {p['d']['circulation']}",
    ]


#: One row per subcommand: runner, text renderer (None prints the JSON payload),
#: usage and help line.  The usage is also the grammar: "--x {a,b}" takes a
#: choice, "--x N" an int, "--x METAVAR" a string and "[--x]" is a flag; a part
#: in brackets may be left out, and then reads None, False or, for PATH, "-".
COMMANDS = {
    "info": (_cmd_info, _text_info, "[PATH]", "f-vector, flag status, missing faces, connectivity"),
    "flagify": (_cmd_flagify, None, "[PATH]", "emit the minimal flag complex containing K"),
    "sr-hilbert": (_cmd_sr_hilbert, _text_sr_hilbert, f"{MODE} [--degree N] [PATH]",
                   "Hilbert series of the face-ring"),
    "sr-basis": (_cmd_sr_basis, _text_sr_basis, f"{MODE} --degree N [PATH]",
                 "monomial basis in a fixed degree"),
    "word-reduce": (_cmd_word_reduce, lambda res: [res["word"]], f"{GROUP} PATH WORD",
                    "normal form of a graph-product word"),
    "word-equal": (_cmd_word_equal, lambda res: ["true" if res["equal"] else "false"],
                   f"{GROUP} PATH WORD1 WORD2", "decide equality of two words"),
    "ma-homology": (_cmd_ma_homology, _text_ma_homology, "[--mod2] [PATH]",
                    "homology of the real moment-angle complex"),
    "bcat-cells": (_cmd_bcat_cells, _text_bcat_cells, "[PATH]",
                   "cell counts of the face-category model"),
    "arrangement": (_cmd_arrangement, _text_arrangement, "--field {R,C,E} [PATH]",
                    "generators of the coordinate arrangement"),
    "pair-connectivity": (_cmd_pair_connectivity, _text_pair_connectivity,
                          "--with PATH_TO_L [PATH]", "connectivity of a subcomplex pair"),
}
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # argparse's negative numbers, positionals; compiled on use


def _grammar(usage: str) -> tuple[dict, list, dict]:
    """The options (flag: kind) and positionals of a usage line, and the defaults of its
    bracketed parts."""
    kinds, slots, defaults, words = {}, [], {}, iter(usage.split())
    for word in words:
        name = word.strip("[]")
        dest = name.lstrip("-").lower()
        if name[:2] == "--":
            value = "" if word[-1] == "]" else next(words).rstrip("]")
            kinds[name] = (tuple(value[1:-1].split(",")) if value[:1] == "{" else
                           {"N": int, "": bool}.get(value, str))
        else:
            slots.append(dest)
        if word[0] == "[":
            defaults[dest] = {bool: False}.get(kinds[name]) if name[0] == "-" else "-"
    return kinds, slots, defaults


def _usage(name: str | None) -> str:
    return f"usage: combitop {f'{name} {COMMANDS[name][2]}' if name else USAGE}"


def _option(token: str, flags) -> tuple | None:
    """How argparse reads ``token``, "--" aside: None for a positional, else (flag
    or None if unknown, explicit value or None); a unique prefix stands for a flag."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] == "-h":  # "-hh" and "-h=h" are help too
        return "--help", (token[3:] or "=" if token[2:3] == "=" else token[2:]).strip("h") or None
    prefix, eq, value = token.partition("=")
    for flag in ("--help", *flags):
        if token[1] == "-" and flag.startswith(prefix):  # "--=" would match two: refused first
            return flag, value if eq else None
    return None if " " in token or re.match(_NEGATIVE, token) else (None, None)


def _parse(argv: list[str]):
    """The row and the arguments of a command line, read by argparse's rules.  Help and
    a bad command line (a usage and an error line on stderr) raise SystemExit(0 or 2)."""
    name, kinds, slots, args, unknown, took = None, {"--json": bool}, [], {"json": False}, [], False

    def fail(message: str):
        print(f"{_usage(name)}\ncombitop: error: {message}", file=sys.stderr)
        raise SystemExit(2)

    if any(t.startswith("--=") for t in (argv[: argv.index("--")] if "--" in argv else argv)):
        fail("ambiguous option: --= could match every option")
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and name:  # the rest are positionals; "--" stays where none takes it
            rest = list(tokens)
            unknown += [token] * (not slots and not took) + rest[len(slots):]
            args.update(zip(slots, rest))
            break
        opt, took = _option(token, kinds), False  # took: a positional
        if opt is None and name is None:
            name = token if token in COMMANDS else fail(f"invalid COMMAND: {token!r}")
            kinds, slots, defaults = _grammar(COMMANDS[name][2])
            args |= defaults
        elif opt is None and slots:
            args[slots.pop(0)], took = token, True
        elif opt is None or opt[0] is None:
            unknown.append(token)
        elif opt == ("--help", None):
            rows = "".join(f"\n  {n} {row[2]}\n      {row[3]}" for n, row in COMMANDS.items())
            print(f"{_usage(name)}\n\n{COMMANDS[name][3]}" if name else
                  f"{_usage(None)}\n\n{DESCRIPTION}\n\ncommands:{rows}")
            raise SystemExit(0)
        elif opt[0] == "--help" or kinds[opt[0]] is bool:
            if opt[1] is not None:
                fail(f"argument {opt[0]}: ignored explicit argument {opt[1]!r}")
            args[opt[0][2:]] = True
        else:
            (flag, value), kind = opt, kinds[opt[0]]
            if value is None and ((value := next(tokens, "--")) == "--" or _option(value, kinds)):
                fail(f"argument {flag}: expected one argument")
            if type(kind) is tuple and value not in kind:
                fail(f"argument {flag}: invalid choice: {value!r}")
            try:
                args[flag[2:]] = int(value) if kind is int else value
            except ValueError:
                fail(f"argument {flag}: invalid int value: {value!r}")
    missing = [k for k in (*kinds, *slots) if k.lstrip("-") not in args] if name else ["COMMAND"]
    if missing or unknown:
        fail(f"the following arguments are required: {', '.join(missing)}" if missing
             else f"unrecognized arguments: {' '.join(unknown)}")
    return COMMANDS[name][:2], types.SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        (run, text), args = _parse(sys.argv[1:] if argv is None else list(argv))
        K, args.name = parse_complex(args.path)
        payload = run(K, args)
    except SystemExit as exc:  # help, or a bad command line
        return exc.code
    except (CliError, ValueError) as exc:  # the CLI refuses its input, or the library the work
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliError) else 1
    if args.json or text is None:
        return _print_chunks(json.JSONEncoder(indent=2).iterencode(payload), "")
    return _print_chunks(text(payload), "\n")


def _print_chunks(chunks, sep: str) -> int:
    """Print the chunks joined by ``sep``, then a newline, WRITE_BATCH chunks a write; 0, or
    120 if a write fails."""
    out, chunks, lead = sys.stdout, iter(chunks), ""
    if out is None:  # the process started with descriptor 1 closed: print nothing, as print does
        return 0
    try:
        for first in chunks:  # a batch after the first starts with the separator
            out.write(sep.join(itertools.chain((lead + first,),
                                               itertools.islice(chunks, WRITE_BATCH - 1))))
            lead = sep
        out.write("\n")
    except OSError as exc:
        try:
            # a buffered stdout holds the newline, and the normal exit reports its
            # failed flush ("Exception ignored", exit code 120) as for a short output
            out.write("\n")
        except OSError:  # unbuffered, as under PYTHONUNBUFFERED
            try:
                print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
            except OSError:  # stderr shares the closed pipe: the exit code says it
                pass
        return 120
    return 0


def entry() -> None:
    """Exit with ``main``'s code once its output is flushed, skipping the interpreter's
    teardown (GC passes and module cleanup), which takes longer than most jobs."""
    code = main()
    # coverage, cProfile and trace report after the module returns; from Python 3.12
    # cProfile, and coverage's sysmon core, register a sys.monitoring tool instead
    monitoring = getattr(sys, "monitoring", None)
    observed = sys.gettrace() is not None or sys.getprofile() is not None or (
        monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
    if not observed:
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when the process started with it closed
                    stream.flush()
        except OSError:  # the normal exit reports it: "Exception ignored", exit code 120
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
