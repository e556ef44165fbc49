"""Checkers: each compares one job's output with values from ``oracles``.

``check(job, stdout, inputs)`` returns ``None`` when the output is right and
a short reason when it is not.  A checker that raises counts as a mismatch,
so a broken checker fails jobs instead of passing them.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

import oracles
from workloads import mod2_groups, read_document


class Mismatch(Exception):
    pass


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r:.150}, want {want!r:.150}")


class Inputs:
    """The generated documents, with per-document oracle results cached."""

    def __init__(self, files: dict[str, bytes]):
        self.files = files
        self.complex = lru_cache(maxsize=None)(self._complex)
        self.groups = lru_cache(maxsize=None)(self._groups)

    def _complex(self, path: str) -> tuple[int, frozenset[int]]:
        m, facets = read_document(self.files[path])
        return m, oracles.face_set(m, facets)

    def _groups(self, path: str) -> tuple:
        m, faces = self.complex(path)
        return m, faces, tuple(oracles.moment_angle_groups(m, faces))


def _num(x):
    """Undo the CLI's rendering of infinity."""
    return math.inf if x in ("inf", math.inf) else x


def _text_fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _int_or_inf(text: str):
    return math.inf if text == "inf" else int(text)


# -- ma-homology ------------------------------------------------------------

_GROUP_TERM = re.compile(r"Z(?:\^(\d+))?$|Z/(\d+)$")


def _parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    if text == "0":
        return 0, ()
    betti, torsion = 0, []
    for term in text.split(" + "):
        match = _GROUP_TERM.match(term)
        if not match:
            raise Mismatch(f"bad group {text!r}")
        if match.group(2):
            torsion.append(int(match.group(2)))
        else:
            betti = int(match.group(1) or 1)
    return betti, tuple(torsion)


def _homology_output(job, stdout: str) -> tuple:
    if job.json:
        rows = json.loads(stdout)
        expect_equal("dims", [r["dim"] for r in rows], list(range(len(rows))))
        return tuple((r["betti"], tuple(r["torsion"])) for r in rows)
    groups = []
    for k, line in enumerate(stdout.splitlines()):
        prefix = f"H_{k} = "
        if not line.startswith(prefix):
            raise Mismatch(f"bad line {line!r}")
        groups.append(_parse_group(line[len(prefix):]))
    return tuple(groups)


def _check_ma_homology(job, stdout, inputs):
    got = _homology_output(job, stdout)
    if job.expect is not None:
        expect_equal("groups", got, tuple(job.expect))
        return
    m, faces, oracle = inputs.groups(job.path)
    chi = oracles.euler_characteristic(m, faces)
    expect_equal("euler characteristic", sum((-1) ** k * b for k, (b, _) in enumerate(got)), chi)
    if job.mod2:
        expect_equal("mod-2 betti", got, mod2_groups(tuple((b, (2,) * t[2]) for b, t in oracle)))
        return
    expect_equal("betti", [b for b, _ in got], [b for b, _ in oracle])
    for p in (2, 3):
        counts = [sum(1 for d in tors if d % p == 0) for _, tors in got]
        expect_equal(f"torsion divisible by {p}", counts, [t[p] for _, t in oracle])


# -- words ------------------------------------------------------------------


def _word_context(job, inputs):
    m, faces = inputs.complex(job.path)
    edges = [tuple(oracles.vertices(f)) for f in faces if f.bit_count() == 2]
    return m, oracles.adjacency(m, edges)


def _check_word_reduce(job, stdout, inputs):
    kind = job.group
    m, adj = _word_context(job, inputs)
    given = oracles.parse_word(kind, job.words[0])
    if job.json:
        payload = json.loads(stdout)
        word = oracles.parse_word(kind, payload["word"])
        blocks = [oracles.parse_word(kind, b) for b in payload["blocks"]]
        expect_equal("length", payload["length"], len(word))
        expect_equal("blocks joined", [x for b in blocks for x in b], word)
        for block in blocks:
            vs = [v for v, _ in block]
            if vs != sorted(vs) or any(not adj[a] >> (b - 1) & 1 for i, a in enumerate(vs) for b in vs[i + 1 :]):
                raise Mismatch(f"block {block} is not a sorted commuting set")
    else:
        word = oracles.parse_word(kind, stdout.strip())
    reduced = oracles.reduce_word(kind, adj, given)
    expect_equal("syllable length", len(word), len(reduced))
    expect_equal("abelianization", oracles.abelianize(kind, m, word), oracles.abelianize(kind, m, given))
    rest = oracles.reduce_word(kind, adj, given + oracles.inverse(kind, word))
    expect_equal("input times inverse output", rest, [])


def _check_word_equal(job, stdout, inputs):
    kind = job.group
    _, adj = _word_context(job, inputs)
    w1, w2 = (oracles.parse_word(kind, w) for w in job.words)
    want = not oracles.reduce_word(kind, adj, w1 + oracles.inverse(kind, w2))
    got = json.loads(stdout)["equal"] if job.json else {"true": True, "false": False}.get(stdout.strip())
    expect_equal("equal", got, want)


# -- survey subcommands -----------------------------------------------------


def _check_info(job, stdout, inputs):
    m, faces = inputs.complex(job.path)
    fvec = oracles.f_vector(faces)
    missing = oracles.missing_faces(m, faces)
    c = oracles.large_missing_dim(m, faces)
    c_prime = min((len(w) - 1 for w in missing), default=math.inf)
    if job.json:
        p = json.loads(stdout)
        got = (p["vertices"], p["dimension"], p["f_vector"], p["face_count"], p["flag"],
               p["missing_faces"], _num(p["c"]), _num(p["c_prime"]),
               {k: _num(v) for k, v in p["d"].items()}, {k: _num(v) for k, v in p["d_prime"].items()})
    else:
        t = _text_fields(stdout)
        miss = [] if t["missing faces"] == "(none)" else [
            [int(v) for v in s.strip("{}").split(",")] for s in t["missing faces"].split()
        ]
        d = {"coxeter": _int_or_inf(t["d (coxeter/artin)"]), "circulation": _int_or_inf(t["d (circulation)"])}
        d_prime = {"coxeter": _int_or_inf(t["d' (coxeter/artin)"]), "circulation": _int_or_inf(t["d' (circulation)"])}
        d["artin"], d_prime["artin"] = d["coxeter"], d_prime["coxeter"]
        got = (int(t["vertices"]), int(t["dimension"]),
               [int(x) for x in t["f-vector"].strip("()").split(", ")],
               int(t["faces (including empty)"]), t["flag"] == "yes", miss,
               _int_or_inf(t["c"]), _int_or_inf(t["c'"]), d, d_prime)
    want = (m, len(fvec) - 1, fvec, len(faces), c == math.inf, missing, c, c_prime,
            oracles.derived(c), oracles.derived(c_prime))
    expect_equal("info", got, want)


def _check_flagify(job, stdout, inputs):
    m, faces = inputs.complex(job.path)
    doc = json.loads(stdout)
    expect_equal("vertices", doc["vertices"], m)
    expect_equal("maximal faces", doc["maximal_faces"], oracles.maximal(oracles.clique_complex(m, faces)))


def _check_bcat_cells(job, stdout, inputs):
    _, faces = inputs.complex(job.path)
    top = max(f.bit_count() for f in faces)
    by_dim = [sum(math.comb(f.bit_count(), k) for f in faces) for k in range(top + 1)]
    if job.json:
        p = json.loads(stdout)
        got = (p["cells_by_dimension"], p["total"], p["euler_characteristic"])
    else:
        t = _text_fields(stdout)
        got = ([int(x) for x in t["cells by dimension"].strip("()").split(", ")],
               int(t["total cells"]), int(t["euler characteristic"]))
    expect_equal("cells", got, (by_dim, sum(2 ** f.bit_count() for f in faces), 1))


def _series_coefficient(numerator, power: int, step: int, d: int) -> int:
    total = 0
    for j, a in enumerate(numerator):
        if a and j <= d and (d - j) % step == 0:
            k = (d - j) // step
            total += a * (math.comb(k + power - 1, power - 1) if power else k == 0)
    return total


def _check_sr_hilbert(job, stdout, inputs):
    _, faces = inputs.complex(job.path)
    want = oracles.sr_count(faces, job.mode, job.degree)
    if job.json:
        p = json.loads(stdout)
        expect_equal("coefficient", p["coefficient"], want)
        for d in range(3 * job.degree + 1):
            got = _series_coefficient(p["numerator"], p["denominator_power"], p["generator_degree"], d)
            expect_equal(f"series coefficient {d}", got, oracles.sr_count(faces, job.mode, d))
    else:
        t = _text_fields(stdout)
        expect_equal("coefficient", int(t[f"coefficient of t^{job.degree}"]), want)


def _check_sr_basis(job, stdout, inputs):
    _, faces = inputs.complex(job.path)
    want = oracles.sr_count(faces, job.mode, job.degree)
    if not job.json:
        expect_equal("count", int(_text_fields(stdout)["count"]), want)
        expect_equal("lines", len(stdout.splitlines()) - 1, want)
        return
    monos = json.loads(stdout)
    expect_equal("count", len(monos), want)
    step = 2 if job.mode == "complex" else 1
    seen = set()
    for mono in monos:
        support = sum(1 << (v - 1) for v, _ in mono)
        key = tuple(map(tuple, mono))
        if support not in faces or key in seen or step * sum(e for _, e in mono) != job.degree:
            raise Mismatch(f"monomial {mono} is not a new basis element of degree {job.degree}")
        if job.mode == "exterior" and any(e != 1 for _, e in mono):
            raise Mismatch(f"exterior monomial {mono} is not squarefree")
        seen.add(key)


_CODIM = {"R": 1, "C": 2, "E": 1}


def _check_arrangement(job, stdout, inputs):
    m, faces = inputs.complex(job.path)
    missing = oracles.missing_faces(m, faces)
    codims = [_CODIM[job.field] * len(w) for w in missing]
    if job.json:
        p = json.loads(stdout)
        got = (p["field"], p["generators"], p["codimensions"])
    else:
        lines = stdout.splitlines()
        header = "generators (zero sets, with real codimension):" if missing else \
            "generators: (none; the arrangement is empty)"
        expect_equal("generators header", lines[1], header)
        gens, cods = [], []
        for line in lines[2:]:
            gen, _, cod = line.strip().partition(" codim ")
            gens.append([int(v) for v in gen.strip("{}").split(",")])
            cods.append(int(cod))
        got = (_text_fields(stdout)["field"], gens, cods)
    expect_equal("arrangement", got, (job.field, missing, codims))


def _check_pair_connectivity(job, stdout, inputs):
    m, faces = inputs.complex(job.path)
    _, big = inputs.complex(job.with_path)
    c = oracles.large_missing_dim(m, faces) if big <= oracles.clique_complex(m, faces) else 1
    if job.json:
        p = json.loads(stdout)
        got = (_num(p["c"]), {k: _num(v) for k, v in p["d"].items()})
    else:
        t = _text_fields(stdout)
        d = _int_or_inf(t["d(K,L) (coxeter/artin)"])
        got = (_int_or_inf(t["c(K,L)"]),
               {"coxeter": d, "artin": d, "circulation": _int_or_inf(t["d(K,L) (circulation)"])})
    expect_equal("pair connectivity", got, (c, oracles.derived(c)))


CHECKERS = {
    "ma-homology": _check_ma_homology,
    "word-reduce": _check_word_reduce,
    "word-equal": _check_word_equal,
    "info": _check_info,
    "flagify": _check_flagify,
    "bcat-cells": _check_bcat_cells,
    "sr-hilbert": _check_sr_hilbert,
    "sr-basis": _check_sr_basis,
    "arrangement": _check_arrangement,
    "pair-connectivity": _check_pair_connectivity,
}


def check(job, stdout: str, inputs: Inputs) -> str | None:
    """None when ``stdout`` is the right output for ``job``, else the reason it is not."""
    try:
        CHECKERS[job.cmd](job, stdout, inputs)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # a checker that cannot read the output fails the job
        return f"unreadable output ({type(exc).__name__}: {exc})"
    return None


def check_process(job, returncode: int | None, stdout: str, stderr: str, inputs: Inputs) -> str | None:
    """Check a finished job process: exit code, traceback, then output."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return check(job, stdout, inputs)
