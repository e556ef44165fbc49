"""Seeded inputs for the three workloads.

``generate(workload, seed)`` returns the input documents (file name to
bytes) and the jobs, grouped in rounds.  A round is the workload's job mix
once; every round draws fresh random inputs, and the jobs inside it are
interleaved so that any prefix of the job list has close to the round's mix.
The same seed gives byte-identical documents and the same jobs.

Why each workload exists:

* ``ma_homology`` - a few long ``ma-homology`` jobs, integer and ``--mod2``,
  on stock complexes and random ones with 6-8 vertices.  Dense integer
  Smith normal form on the cubical moment-angle model does most of the
  work; ``graphprod`` and ``sralg`` sit idle.
* ``words`` - medium ``word-reduce --json`` and ``word-equal`` jobs on
  1,000-2,400 letter words over 10-vertex commutation graphs.  Graph-product
  normal forms do most of the work; ``homology`` sits idle.
* ``survey`` - many short jobs over all ten subcommands on 10-30 vertex
  complexes, plus tiny moment-angle and word jobs.  CLI start-up and the
  ``simplicial``, ``facecat``, ``sralg`` and ``cli`` layers dominate, so
  fixed per-call or import costs show here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

WORKLOADS = ("ma_homology", "words", "survey")
KINDS = ("coxeter", "artin", "circulation")

# rounds written per run: more than a 34 s run gets through at the
# commit that defined the benchmark; a faster program cycles through them
ROUNDS = {"ma_homology": 4, "words": 4, "survey": 7}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv()`` and the in-process replay both read these fields."""

    cmd: str
    path: str
    json: bool = False
    mode: str | None = None
    degree: int | None = None
    field: str | None = None
    group: str | None = None
    mod2: bool = False
    with_path: str | None = None
    words: tuple[str, ...] = ()
    # expected output worked out by the generator, where a closed form exists
    expect: tuple | None = None

    def argv(self) -> list[str]:
        out = ["--json"] if self.json else []
        out.append(self.cmd)
        if self.mode is not None:
            out += ["--mode", self.mode]
        if self.degree is not None:
            out += ["--degree", str(self.degree)]
        if self.field is not None:
            out += ["--field", self.field]
        if self.group is not None:
            out += ["--group", self.group]
        if self.mod2:
            out.append("--mod2")
        if self.with_path is not None:
            out += ["--with", self.with_path]
        out.append(self.path)
        out += self.words
        return out

    @property
    def label(self) -> str:
        parts = [self.cmd]
        for flag in (self.mode, self.field, self.group):
            if flag:
                parts.append(flag)
        if self.mod2:
            parts.append("mod2")
        if self.json:
            parts.append("json")
        return ":".join(parts)


def document(m: int, facets, name: str | None = None) -> bytes:
    doc = {"vertices": m, "maximal_faces": [sorted(f) for f in facets]}
    if name:
        doc["name"] = name
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def read_document(data: bytes) -> tuple[int, list[list[int]]]:
    doc = json.loads(data)
    return doc["vertices"], doc["maximal_faces"]


def _random_facets(rng: random.Random, m: int, count: int, lo: int, hi: int) -> list[list[int]]:
    return [sorted(rng.sample(range(1, m + 1), rng.randint(lo, hi))) for _ in range(count)]


def _interleave(rng: random.Random, groups: list[list[Job]]) -> list[Job]:
    """Spread each group's jobs evenly over the round, so any prefix of it has close to its mix."""
    keyed = []
    for g in groups:
        g = rng.sample(g, len(g))
        offset = rng.random()
        keyed += [((i + offset) / len(g), rng.random(), job) for i, job in enumerate(g)]
    keyed.sort(key=lambda k: k[:2])
    return [job for *_, job in keyed]


# -- ma_homology --------------------------------------------------------------


def _simplex_boundary(m: int) -> list[list[int]]:
    return [[v for v in range(1, m + 1) if v != skip] for skip in range(1, m + 1)]


def _polygon(m: int) -> list[list[int]]:
    return [[i, i % m + 1] for i in range(1, m + 1)]


RP2 = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]


def _sphere_groups(m: int) -> tuple:
    """RZ of the boundary of the (m-1)-simplex is S^(m-1)."""
    return tuple((1 if k in (0, m - 1) else 0, ()) for k in range(m))


def _polygon_groups(m: int) -> tuple:
    """RZ of the m-gon is an orientable surface of genus 1 + (m-4) 2^(m-3)."""
    genus = 1 + (m - 4) * 2 ** (m - 3)
    return ((1, ()), (2 * genus, ()), (1, ()))


RP2_GROUPS = ((1, ()), (0, ()), (31, (2,)), (0, ()))


def mod2_groups(groups: tuple) -> tuple:
    """Universal coefficients: b_k(Z/2) = b_k + t_k + t_(k-1), t counting even torsion."""
    out = []
    prev = 0
    for betti, torsion in groups:
        even = sum(1 for d in torsion if d % 2 == 0)
        out.append((betti + even + prev, ()))
        prev = even
    return tuple(out)


def _cells(m: int, facets) -> int:
    return sum(2 ** (m - f.bit_count()) for f in oracles.face_set(m, facets))


# cell-count bands for the random complexes, per vertex count: they keep
# each round's Smith-normal-form work close to the same size across seeds
_MA_BANDS = {6: (400, 560), 7: (1500, 2000), 8: (2200, 2700)}


def _random_ma_complex(rng: random.Random, m: int) -> list[list[int]]:
    lo, hi = _MA_BANDS[m]
    while True:
        facets = _random_facets(rng, m, rng.randint(3, 8), 2, 5 if m == 7 else 4)
        if lo <= _cells(m, facets) <= hi:
            return facets


def _ma_homology(rng: random.Random):
    files = {
        "sb7.json": document(7, _simplex_boundary(7), "boundary of the 6-simplex"),
        "pg7.json": document(7, _polygon(7), "7-gon"),
        "pg8.json": document(8, _polygon(8), "8-gon"),
        "rp2.json": document(6, RP2, "6-vertex RP2"),
    }
    stock = {
        "sb7.json": _sphere_groups(7),
        "pg7.json": _polygon_groups(7),
        "pg8.json": _polygon_groups(8),
        "rp2.json": RP2_GROUPS,
    }
    # Every round has the same mix, in four cost groups: light (about
    # 0.15 s), a plateau of mod-2 jobs on the 7-vertex complexes and the
    # 8-gon (about 0.3 s), upper (0.4-0.8 s) and heavy integer stock jobs
    # (over 1 s).  The groups are about 23%, 38%, 15% and 23% of the jobs,
    # so the median falls inside the plateau and the tail inside the heavy
    # jobs, not between two groups.  Integer SNF time on random 8-vertex
    # complexes varies fivefold between complexes of one f-vector, so
    # random integer jobs use 7 vertices and the 8-vertex ones run mod 2,
    # where matrix assembly dominates.
    rounds = []
    for r in range(ROUNDS["ma_homology"]):
        randoms = {}
        for name, m in (("a", 8), ("b", 8), ("c", 7), ("d", 7), ("e", 7), ("g", 7), ("h", 7), ("i", 7), ("f", 6)):
            randoms[name] = f"r{r}_ma{name}.json"
            files[randoms[name]] = document(m, _random_ma_complex(rng, m))
        light = [
            Job("ma-homology", "pg7.json", json=True, expect=stock["pg7.json"]),
            Job("ma-homology", "pg7.json", expect=stock["pg7.json"]),
            Job("ma-homology", "rp2.json", expect=stock["rp2.json"]),
            Job("ma-homology", "rp2.json", mod2=True, expect=mod2_groups(stock["rp2.json"])),
            Job("ma-homology", "rp2.json", json=True, mod2=True, expect=mod2_groups(stock["rp2.json"])),
            Job("ma-homology", randoms["f"], json=True),
        ]
        plateau = [
            Job("ma-homology", path, json=as_json, mod2=True, expect=mod2_groups(stock[path]))
            for path in ("sb7.json", "pg8.json") for as_json in (True, False)
        ] + [
            Job("ma-homology", randoms[name], json=name in "ceh", mod2=True) for name in "cdeghi"
        ]
        upper = [
            Job("ma-homology", randoms["a"], json=True, mod2=True),
            Job("ma-homology", randoms["b"], mod2=True),
            Job("ma-homology", randoms["c"]),
            Job("ma-homology", randoms["d"], json=True),
        ]
        heavy = [
            Job("ma-homology", path, json=as_json, expect=stock[path])
            for path in ("sb7.json", "pg8.json") for as_json in (True, False, path == "sb7.json")
        ]
        rounds.append(_interleave(rng, [heavy, upper, plateau, light]))
    return files, rounds


# -- words ------------------------------------------------------------------

WORD_VERTICES = 10


ARTIN_POWERS = (-3, -2, -1, 1, 2, 3)


def random_letters(rng: random.Random, kind: str, m: int, n: int) -> list[tuple[int, object]]:
    # rng.random() rather than randint: set-up draws about 150,000 letters
    rand = rng.random
    out = []
    for _ in range(n):
        v = 1 + int(rand() * m)
        if kind == "artin":
            out.append((v, ARTIN_POWERS[int(rand() * 6)]))
        elif kind == "coxeter":
            out.append((v, 1))
        else:
            q = 2 + int(rand() * 11)
            out.append((v, Fraction(1 + int(rand() * (q - 1)), q)))
    return out


def reduced_letters(rng: random.Random, kind: str, adj: list[int], n: int) -> list[tuple[int, object]]:
    """A random reduced word: letters that would merge with an earlier one are redrawn."""
    out: list[tuple[int, object]] = []
    while len(out) < n:
        letter = random_letters(rng, kind, len(adj) - 1, 1)[0]
        if oracles.merge_partner(adj, out, letter[0]) < 0:
            out.append(letter)
    return out


def shuffled_padded(rng: random.Random, kind: str, adj: list[int], letters, pads: int):
    """The same group element: commuting neighbours swapped, cancelling pairs inserted."""
    out = list(letters)
    for _ in range(len(out) if len(out) > 1 else 0):
        i = rng.randrange(len(out) - 1)
        if adj[out[i][0]] >> (out[i + 1][0] - 1) & 1:
            out[i], out[i + 1] = out[i + 1], out[i]
    for _ in range(pads):
        pair = random_letters(rng, kind, len(adj) - 1, 1)
        pos = rng.randint(0, len(out))
        out[pos:pos] = pair + oracles.inverse(kind, pair)
    return out


def _graph(rng: random.Random, m: int, edges: int) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return sorted(rng.sample(pairs, edges))


# 4-regular circulant graphs on 10 vertices (i ~ i +- s): the words
# workload cycles through them, with vertices relabelled at random, so that
# every run sees the same mix of commutation structures
CIRCULANT_STEPS = ((1, 2), (1, 3), (1, 4), (2, 3))


def _circulant(rng: random.Random, m: int, steps) -> list[tuple[int, int]]:
    label = list(range(1, m + 1))
    rng.shuffle(label)
    return sorted({tuple(sorted((label[i], label[(i + s) % m]))) for i in range(m) for s in steps})


def _word_jobs(rng, kind, path, m, adj, cancel_lens, plain_lens, equal_len, equal_pairs, as_json=True):
    """Reduce cancelling words w u u^-1 w^-1 and random words; compare pairs.

    ``cancel_lens`` and ``plain_lens`` give the length of each cancelling
    and each random word.
    ``equal_pairs`` lists, per word-equal job, whether its second word is a
    shuffled and padded copy of the first (equal) or that plus one letter.
    """
    # reduced w and u: a cancelling word collapses from the middle out,
    # and a random word barely cancels
    fmt = oracles.format_word
    jobs = []
    for cancel_len in cancel_lens:
        w = reduced_letters(rng, kind, adj, cancel_len // 2 - 4)
        u = reduced_letters(rng, kind, adj, 4)
        cancelling = w + u + oracles.inverse(kind, u) + oracles.inverse(kind, w)
        jobs.append(Job("word-reduce", path, json=as_json, group=kind, words=(fmt(kind, cancelling),)))
    for plain_len in plain_lens:
        plain = reduced_letters(rng, kind, adj, plain_len)
        jobs.append(Job("word-reduce", path, json=as_json, group=kind, words=(fmt(kind, plain),)))
    for i, equal in enumerate(equal_pairs):
        base = reduced_letters(rng, kind, adj, equal_len)
        other = shuffled_padded(rng, kind, adj, base, max(1, equal_len // 20))
        if not equal:
            other.insert(rng.randint(0, len(other)), random_letters(rng, kind, m, 1)[0])
        jobs.append(Job("word-equal", path, json=bool(i % 2), group=kind,
                        words=(fmt(kind, base), fmt(kind, other))))
    return jobs


# Every round has the same lengths, so the same cost.  Per group kind: two
# word-equal jobs on 1,000-letter words (about 0.25 s), two cancelling
# words of 2,400 letters (about 0.5 s) and two random words of 2,000
# letters (about 0.8 s).  The three cost groups are a third of the jobs
# each, so the median falls inside the cancelling jobs and the tail
# inside the random ones, not between two groups of jobs.
CANCEL_LENGTHS = (2400, 2400)
PLAIN_LENGTHS = (2000, 2000)
EQUAL_LENGTH = 1000


def _words(rng: random.Random):
    files = {}
    rounds = []
    for r in range(ROUNDS["words"]):
        path = f"r{r}_graph.json"
        edges = _circulant(rng, WORD_VERTICES, CIRCULANT_STEPS[r % len(CIRCULANT_STEPS)])
        files[path] = document(WORD_VERTICES, edges)
        adj = oracles.adjacency(WORD_VERTICES, edges)
        per_kind = [
            _word_jobs(rng, kind, path, WORD_VERTICES, adj, CANCEL_LENGTHS, PLAIN_LENGTHS,
                       EQUAL_LENGTH, equal_pairs=(True, False))
            for kind in KINDS
        ]
        # job i of every kind has the same length and cost
        rounds.append(_interleave(rng, [list(jobs) for jobs in zip(*per_kind)]))
    return files, rounds


# -- survey -----------------------------------------------------------------


BIG_CANDIDATES = 16


def _survey(rng: random.Random):
    files = {}
    rounds = []
    for r in range(ROUNDS["survey"]):
        jobs = []
        for i in range(3):
            m = rng.randint(10, 30)
            facets = _random_facets(rng, m, rng.randint(m // 2, m), 2, 5)
            path = f"r{r}_k{i}.json"
            files[path] = document(m, facets, f"random {m}-vertex complex")
            # L contains K: extra faces inside K's 1-skeleton cliques keep
            # L within the flagification, a new edge usually does not
            big = list(facets)
            if i % 2:
                big.append(sorted(rng.sample(range(1, m + 1), 2)))
            else:
                cliques = [f for f in oracles.clique_complex(m, oracles.face_set(m, facets)) if f.bit_count() >= 2]
                big.append(oracles.vertices(max(cliques, key=lambda f: (f.bit_count(), f))))
            with_path = f"r{r}_l{i}.json"
            files[with_path] = document(m, big)
            mode = ("real", "complex", "exterior")[i]
            degree = {"real": 3, "complex": 6, "exterior": 3}[mode]
            jobs.append([
                Job("info", path, json=i == 1),
                Job("flagify", path),
                Job("bcat-cells", path, json=i != 1),
                Job("sr-hilbert", path, json=i != 2, mode=mode, degree=degree),
                Job("sr-basis", path, json=i == 0, mode=mode, degree=degree),
                Job("arrangement", path, json=i != 0, field=("R", "C", "E")[i]),
                Job("pair-connectivity", path, json=i != 2, with_path=with_path),
            ])
        # three larger complexes per round: of a fixed number of random
        # candidates (21-23 vertices, twelve 6-vertex facets), the three
        # whose flagifications are closest to 1,700 faces, where rendering
        # the flag complex takes about 0.3 s.  With three a round the tail
        # falls inside those jobs, and a fixed number of candidates keeps
        # set-up time the same for every seed.
        candidates = []
        for _ in range(BIG_CANDIDATES):
            m = rng.randint(21, 23)
            facets = _random_facets(rng, m, 12, 6, 6)
            flag_faces = len(oracles.clique_complex(m, oracles.face_set(m, facets)))
            candidates.append((abs(flag_faces - 1700), len(candidates), m, facets))
        for i, (_, _, m, facets) in enumerate(sorted(candidates)[:3]):
            path = f"r{r}_big{i}.json"
            files[path] = document(m, facets, f"random {m}-vertex complex")
            jobs.append([Job("flagify", path)])
            if i == 0:
                jobs.append([
                    Job("info", path, json=True),
                    Job("bcat-cells", path),
                    Job("sr-basis", path, json=True, mode="exterior", degree=3),
                ])
        tiny = []
        for i, m in enumerate((4, 5)):
            path = f"r{r}_ma{i}.json"
            files[path] = document(m, _random_facets(rng, m, rng.randint(2, 4), 2, 3))
            tiny.append(Job("ma-homology", path, json=i == 0))
            tiny.append(Job("ma-homology", path, json=True, mod2=True))
        m = rng.randint(6, 12)
        path = f"r{r}_graph.json"
        edges = _graph(rng, m, m * (m - 1) // 4)
        files[path] = document(m, edges)
        adj = oracles.adjacency(m, edges)
        kind = KINDS[r % 3]
        words = _word_jobs(rng, kind, path, m, adj, (rng.randint(40, 80),), (rng.randint(40, 80),),
                           rng.randint(20, 40), (True, False), as_json=r % 2 == 0)
        rounds.append(_interleave(rng, [*jobs, tiny, words]))
    return files, rounds


_GENERATORS = {"ma_homology": _ma_homology, "words": _words, "survey": _survey}


def generate(workload: str, seed: int) -> tuple[dict[str, bytes], list[list[Job]]]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)
