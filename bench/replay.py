"""In-process replay of CLI jobs, with spans around each call into a module.

Each replay method makes the public calls its subcommand in ``combitop.cli``
makes, in the same order, and wraps each in a span named after the layer
(the module) and the stage.  Spans live in memory until the run writes
them out.  Size counts are read from the returned objects after the job's
spans have closed, so counting costs no span time.

Rendering is replayed as ``json.dumps`` of the payload the subcommand
prints, in either output mode; ``flagify`` renders through
``cli.emit_complex`` as the CLI does.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Recorder:
    """Collects spans; ``span()`` nests under the span that is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += s.end - s.start - c
        return out

    def write(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "job": s.job}) + "\n")


class NullRecorder:
    """The untraced side of the overhead comparison: spans cost one call."""

    @contextmanager
    def span(self, name: str):
        yield


class Replayer:
    """Replays jobs against the ``combitop`` package found on ``sys.path``."""

    LAYERS = ("cli", "simplicial", "connectivity", "arrangement", "facecat",
              "sralg", "macomplex", "homology", "graphprod")

    def __init__(self, input_dir: str):
        # modules by import path: the package namespace rebinds some
        # module names (``arrangement``) to functions
        for name in self.LAYERS:
            setattr(self, name, importlib.import_module(f"combitop.{name}"))
        self.dir = input_dir

    def run(self, job, rec, counts: dict[str, int] | None):
        """Replay one job; returns its output as the subcommand prints it with ``--json``."""
        keep: dict = {}
        with rec.span("job"):
            out = getattr(self, "_" + job.cmd.replace("-", "_"))(job, rec, keep)
        if counts is not None:
            self._count(keep, counts)
        return out

    # -- shared steps --------------------------------------------------

    def _parse(self, path, rec, keep):
        with rec.span("cli.read"):
            with open(f"{self.dir}/{path}", encoding="utf-8") as fh:
                doc = json.loads(fh.read())
        with rec.span("simplicial.build"):
            K = self.simplicial.SimplicialComplex.from_maximal_faces(doc["vertices"], doc["maximal_faces"])
        keep.setdefault("complexes", []).append(K)
        return K, doc.get("name")

    @staticmethod
    def _emit(rec, payload) -> str:
        with rec.span("cli.emit"):
            return json.dumps(payload, indent=2)

    # -- subcommands ---------------------------------------------------

    def _info(self, job, rec, keep):
        K, name = self._parse(job.path, rec, keep)
        with rec.span("connectivity.report"):
            report = self.connectivity.connectivity_report(K)
        with rec.span("simplicial.missing_faces"):
            missing = K.missing_faces()
        with rec.span("simplicial.query"):
            dim, fvec, count = K.dim, K.f_vector(), self.facecat.object_count(K)
        fmt = self.cli._fmt_num
        return self._emit(rec, {
            "name": name, "vertices": K.m, "dimension": dim, "f_vector": list(fvec),
            "face_count": count, "flag": report.flag, "missing_faces": [list(w) for w in missing],
            "c": fmt(report.c), "c_prime": fmt(report.c_prime),
            "d": {k: fmt(v) for k, v in report.d.items()},
            "d_prime": {k: fmt(v) for k, v in report.d_prime.items()},
        })

    def _flagify(self, job, rec, keep):
        K, name = self._parse(job.path, rec, keep)
        with rec.span("simplicial.flagify"):
            F = K.flagify()
        keep["flag"] = F
        with rec.span("cli.emit"):
            return json.dumps(self.cli.emit_complex(F, name), indent=2)

    def _sr_hilbert(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        with rec.span("sralg.hilbert"):
            series = self.sralg.hilbert_series(K, self.sralg.GradingMode(job.mode))
            coefficient = series.coefficient(job.degree)
        return self._emit(rec, {
            "numerator": list(series.numerator), "denominator_power": series.denominator_power,
            "generator_degree": series.step, "degree": job.degree, "coefficient": coefficient,
        })

    def _sr_basis(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        with rec.span("sralg.basis"):
            basis = self.sralg.monomial_basis(K, self.sralg.GradingMode(job.mode), job.degree)
        keep["basis"] = basis
        return self._emit(rec, [[list(p) for p in mono.powers] for mono in basis])

    def _group_words(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        gp = self.graphprod
        with rec.span("graphprod.parse"):
            graph = gp.CommutationGraph.from_complex(K)
            words = [gp.parse_word(job.group, graph, text) for text in job.words]
        keep["words_in"] = words
        return gp, graph, words

    def _word_reduce(self, job, rec, keep):
        gp, graph, (w,) = self._group_words(job, rec, keep)
        with rec.span("graphprod.normal_form"):
            nf = gp.normal_form(w)
        keep["words_out"] = [nf]
        with rec.span("cli.emit"):
            text = gp.format_word(nf)
        with rec.span("graphprod.wordlength"):
            length = gp.wordlength(nf)
        with rec.span("graphprod.blocks"):
            blocks = gp.cartier_foata_blocks(nf)
        with rec.span("cli.emit"):
            rendered = [gp.format_word(gp.GroupWord(job.group, graph, b)) for b in blocks]
        return self._emit(rec, {"word": text, "length": length, "blocks": rendered})

    def _word_equal(self, job, rec, keep):
        gp, _, (w1, w2) = self._group_words(job, rec, keep)
        with rec.span("graphprod.equal"):
            result = gp.equal(w1, w2)
        return self._emit(rec, {"equal": result})

    def _ma_homology(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        with rec.span("macomplex.build"):
            X = self.macomplex.real_moment_angle(K)
        with rec.span("homology.assemble"):
            C = X.chain_complex()
        with rec.span("homology.gf2" if job.mod2 else "homology.snf"):
            groups = C.homology(mod2=job.mod2)
        keep["model"], keep["chain"] = X, C
        return self._emit(rec, [
            {"dim": k, "betti": g.betti, "torsion": list(g.torsion)} for k, g in enumerate(groups)
        ])

    def _bcat_cells(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        with rec.span("facecat.model"):
            model = self.facecat.cubical_model(K)
            counts = model.cell_counts()
            total = model.cell_count()
            chi = model.euler_characteristic()
        keep["cells"] = total
        return self._emit(rec, {"cells_by_dimension": list(counts), "total": total,
                                "euler_characteristic": chi})

    def _arrangement(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        with rec.span("arrangement.build"):
            A = self.arrangement.arrangement(K, job.field)
        return self._emit(rec, {"field": A.field, "generators": [list(g) for g in A.generators],
                                "codimensions": list(A.codimensions())})

    def _pair_connectivity(self, job, rec, keep):
        K, _ = self._parse(job.path, rec, keep)
        L, _ = self._parse(job.with_path, rec, keep)
        with rec.span("connectivity.pair"):
            c, degrees = self.connectivity.pair_connectivity(K, L)
        fmt = self.cli._fmt_num
        return self._emit(rec, {"c": fmt(c), "d": {k: fmt(v) for k, v in degrees.items()}})

    # -- counts, taken outside every span -------------------------------

    @staticmethod
    def _count(keep, counts: dict[str, int]) -> None:
        for K in keep.get("complexes", ()):
            counts["simplicial.faces"] += len(K.face_masks)
        if "flag" in keep:
            n = len(keep["flag"].face_masks)
            counts["simplicial.flag_faces"] += n
            counts["cli.emit_faces"] += n
        if "basis" in keep:
            counts["sralg.basis_size"] += len(keep["basis"])
        if "cells" in keep:
            counts["facecat.cells"] += keep["cells"]
        if "model" in keep:
            counts["macomplex.cells"] += keep["model"].cell_count()
            for b in keep["chain"].boundaries:
                counts["homology.matrix_entries"] += len(b) * (len(b[0]) if b else 0)
                counts["homology.nonzeros"] += sum(len(row) - row.count(0) for row in b)
        for w in keep.get("words_in", ()):
            counts["graphprod.letters_in"] += len(w)
        for w in keep.get("words_out", ()):
            counts["graphprod.letters_out"] += len(w)
