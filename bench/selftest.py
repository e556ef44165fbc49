"""Self-tests of the benchmark: seeded inputs repeat, and checkers reject wrong output.

Run from the root of a source checkout:

    python3 bench/selftest.py

The checkers are exercised on real CLI output (``combitop.cli.main`` called
in-process on round 0 of each workload) and on corrupted copies of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402


def cli_output(job, directory: str) -> str:
    from combitop.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(job.argv())
    finally:
        os.chdir(cwd)
    assert code == 0, (job, code)
    return out.getvalue()


def _bump_json(stdout: str, edit) -> str:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload)


def _homology_corruptions(job, stdout):
    if job.json:
        rows = json.loads(stdout)
        # +1 in two neighbouring dimensions keeps the Euler characteristic
        for k in range(len(rows) - 1):
            yield json.dumps([dict(r, betti=r["betti"] + (r["dim"] in (k, k + 1))) for r in rows])
        yield json.dumps([dict(r, torsion=r["torsion"] + [2]) if r["dim"] == 1 else r for r in rows])
    else:
        lines = stdout.splitlines()
        yield "\n".join(lines[:-1]) + "\n"
        yield stdout.replace("H_0 = Z\n", "H_0 = Z^2\n")


def _word_reduce_corruptions(job, stdout):
    extra = {"artin": "v1^1", "coxeter": "a1", "circulation": "t1@1/2"}[job.group]
    if job.json:
        p = json.loads(stdout)
        yield json.dumps(dict(p, length=p["length"] + 1))
        word = extra if p["word"] == "e" else f"{p['word']} {extra}"
        yield json.dumps(dict(p, word=word, length=p["length"] + 1, blocks=p["blocks"] + [extra]))
        if len(p["blocks"]) > 1:
            yield json.dumps(dict(p, blocks=p["blocks"][::-1]))
    else:
        word = stdout.strip()
        yield extra if word == "e" else f"{word} {extra}"
        yield " ".join(word.split()[::-1]) if len(word.split()) > 1 else f"{extra} {extra}"


def _word_equal_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.update(equal=not p["equal"]))
    else:
        yield {"true": "false", "false": "true"}[stdout.strip()]


def _info_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p["f_vector"].__setitem__(0, p["f_vector"][0] + 1))
        yield _bump_json(stdout, lambda p: p.update(missing_faces=p["missing_faces"][1:] or [[1, 2]]))
        yield _bump_json(stdout, lambda p: p.update(flag=not p["flag"]))
    else:
        yield re.sub(r"^c: .*$", "c: 0", stdout, flags=re.M)
        yield re.sub(r"^f-vector: \((\d+)", lambda m: f"f-vector: ({int(m.group(1)) + 1}", stdout, flags=re.M)


def _flagify_corruptions(job, stdout):
    yield _bump_json(stdout, lambda p: p.update(maximal_faces=p["maximal_faces"][1:]))


def _bcat_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.update(total=p["total"] + 1))
        yield _bump_json(stdout, lambda p: p.update(euler_characteristic=0))
    else:
        yield re.sub(r"total cells: (\d+)", lambda m: f"total cells: {int(m.group(1)) + 1}", stdout)


def _sr_hilbert_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.update(coefficient=p["coefficient"] + 1))
        yield _bump_json(stdout, lambda p: p.update(numerator=p["numerator"] + [1]))
    else:
        yield re.sub(r"(coefficient of t\^\d+): (\d+)", lambda m: f"{m.group(1)}: {int(m.group(2)) + 1}", stdout)


def _sr_basis_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.pop())
        yield _bump_json(stdout, lambda p: p.append(p[0]))
    else:
        yield re.sub(r"count: (\d+)", lambda m: f"count: {int(m.group(1)) + 1}", stdout)


def _arrangement_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.update(generators=p["generators"][1:] or [[1, 2]]))
        yield _bump_json(stdout, lambda p: p.update(codimensions=[c + 1 for c in p["codimensions"]] or [1]))
    else:
        lines = stdout.splitlines()
        yield "\n".join(lines[:-1] if len(lines) > 2 else lines + ["  {1,2} codim 2"]) + "\n"


def _pair_corruptions(job, stdout):
    if job.json:
        yield _bump_json(stdout, lambda p: p.update(c=0 if p["c"] != 0 else 1))
    else:
        yield re.sub(r"c\(K,L\): .*", "c(K,L): 0", stdout)


CORRUPTIONS = {
    "ma-homology": _homology_corruptions,
    "word-reduce": _word_reduce_corruptions,
    "word-equal": _word_equal_corruptions,
    "info": _info_corruptions,
    "flagify": _flagify_corruptions,
    "bcat-cells": _bcat_corruptions,
    "sr-hilbert": _sr_hilbert_corruptions,
    "sr-basis": _sr_basis_corruptions,
    "arrangement": _arrangement_corruptions,
    "pair-connectivity": _pair_corruptions,
}


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                files1, rounds1 = workloads.generate(name, 7)
                files2, rounds2 = workloads.generate(name, 7)
                self.assertEqual(files1, files2)
                self.assertEqual([[j.argv() for j in r] for r in rounds1],
                                 [[j.argv() for j in r] for r in rounds2])

    def test_other_seed_gives_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))

    def test_word_arguments_fit_one_exec_argument(self):
        for name in ("words", "survey"):
            _, rounds = workloads.generate(name, 7)
            longest = max(len(w.encode()) for r in rounds for j in r for w in j.words)
            self.assertLess(longest, 128 * 1024)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_metrics())


class Oracles(unittest.TestCase):
    def test_splitting_oracle_matches_closed_forms(self):
        cases = [
            (7, workloads._simplex_boundary(7), workloads._sphere_groups(7)),
            (7, workloads._polygon(7), workloads._polygon_groups(7)),
            (6, workloads.RP2, workloads.RP2_GROUPS),
        ]
        for m, facets, groups in cases:
            got = oracles.moment_angle_groups(m, oracles.face_set(m, facets))
            self.assertEqual([b for b, _ in got], [b for b, _ in groups])
            self.assertEqual([t[2] for _, t in got], [sum(1 for d in tors if d % 2 == 0) for _, tors in groups])

    def test_reference_reduction_cancels_inverse(self):
        adj = oracles.adjacency(3, [(1, 2)])
        word = [(1, 2), (3, -1), (2, 1), (1, -1)]
        self.assertEqual(oracles.reduce_word("artin", adj, word + oracles.inverse("artin", word)), [])
        self.assertEqual(oracles.reduce_word("artin", adj, [(1, 1), (2, 1), (1, 1)]), [(1, 2), (2, 1)])
        self.assertEqual(len(oracles.reduce_word("artin", adj, [(1, 1), (3, 1), (1, 1)])), 3)

    def test_yardstick_scales_by_its_median(self):
        yardstick = run.Yardstick(HERE)
        self.assertGreater(yardstick.measure(), 0)
        yardstick.times = [0.2, 0.3, 0.1]
        self.assertAlmostEqual(yardstick.scale(), run.YARDSTICK_NOMINAL_S / 0.2)

    def test_tail_has_ten_samples_beyond(self):
        value, pct = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, pct), (29.0, 75.0))
        self.assertEqual(run.tail([1.0, 3.0, 2.0]), (3.0, 100.0))


class Checkers(unittest.TestCase):
    """Real output passes; each corruption of it, and process failures, do not."""

    @classmethod
    def setUpClass(cls):
        cls.cases = []
        cls.tmp = tempfile.TemporaryDirectory()
        for name in workloads.WORKLOADS:
            files, rounds = workloads.generate(name, 3)
            directory = os.path.join(cls.tmp.name, name)
            os.makedirs(directory)
            for fname, data in files.items():
                with open(os.path.join(directory, fname), "wb") as fh:
                    fh.write(data)
            inputs = checks.Inputs(files)
            for job in rounds[0]:
                cls.cases.append((name, job, cli_output(job, directory), inputs))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_every_subcommand_is_covered(self):
        self.assertEqual({job.cmd for _, job, _, _ in self.cases}, set(checks.CHECKERS))
        self.assertEqual(set(CORRUPTIONS), set(checks.CHECKERS))

    def test_real_output_passes(self):
        for name, job, out, inputs in self.cases:
            with self.subTest(workload=name, job=job.label, path=job.path):
                self.assertIsNone(checks.check_process(job, 0, out, "", inputs))

    def test_corrupted_output_fails(self):
        for name, job, out, inputs in self.cases:
            variants = list(CORRUPTIONS[job.cmd](job, out))
            self.assertTrue(variants, job)
            for bad in variants:
                with self.subTest(workload=name, job=job.label, path=job.path, bad=bad[:200]):
                    self.assertIsNotNone(checks.check(job, bad, inputs))

    def test_empty_or_garbled_output_fails(self):
        for name, job, out, inputs in self.cases:
            with self.subTest(workload=name, job=job.label, path=job.path):
                self.assertIsNotNone(checks.check(job, "", inputs))
                if len(out.strip()) > 2:  # half of "e" (the identity) is still "e"
                    self.assertIsNotNone(checks.check(job, out[: len(out) // 2], inputs))

    def test_job_over_its_time_limit_is_killed(self):
        name, job, _, inputs = self.cases[0]
        env = run.child_env(os.path.join(os.path.dirname(HERE), "src"))
        elapsed, code, out, err, _ = run.run_job(job, os.path.join(self.tmp.name, name), env, 0.01)
        self.assertIsNone(code)
        self.assertLess(elapsed, 5)
        self.assertEqual(checks.check_process(job, code, out, err, inputs), "timed out")

    def test_process_failures_fail(self):
        _, job, out, inputs = self.cases[0]
        self.assertEqual(checks.check_process(job, None, out, "", inputs), "timed out")
        self.assertIsNotNone(checks.check_process(job, 1, out, "error: boom", inputs))
        self.assertIsNotNone(checks.check_process(job, 0, out, "Traceback (most recent call last):", inputs))


if __name__ == "__main__":
    unittest.main()
