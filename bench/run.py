#!/usr/bin/env python3
"""Benchmark of the combitop CLI: end-to-end job metrics, or per-layer metrics from a traced replay.

Run from the root of a source checkout:

    python3 bench/run.py --workload ma_homology --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --seed 1                # every workload, one after another

``--trace 0`` is a closed loop with one client: it starts one
``python -m combitop.cli`` job process at a time, with ``src`` on
``PYTHONPATH``, through the workload's rounds of jobs until ``--seconds``
seconds have passed, then checks every output against
the benchmark's own oracles and reports the end-to-end metrics, with
their times scaled to a fixed speed of the machine (``yardstick.py``).
``--trace 1`` replays the first round of the same jobs in-process, each job
without and with spans around each call into a module, for ``--seconds``
seconds, and reports per-layer self times and sizes.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 5
PROBE_REPEATS = 7
# per-job limits: over ten times the slowest job of each workload at the
# commit that defined the benchmark, and short enough that a run which hits
# one still ends within 180 s
JOB_TIMEOUT_S = {"ma_homology": 40, "words": 20, "survey": 10}

STARTUP_DOC = "startup.json"  # the 3-vertex boundary: the cheapest real job

# The speed of a shared machine drifts by a third over minutes, more than
# the bounds.  A run starts yardstick.py (a fixed pure-Python program that
# does not import combitop) once per set-up and then at most once every
# YARDSTICK_EVERY_S seconds between jobs, and scales every end-to-end time
# by YARDSTICK_NOMINAL_S over the run's median yardstick time: the times
# are reported at the machine speed where the yardstick takes that long.
YARDSTICK = os.path.join(HERE, "yardstick.py")
YARDSTICK_NOMINAL_S = 0.15  # its median on the 2-CPU VM the benchmark was defined on
YARDSTICK_EVERY_S = 2.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# every span the replay opens; each gives the metrics <name>_s and <name>_share
SPANS = (
    "cli.read", "cli.emit",
    "simplicial.build", "simplicial.missing_faces", "simplicial.flagify", "simplicial.query",
    "connectivity.report", "connectivity.pair",
    "arrangement.build",
    "facecat.model",
    "sralg.hilbert", "sralg.basis",
    "macomplex.build",
    "homology.assemble", "homology.snf", "homology.gf2",
    "graphprod.parse", "graphprod.normal_form", "graphprod.wordlength",
    "graphprod.blocks", "graphprod.equal",
)
COUNTS = (
    "cli.emit_faces", "simplicial.faces", "simplicial.flag_faces", "facecat.cells",
    "sralg.basis_size", "macomplex.cells", "homology.matrix_entries", "homology.nonzeros",
    "graphprod.letters_in", "graphprod.letters_out",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [("cli.interpreter_s", "s"), ("cli.startup_s", "s")]
    for name in SPANS:
        out += [(f"{name}_s", "s"), (f"{name}_share", "ratio")]
    out += [(name, "count") for name in COUNTS]
    out += [("homology.density", "ratio"), ("trace.job_s", "s"), ("trace.glue_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


# -- set-up -------------------------------------------------------------------


def child_env(package_root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root
    # keep byte code next to the package copy, inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "combitop.cli", *args]


def set_up(workload: str, seed: int, run_dir: str, rep: int):
    """Generate and write the inputs, copy the package, and make one cold CLI call."""
    rep_dir = os.path.join(run_dir, f"setup{rep}")
    start = time.perf_counter()
    files, rounds = workloads.generate(workload, seed)
    files[STARTUP_DOC] = workloads.document(3, [[1, 2], [1, 3], [2, 3]])
    inputs = os.path.join(rep_dir, "inputs")
    os.makedirs(inputs)
    for name, data in files.items():
        with open(os.path.join(inputs, name), "wb") as fh:
            fh.write(data)
    package_root = os.path.join(rep_dir, "src")
    shutil.copytree(SOURCE, package_root, ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env(package_root)
    cold = subprocess.run(cli_argv(["info", STARTUP_DOC]), cwd=inputs, env=env,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if cold.returncode != 0:
        raise SystemExit(f"cold CLI call failed ({cold.returncode}): {cold.stderr.decode()[-400:]}")
    return elapsed, files, rounds, inputs, env


def set_up_repeatedly(workload: str, seed: int, run_dir: str, yardstick=None):
    """Set up several times; the median is ``setup_s`` and the last set-up is used."""
    times = []
    for rep in range(SETUP_REPEATS):
        if rep:
            shutil.rmtree(os.path.join(run_dir, f"setup{rep - 1}"))
        if yardstick is not None:
            yardstick.measure()
        elapsed, files, rounds, inputs, env = set_up(workload, seed, run_dir, rep)
        times.append(elapsed)
    return statistics.median(times), files, rounds, inputs, env


class Yardstick:
    """Wall times of the yardstick program over one run."""

    def __init__(self, cwd: str):
        self.cwd = cwd
        self.times: list[float] = []
        self.last = -math.inf

    def measure(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, YARDSTICK], cwd=self.cwd, capture_output=True,
                       timeout=60, check=True)
        self.last = time.perf_counter()
        self.times.append(self.last - start)
        return self.last - start

    def measure_if_due(self) -> float:
        """Measure if the last measurement is YARDSTICK_EVERY_S old; the seconds spent."""
        return self.measure() if time.perf_counter() - self.last >= YARDSTICK_EVERY_S else 0.0

    def scale(self) -> float:
        """Measured seconds times this are seconds at the yardstick's nominal speed."""
        return YARDSTICK_NOMINAL_S / statistics.median(self.times)


# -- end-to-end run -------------------------------------------------------------


def run_job(job, inputs: str, env, timeout: float):
    """Run one job process: (wall s, exit code or None on timeout, stdout, stderr, max-RSS KiB)."""
    start = time.perf_counter()
    with tempfile.TemporaryFile(dir=inputs) as out, tempfile.TemporaryFile(dir=inputs) as err:
        proc = subprocess.Popen(cli_argv(job.argv()), cwd=inputs, env=env, stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait4 rather than wait: it reports this child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        code = None if killed.is_set() else proc.returncode
        return (elapsed, code, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), usage.ru_maxrss)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, seed: int, seconds: float, run_dir: str):
    os.makedirs(run_dir)
    yardstick = Yardstick(run_dir)
    setup_s, files, rounds, inputs, env = set_up_repeatedly(workload, seed, run_dir, yardstick)
    timeout = JOB_TIMEOUT_S[workload]
    runs = []
    aside = 0.0  # yardstick time inside the loop, which is not the jobs' time
    start = time.perf_counter()
    # the rounds one after another until time is up; each round's groups
    # are spread evenly over it, so a part round has close to its mix
    for job in itertools.cycle(itertools.chain.from_iterable(rounds)):
        runs.append((job, *run_job(job, inputs, env, timeout)))
        if time.perf_counter() - start - aside >= seconds:
            break
        aside += yardstick.measure_if_due()
    wall = time.perf_counter() - start - aside
    scale = yardstick.scale()

    # checking happens after the timed loop; repeated jobs give repeated outputs
    oracle_inputs = checks.Inputs(files)
    verdicts: dict = {}
    failures = []
    for job, _, code, out, err, _ in runs:
        key = (job, code, out, err)
        if key not in verdicts:
            verdicts[key] = checks.check_process(job, code, out, err, oracle_inputs)
        if verdicts[key] is not None:
            failures.append(f"{job.label} {job.path}: {verdicts[key]}")
    times = [t for _, t, *_ in runs]
    attempted = len(runs)
    tail_s, tail_pct = tail(times)
    measured = {
        "setup_s": setup_s,
        "jobs_per_s": (attempted - len(failures)) / wall,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
    }
    metrics = {
        "setup_s": setup_s * scale,
        "jobs_per_s": measured["jobs_per_s"] / scale,
        "job_p50_s": measured["job_p50_s"] * scale,
        "job_tail_s": tail_s * scale,
        "peak_rss_mb": max(rss for *_, rss in runs) / 1024,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    notes = [
        f"job_tail_s is p{tail_pct:.1f} of {attempted} job wall times",
        f"failed_ratio {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})",
        f"timed wall {wall:.3f} s over {attempted} jobs",
        f"times scaled by {scale:.4f}: yardstick median {statistics.median(yardstick.times):.4f} s "
        f"of {len(yardstick.times)}, nominal {YARDSTICK_NOMINAL_S} s",
        "unscaled: " + " ".join(f"{k} {v:.6f}" for k, v in measured.items()),
    ]
    units = dict(END_TO_END)
    return attempted, failures, {k: (v, units[k]) for k, v in metrics.items()}, notes


# -- traced run -------------------------------------------------------------------


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def probe(argv, cwd, env) -> float:
    """Median wall time of a short process."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(workload: str, seed: int, seconds: float, run_dir: str):
    _, files, rounds, inputs, env = set_up_repeatedly(workload, seed, run_dir)
    interpreter_s = probe([sys.executable, "-c", "pass"], inputs, None)
    startup_s = probe(cli_argv(["info", STARTUP_DOC]), inputs, env)

    sys.path.insert(0, env["PYTHONPATH"])
    replayer = replay.Replayer(inputs)
    oracle_inputs = checks.Inputs(files)
    jobs = rounds[0]
    timeout = JOB_TIMEOUT_S[workload]
    signal.signal(signal.SIGALRM, _alarm)

    def timed(job, rec, counts):
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            out = replayer.run(job, rec, counts)
        except JobTimeout:
            out = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, out

    recorders, ratios, counts, failures = [], [], {name: 0 for name in COUNTS}, []
    start = time.perf_counter()
    while not recorders or time.perf_counter() - start < seconds:
        rec = replay.Recorder()
        plain_s = traced_s = 0.0
        for index, job in enumerate(jobs):
            rec.job = index
            # alternate which side runs first, so warm caches favour neither
            for side in ((0, 1) if (index + len(recorders)) % 2 else (1, 0)):
                if side:
                    elapsed, out = timed(job, rec, counts if not recorders else None)
                    traced_s += elapsed
                    if not recorders:
                        reason = "timed out" if out is None else checks.check(
                            dataclasses.replace(job, json=True), out, oracle_inputs)
                        if reason:
                            failures.append(f"{job.label} {job.path} (replay): {reason}")
                else:
                    plain_s += timed(job, replay.NullRecorder(), None)[0]
        recorders.append(rec)
        ratios.append(traced_s / plain_s)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)

    with open(os.path.join(WORK, f"spans-{workload}-{seed}.jsonl"), "w") as fh:
        for rec in recorders:
            rec.write(fh)

    passes = [rec.self_times() for rec in recorders]
    totals = [sum(p.values()) for p in passes]
    metrics: dict[str, float] = {"cli.interpreter_s": interpreter_s, "cli.startup_s": startup_s}
    for name in SPANS:
        metrics[f"{name}_s"] = statistics.median(p.get(name, 0.0) for p in passes)
        metrics[f"{name}_share"] = statistics.median(p.get(name, 0.0) / t for p, t in zip(passes, totals))
    metrics.update(counts)
    entries = counts["homology.matrix_entries"]
    metrics["homology.density"] = counts["homology.nonzeros"] / entries if entries else 0.0
    metrics["trace.job_s"] = statistics.median(totals)
    metrics["trace.glue_s"] = statistics.median(p.get("job", 0.0) for p in passes)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    unknown = set().union(*passes) - set(SPANS) - {"job"}
    if unknown:
        raise SystemExit(f"spans without a metric: {sorted(unknown)}")
    notes = [
        f"replayed round 0 ({len(jobs)} jobs) {len(recorders)} times, traced and untraced",
        f"homology.density base: {entries} matrix entries",
    ]
    units = dict(per_layer_metrics())
    return len(jobs), failures, {k: (metrics[k], units[k]) for k in units}, notes


# -- entry point --------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        attempted, failures, metrics, notes = (traced if trace else end_to_end)(
            workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"== {workload} seed {seed} {'traced' if trace else 'end-to-end'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    for line in notes:
        print(f"# {line}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "combitop", "cli.py")):
        print(f"error: no combitop source under {SOURCE}; run from a source checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
