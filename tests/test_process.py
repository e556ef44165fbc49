"""The CLI as a process, ``python -m combitop.cli``, against ``cli.main`` in-process.

The process ends through ``cli.entry``: it exits right after flushing its output,
or normally under a tracer or profiler or when a flush fails.
"""

import contextlib
import fcntl
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from combitop.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

DOCS = {
    "BOUNDARY3": {"name": "boundary3", "vertices": 3, "maximal_faces": [[1, 2], [1, 3], [2, 3]]},
    "SQUARE": {"vertices": 4, "maximal_faces": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    "SIMPLEX4": {"vertices": 4, "maximal_faces": [[1, 2, 3, 4]]},
    "GHOSTS17": {"vertices": 17, "maximal_faces": []},
    "SIMPLEX6": {"vertices": 6, "maximal_faces": [[1, 2, 3, 4, 5, 6]]},
}

COMMANDS = [
    ["info", "BOUNDARY3"],
    ["flagify", "SQUARE"],
    ["sr-hilbert", "--mode", "real", "--degree", "3", "SQUARE"],
    ["sr-basis", "--mode", "complex", "--degree", "2", "SQUARE"],
    ["word-reduce", "--group", "artin", "SQUARE", "v1^1 v2^1 v1^-1"],
    ["word-equal", "--group", "circulation", "SQUARE", "t1@1/2 t2@1/3", "t2@1/3 t1@1/2"],
    ["ma-homology", "BOUNDARY3"],
    ["ma-homology", "--mod2", "SQUARE"],
    ["bcat-cells", "SIMPLEX4"],
    ["arrangement", "--field", "C", "SQUARE"],
    ["pair-connectivity", "--with", "SQUARE", "SIMPLEX4"],
    ["ma-homology", "GHOSTS17"],  # refused: exit 1
    ["info", "--bogus", "x"],  # a bad command line: exit 2
    ["-h"],
    ["sr-basis", "-h"],
    # 66,600 bytes in text, more than a 64 KiB pipe holds
    ["sr-basis", "--mode", "real", "--degree", "26", "SIMPLEX4"],
]


@pytest.fixture
def in_docs(tmp_path, monkeypatch):
    """The documents, in the working directory of the test and of its processes."""
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)


def env(buffered: bool) -> dict:
    out = {**os.environ, "PYTHONPATH": SRC}
    out.pop("PYTHONUNBUFFERED", None)
    return out if buffered else {**out, "PYTHONUNBUFFERED": "1"}


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "combitop.cli", *args]


def in_process(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_process_matches_main(in_docs, argv, as_json):
    argv = ["--json", *argv] if as_json else argv
    want = in_process(argv)
    # stdout to a pipe and to a file, buffered and not, the four processes at once
    with tempfile.TemporaryFile() as f1, tempfile.TemporaryFile() as f2:
        runs = []
        for buffered in (True, False):
            for sink in (subprocess.PIPE, f1 if buffered else f2):
                proc = subprocess.Popen(cli_argv(*argv), env=env(buffered), stdout=sink,
                                        stderr=subprocess.PIPE)
                runs.append((sink, proc))
        for sink, proc in runs:
            out, err = proc.communicate(timeout=60)
            if sink is not subprocess.PIPE:
                sink.seek(0)
                out = sink.read()
            assert (proc.returncode, out, err) == want, (sink, proc.args)


def read_5_bytes_then_close(argv, head=b"v1^26", buffered=True, shared=False) -> tuple[int, bytes]:
    """The exit code and stderr of a process whose stdout reader leaves after 5 bytes;
    ``shared`` puts stderr on the same pipe, so that the error is None."""
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 16)
    with os.fdopen(r, "rb", buffering=0) as reader:
        proc = subprocess.Popen(argv, env=env(buffered), stdout=w,
                                stderr=w if shared else subprocess.PIPE)
        os.close(w)
        assert reader.read(5) == head
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def test_broken_pipe_is_reported_by_the_normal_exit(in_docs):
    # The 66,600-byte output fills the 64 KiB pipe, and its write blocks until the
    # reader closes; the rest, under a buffer's worth, waits in the stdout buffer
    # for the last flush, which fails.  The normal exit reports that as "Exception
    # ignored" with exit code 120, as a process without entry's early exit does;
    # the rest of the message depends on the Python version.
    args = ("sr-basis", "--mode", "real", "--degree", "26", "SIMPLEX4")
    code, err = read_5_bytes_then_close(cli_argv(*args))
    assert code == 120
    assert err.startswith(b"Exception ignored")
    assert b"BrokenPipeError" in err and b"Traceback" not in err
    plain = "import sys; from combitop.cli import main; sys.exit(main())"
    assert read_5_bytes_then_close([sys.executable, "-c", plain, *args]) == (code, err)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_broken_pipe_mid_output_ends_as_a_short_one(in_docs, as_json):
    # 78,126 bytes in text, more than the pipe and a stdout buffer hold: the write
    # that fails is one of main's, not the last flush.  It ends as the 66,600-byte
    # output above does, with no traceback.
    args = ["--json"] * as_json + ["sr-basis", "--mode", "real", "--degree", "11", "SIMPLEX6"]
    head = b"[\n  [" if as_json else b"v1^11"
    short = read_5_bytes_then_close(cli_argv("sr-basis", "--mode", "real", "--degree", "26",
                                             "SIMPLEX4"))
    assert short[0] == 120 and b"BrokenPipeError" in short[1]
    assert read_5_bytes_then_close(cli_argv(*args), head) == short
    plain = "import sys; from combitop.cli import main; sys.exit(main())"
    assert read_5_bytes_then_close([sys.executable, "-c", plain, *args], head) == short


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_broken_pipe_shared_with_stderr(in_docs, buffered):
    # as under `2>&1 | head -c 5`: the report of the failed write fails as well, and
    # the exit code, 120, says it all; an uncaught BrokenPipeError would exit 1
    args = ["--json", "sr-basis", "--mode", "real", "--degree", "11", "SIMPLEX6"]
    assert read_5_bytes_then_close(cli_argv(*args), b"[\n  [", buffered, shared=True) == (120, None)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["info", "BOUNDARY3"],
                                  ["--json", "sr-basis", "--mode", "real", "--degree", "11",
                                   "SIMPLEX6"]], ids=" ".join)
def test_full_device(in_docs, argv, buffered):
    # every write fails with ENOSPC: unbuffered, main reports the first on one line;
    # buffered, the normal exit reports the failed last flush
    with open("/dev/full", "wb") as full:
        done = subprocess.run(cli_argv(*argv), env=env(buffered), stdout=full,
                              stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 120
    if buffered:
        assert done.stderr.startswith(b"Exception ignored")
        assert b"OSError" in done.stderr and b"Traceback" not in done.stderr
    else:
        assert done.stderr == b"error: cannot write output: No space left on device\n"


def test_closed_stdout(in_docs):
    # started with descriptor 1 closed, the process has sys.stdout None and prints nothing
    argv = cli_argv("info", "BOUNDARY3")
    done = subprocess.run(argv, env=env(buffered=True), stderr=subprocess.PIPE, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, b"")


def test_profiler_still_reports(in_docs):
    argv = [sys.executable, "-m", "cProfile", "-m", "combitop.cli", "info", "BOUNDARY3"]
    done = subprocess.run(argv, env=env(buffered=True), capture_output=True, timeout=60)
    _, out, err = in_process(["info", "BOUNDARY3"])
    assert (done.returncode, done.stderr) == (0, err)
    assert done.stdout.startswith(out)
    assert b"function calls" in done.stdout and b"Ordered by" in done.stdout


OBSERVERS = {
    "none": "",
    "settrace": "sys.settrace(lambda *a: None)\n",
    "setprofile": "sys.setprofile(lambda *a: None)\n",
    # cProfile from Python 3.12, and coverage's sysmon core, register a tool instead
    "monitoring": "sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'test')\n",
}


@pytest.mark.parametrize("observer", OBSERVERS)
def test_atexit_runs_only_under_a_tracer(in_docs, observer):
    if observer == "monitoring" and not hasattr(sys, "monitoring"):
        pytest.skip("sys.monitoring is new in Python 3.12")
    traced = observer != "none"
    script = (
        "import atexit, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        + OBSERVERS[observer]
        + "from combitop.cli import entry\n"
        "sys.argv[1:] = ['bcat-cells', 'SIMPLEX4']\n"
        "entry()\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env(buffered=True),
                          capture_output=True, timeout=60)
    _, out, _ = in_process(["bcat-cells", "SIMPLEX4"])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out + b"atexit ran\n" * traced
