"""`validate` of a large regular file, cut into ranges checked by forked workers.

Every test here shrinks `_RANGE_MIN_BYTES` so that small files split, fixes
the CPU count that bounds the number of ranges, and compares the split run
with the serial pass over the same file read from stdin: the same stdout
bytes, exit code and stderr.  After every run no child process is left.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from twistfrac import _split, cli, enumerate_se, enumerate_sp, to_record

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="validate splits files only where it can fork and count its CPUs")

NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
SETS = {"auto": enumerate_sp(3) + enumerate_se(3), "sp": enumerate_sp(3), "se": enumerate_se(3)}
CUTS = _split._cuts


def _record_lines(kind: str) -> list[str]:
    """Genus-3 records of `kind`, a third of them invalid (a -> a+1), as tuple text
    and JSON by turns, with a blank or whitespace-only line after every fifth."""
    lines = []
    for i, d in enumerate(SETS[kind]):
        d = replace(d, a=d.a + 1) if i % 3 == 0 else d
        lines.append(json.dumps(to_record(d)) if i % 2 else str(d))
        if i % 5 == 0:
            lines.append(" \t"[: i % 3])
    return lines


def _run(argv, capsys):
    out = io.StringIO()
    code = cli.main(argv, stdout=out)
    _assert_no_child_left()
    return code, out.getvalue(), capsys.readouterr().err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_serial(path, args, monkeypatch, capsys):
    """`validate -` with the file at `path` on stdin, opened as `validate` opens a path."""
    with open(path, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        return _run(["validate", "-", *args], capsys)


def _run_split(path, args, cpus, monkeypatch, capsys):
    """`validate PATH` with every file big enough to split into up to `cpus` ranges.

    Returns the run's (exit code, stdout, stderr) and the range bounds it cut.
    """
    monkeypatch.setattr(_split, "_RANGE_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cuts = []

    def recorded_cuts(*cut_args):
        cuts[:] = CUTS(*cut_args)
        return cuts

    monkeypatch.setattr(_split, "_cuts", recorded_cuts)
    return _run(["validate", str(path), *args], capsys), cuts


def _newline_ends(data: bytes) -> list[int]:
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


@pytest.mark.parametrize("newline", NEWLINES)
@pytest.mark.parametrize("kind", SETS)
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_split_file_gives_the_serial_bytes(fmt, kind, newline, tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = (NEWLINES[newline].join(_record_lines(kind)) + NEWLINES[newline]).encode()
    path.write_bytes(data)
    args = ["--format", fmt, "--kind", kind]
    serial = _run_serial(path, args, monkeypatch, capsys)
    assert serial[0] == 2 and serial[2] == ""
    split, cuts = _run_split(path, args, 3, monkeypatch, capsys)
    assert split == serial
    if newline == "cr":  # no newline byte to cut after: one range, the serial pass
        assert cuts == [0, len(data)]
    else:
        assert len(cuts) == 4 and set(cuts[1:-1]) <= set(_newline_ends(data))


def _padded_to_cut_at(body: str, end: int) -> tuple[str, int]:
    """`body` with spaces added so that two ranges meet at the line end `end`.

    Two ranges are cut after the first newline at or past half the size,
    less one, so the cut falls at `end` when the size is twice `end`.  The
    spaces go at the start of the first line or before the last line's
    ending, where every record strips them.  Returns the text and where
    `end` moved to.
    """
    pad = len(body) - 2 * end
    if pad >= 0:
        return " " * pad + body, end + pad
    content = body.rstrip("\r\n")
    return content + " " * -pad + body[len(content):], end


@pytest.mark.parametrize("newline", ["lf", "crlf"])
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_cut_at_every_line_end_gives_the_serial_bytes(fmt, newline, tmp_path, monkeypatch,
                                                        capsys):
    newline = NEWLINES[newline]
    body = newline.join(_record_lines("auto")[:9]) + newline
    assert body.count("\n") == 9 and "" in body.split(newline)  # a blank line among them
    for end in _newline_ends(body.encode())[:-1]:
        text, end = _padded_to_cut_at(body, end)
        path = tmp_path / "records.txt"
        path.write_bytes(text.encode())
        serial = _run_serial(path, ["--format", fmt], monkeypatch, capsys)
        split, cuts = _run_split(path, ["--format", fmt], 2, monkeypatch, capsys)
        assert split == serial
        assert cuts == [0, end, len(text)]


def test_one_range_per_line_gives_the_serial_bytes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = "".join(line + "\n" for line in _record_lines("auto")[:8]).encode()
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    split, cuts = _run_split(path, [], 64, monkeypatch, capsys)
    assert split == serial
    assert cuts == [0, *_newline_ends(data)]  # seven workers and this process


def test_stdin_is_read_in_one_serial_pass(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    path.write_text("".join(line + "\n" for line in _record_lines("auto")))
    split, cuts = _run_split(path, [], 3, monkeypatch, capsys)
    assert len(cuts) == 4
    monkeypatch.setattr(_split, "split_pass", None)  # calling it would raise
    assert _run_serial(path, [], monkeypatch, capsys) == split  # stdin is a regular file here


def test_a_process_with_another_thread_does_not_fork(tmp_path, monkeypatch, capsys):
    # fork() copies only the calling thread, and Python 3.12+ warns when others run
    path = tmp_path / "records.txt"
    path.write_text("".join(line + "\n" for line in _record_lines("auto")))
    serial = _run_serial(path, [], monkeypatch, capsys)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _run_split(path, [], 3, monkeypatch, capsys) == (serial, [])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


SP_LINE = b"((1, 9), 0, (2, 2); (5, 9))"
SP_INVALID = b"((1, 9), 0, (3, 2); (5, 9))"  # parses, but fails condition (iv)
BAD_LINE = b"((1, 9), 0, (2, 2); (5, 9)"
HUGE_GENUS = b"((2, 3), 9" + b"0" * 4299 + b", (1, 1); (1, 3))"  # valid, genus of 4,300 digits


def _with_refusals(parts) -> tuple[bytes, list[int]]:
    """The bytes of `parts`, each a number of side-preserving record lines or
    one refused line, and the offset of each refused line."""
    data, refusals = b"", []
    for part in parts:
        if isinstance(part, int):
            data += b"".join((SP_INVALID if i % 3 else SP_LINE) + b"\n" for i in range(part))
        else:
            refusals.append(len(data))
            data += part + b"\n"
    return data, refusals


# Each case: the file's parts, and how many refusals fall past the first
# of its three near-equal ranges.  Every case runs under --kind sp.
REFUSALS = [
    pytest.param((60, BAD_LINE), 1, id="bad-line"),
    pytest.param((60, b"((3, 10), 0, 4; (6, 10), (6, 10))"), 1, id="kind-mismatch"),
    pytest.param((60, b"\xff("), 1, id="not-utf8"),
    pytest.param((60, b"{}", 30, BAD_LINE), 2, id="two-refusals-in-two-ranges"),
    pytest.param((60, BAD_LINE, 30, b"\xff("), 2, id="decode-error-after-a-bad-line"),
    pytest.param((BAD_LINE, 60), 0, id="bad-line-in-the-first-range"),
    # the serial pass decodes ahead of the line it parses
    pytest.param((BAD_LINE, 60, b"\xff("), 1, id="decode-error-after-a-first-range-bad-line"),
    pytest.param((400, HUGE_GENUS), 1, id="unprintable-genus",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="str() of an int has no digit limit")),
]


@pytest.mark.parametrize("parts, later", REFUSALS)
def test_a_refusal_in_any_range_gives_the_serial_message(parts, later, tmp_path, monkeypatch,
                                                         capsys):
    path = tmp_path / "records.txt"
    data, refusals = _with_refusals(parts)
    path.write_bytes(data)
    serial = _run_serial(path, ["--kind", "sp"], monkeypatch, capsys)
    assert serial[:2] == (1, "") and serial[2].count("\n") == 1
    split, cuts = _run_split(path, ["--kind", "sp"], 3, monkeypatch, capsys)
    assert split == serial
    assert len(cuts) == 4
    assert sum(at >= cuts[1] for at in refusals) == later
    assert len({sum(at >= cut for cut in cuts) for at in refusals}) == len(refusals)


def test_a_cr_only_file_on_stdin_gives_the_path_bytes(tmp_path, monkeypatch, capsys):
    # POSIX stdin ends lines at "\n" alone; `validate -` reads its bytes as a path is read
    path = tmp_path / "records.txt"
    data = SP_LINE + b"\r" + SP_INVALID + b"\r" + SP_LINE + b"\r"
    path.write_bytes(data)
    split, cuts = _run_split(path, [], 3, monkeypatch, capsys)
    assert split == (2, "valid genus=4\ninvalid: condition (ii), condition (iii), condition (iv)\n"
                        "valid genus=4\n", "")
    assert cuts == [0, len(data)]  # no newline byte to cut after
    # Python's own stdin on POSIX
    with open(path, "rb") as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert _run(["validate", "-"], capsys) == split
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with open(path, "rb") as stdin:
        child = subprocess.run([sys.executable, "-m", "twistfrac.cli", "validate", "-"],
                               stdin=stdin, capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stdout, child.stderr) == split


@pytest.mark.parametrize("death", ["killed", "exit-3"])
def test_a_dead_worker_gives_the_serial_bytes(death, tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = _with_refusals([90])[0]
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    assert serial[0] == 2
    parent, check_range = os.getpid(), _split._check_range

    def dying_check_range(fd, start, stop, *rest):
        if os.getpid() != parent and stop < len(data):
            # the worker of the middle range dies before it writes its result
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return check_range(fd, start, stop, *rest)

    monkeypatch.setattr(_split, "_check_range", dying_check_range)
    split, cuts = _run_split(path, [], 3, monkeypatch, capsys)
    assert split == serial
    assert len(cuts) == 4


def test_a_refusal_in_the_first_range_kills_the_workers(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = _with_refusals([BAD_LINE, 90])[0]
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    parent, check_range = os.getpid(), _split._check_range

    def stalling_check_range(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return check_range(*args)

    monkeypatch.setattr(_split, "_check_range", stalling_check_range)
    start = time.monotonic()
    split, cuts = _run_split(path, [], 3, monkeypatch, capsys)
    assert time.monotonic() - start < 30
    assert split == serial
    assert len(cuts) == 4
