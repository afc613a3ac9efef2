"""`validate` of a large regular file, cut into ranges shared with one forked worker.

Every test here shrinks `_RANGE_MIN_BYTES` so that a small file splits into
the ranges it asks for, gives the process two CPUs or more, and compares
the split run with the serial pass over the same file read from stdin: the
same stdout bytes, exit code and stderr.  Each range read, in either
process, is recorded with the bounds it was moved to; a range in which no
line begins is not read.  Temporary files go
to a directory of their own.  After every run no child process and no
temporary file is left.
"""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
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
TEXT = _split._text


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


@pytest.fixture(autouse=True)
def spools(tmp_path, monkeypatch):
    """A directory of its own for the temporary files of each test."""
    spools = tmp_path / "spools"
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))


def _run(argv, capsys):
    out = io.StringIO()
    code = cli.main(argv, stdout=out)
    _assert_no_child_left()
    _assert_no_temporary_file_left()
    return code, out.getvalue(), capsys.readouterr().err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_no_temporary_file_left():
    spools = tempfile.gettempdir()
    if os.path.isdir(spools):
        assert os.listdir(spools) == []
    else:  # a TMPDIR that does not exist is not made
        assert not os.path.exists(spools)


def _run_serial(path, args, monkeypatch, capsys):
    """`validate -` with the file at `path` on stdin, opened as `validate` opens a path."""
    with open(path, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        return _run(["validate", "-", *args], capsys)


def _run_split(path, args, ranges, monkeypatch, capsys, cpus=2):
    """`validate PATH` with the file cut every size // `ranges` bytes, on `cpus` CPUs.

    Returns the run's (exit code, stdout, stderr) and the sorted bounds of
    the ranges read in either process, as `_text` was asked for them.
    """
    monkeypatch.setattr(_split, "_RANGE_MIN_BYTES", path.stat().st_size // ranges)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    log, parent = _log(path), os.getpid()
    log.write_text("")

    def recorded_text(fd, start, stop, *rest, **kwargs):
        if os.path.samestat(os.fstat(fd), os.stat(path)):  # a range, not the spool
            with open(log, "a") as reads:  # appended to by both processes
                reads.write(f"{start} {stop} {os.getpid() != parent}\n")
        return TEXT(fd, start, stop, *rest, **kwargs)

    monkeypatch.setattr(_split, "_text", recorded_text)
    result = _run(["validate", str(path), *args], capsys)
    return result, sorted((int(start), int(stop)) for start, stop, _ in _reads(path))


def _log(path):
    return path.with_name("ranges.log")


def _reads(path) -> list[list[str]]:
    """The (start, stop, read by the worker) of each range the last split run read."""
    return [line.split() for line in _log(path).read_text().splitlines()]


def _planned(data: bytes, ranges: int) -> list[tuple[int, int]]:
    """The ranges of `data` cut every len(data) // `ranges` bytes, the last taking the
    rest, each cut moved just past the first newline byte at or after it, less one.

    A range in which no line begins is left out, as it is not read.
    """
    size = len(data)
    step = size // ranges
    cuts = [data.find(b"\n", at - 1) + 1 or size for at in range(step, size - step + 1, step)]
    return [(start, stop) for start, stop in zip([0, *cuts], [*cuts, size]) if start < stop]


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
    split, read = _run_split(path, args, 3, monkeypatch, capsys)
    assert split == serial
    assert read == _planned(data, 3)
    size = len(data)
    if newline == "cr":  # no newline byte to cut after: one range holds every line
        assert read == [(0, size)]
    else:
        assert len(read) == 3 and {stop for _, stop in read[:-1]} <= set(_newline_ends(data))


def _padded_to_cut_at(body: str, end: int) -> tuple[str, int]:
    """`body` with spaces added so that two ranges meet at the line end `end`.

    Two ranges of half the size are cut after the first newline at or past
    half the size, less one, so the cut falls at `end` when the size is
    twice `end`.  The spaces go at the start of the first line or before
    the last line's ending, where every record strips them.  Returns the
    text and where `end` moved to.
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
        split, read = _run_split(path, ["--format", fmt], 2, monkeypatch, capsys)
        assert split == serial
        assert read == [(0, end), (end, len(text))]


def test_one_range_per_line_gives_the_serial_bytes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = "".join(line + "\n" for line in _record_lines("auto")[:8]).encode()
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # a range of one byte each, on 64 CPUs: every line a range of its own, and one worker
    split, read = _run_split(path, [], len(data), monkeypatch, capsys, cpus=64)
    assert split == serial
    ends = _newline_ends(data)
    assert read == _planned(data, len(data)) == list(zip([0, *ends], ends))
    assert len(forks) == 1


def test_stdin_is_read_in_one_serial_pass(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    path.write_text("".join(line + "\n" for line in _record_lines("auto")))
    split, read = _run_split(path, [], 3, monkeypatch, capsys)
    assert len(read) == 3
    monkeypatch.setattr(_split, "check_ranges", None)  # calling it would raise
    assert _run_serial(path, [], monkeypatch, capsys) == split  # stdin is a regular file here


def test_a_file_smaller_than_two_ranges_is_read_in_one_serial_pass(tmp_path, monkeypatch,
                                                                    capsys):
    path = tmp_path / "records.txt"
    path.write_text("".join(line + "\n" for line in _record_lines("auto")))
    serial = _run_serial(path, [], monkeypatch, capsys)
    assert _run_split(path, [], 1, monkeypatch, capsys) == (serial, [])  # one range's size
    split, read = _run_split(path, [], 2, monkeypatch, capsys)  # two ranges' size: it splits
    assert split == serial and len(read) == 2


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
# of its three ranges.  Every case runs under --kind sp.
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
    split, read = _run_split(path, ["--kind", "sp"], 3, monkeypatch, capsys)
    assert split == serial
    planned = _planned(data, 3)
    assert read and set(read) <= set(planned)  # a refusal may stop a run before every range
    assert sum(at >= planned[0][1] for at in refusals) == later
    assert len({sum(at >= start for start, _ in planned) for at in refusals}) == len(refusals)


def test_a_cr_only_file_on_stdin_gives_the_path_bytes(tmp_path, monkeypatch, capsys):
    # POSIX stdin ends lines at "\n" alone; `validate -` reads its bytes as a path is read
    path = tmp_path / "records.txt"
    data = SP_LINE + b"\r" + SP_INVALID + b"\r" + SP_LINE + b"\r"
    path.write_bytes(data)
    split, read = _run_split(path, [], 3, monkeypatch, capsys)
    assert split == (2, "valid genus=4\ninvalid: condition (ii), condition (iii), condition (iv)\n"
                        "valid genus=4\n", "")
    size = len(data)
    assert read == [(0, size)]  # no newline byte to cut after
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
        if os.getpid() != parent:
            # the worker dies in its first range, before it sends anything back
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return check_range(fd, start, stop, *rest)

    monkeypatch.setattr(_split, "_check_range", dying_check_range)
    split, read = _run_split(path, [], 3, monkeypatch, capsys)
    assert split == serial
    assert read == _planned(data, 3)  # every range read here


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
    split, read = _run_split(path, [], 3, monkeypatch, capsys)
    assert time.monotonic() - start < 30
    assert split == serial
    assert read == _planned(data, 3)[:1]  # the refusal in the first range ends the run


@pytest.mark.parametrize("spool", ["missing-tmpdir", "full-disk"])
def test_a_spool_that_cannot_be_written_gives_the_serial_bytes(spool, tmp_path, monkeypatch,
                                                               capsys):
    path = tmp_path / "records.txt"
    data = "".join(line + "\n" for line in _record_lines("auto")).encode()
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    if spool == "missing-tmpdir":
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full to fail writes with ENOSPC")
        made, temporary_file = [], tempfile.TemporaryFile

        def full_spool(*args, **kwargs):
            """The first temporary file, the spool, fails its writes with ENOSPC."""
            made.append(args)
            if len(made) == 1:
                return open("/dev/full", *args, **kwargs)
            return temporary_file(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", full_spool)
    split, read = _run_split(path, [], 3, monkeypatch, capsys)
    assert split == serial
    assert set(read) <= set(_planned(data, 3))  # a missing TMPDIR stops the run before any


def test_a_record_longer_than_a_range_leaves_ranges_empty(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    long_line = b" " * 600 + SP_INVALID  # the spaces are stripped from the record
    data = _with_refusals([5, long_line, 5])[0]  # the long line is no refusal here
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    assert serial[0] == 2 and serial[1].count("\n") == 11
    split, read = _run_split(path, [], 8, monkeypatch, capsys)
    assert split == serial
    assert read == _planned(data, 8)
    assert len(read) < 8  # the ranges cut inside the long line are not read
    assert {stop for _, stop in read} <= set(_newline_ends(data))


def test_a_cr_only_file_takes_the_split_path_as_one_range(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = "\r".join(_record_lines("auto")).encode() + b"\r"
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    split, read = _run_split(path, [], 4, monkeypatch, capsys)
    assert split == serial
    size = len(data)
    assert read == [(0, size)]


def test_a_cr_only_file_is_searched_for_line_starts_in_linear_time(tmp_path, monkeypatch,
                                                                   capsys):
    path = tmp_path / "records.txt"
    data = b"".join((SP_INVALID if i % 3 else SP_LINE) + b"\r" for i in range(200))
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    log, pread = tmp_path / "preads.log", os.pread
    log.write_text("")

    def counted_pread(fd, length, offset):
        chunk = pread(fd, length, offset)
        if os.path.samestat(os.fstat(fd), os.stat(path)):  # the file, not a temporary file
            with open(log, "a") as reads:  # appended to by both processes
                reads.write(f"{len(chunk)}\n")
        return chunk

    monkeypatch.setattr(os, "pread", counted_pread)
    split, read = _run_split(path, [], 64, monkeypatch, capsys)
    assert split == serial
    # the one range's text, its end's search, and each range's search for its start;
    # a search of each range to the end of the file would read about 64 times the file
    assert sum(map(int, log.read_text().split())) <= 3 * len(data) + 2 * 64
    assert read == [(0, len(data))]


def test_the_worker_takes_ranges_past_the_listing_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    data = "".join(line + "\n" for line in _record_lines("auto")).encode()
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    monkeypatch.setattr(_split, "_SPILL_MAX_BYTES", 1)  # a capped worker would stop at two
    parent, check_range = os.getpid(), _split._check_range

    def waiting_check_range(*args):
        if os.getpid() == parent and args[1] == 0:  # this process's first range waits
            deadline = time.monotonic() + 30
            while _worker_reads(path) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
        return check_range(*args)

    monkeypatch.setattr(_split, "_check_range", waiting_check_range)
    split, read = _run_split(path, [], 10, monkeypatch, capsys)
    assert split == serial
    assert read == _planned(data, 10)
    assert _worker_reads(path) >= 4


def _worker_reads(path) -> int:
    return sum(by_worker == "True" for *_, by_worker in _reads(path))


def test_more_ranges_than_the_pipe_holds_leaves_the_middle_to_the_process(tmp_path, monkeypatch,
                                                                         capsys):
    path = tmp_path / "records.txt"
    data = "".join(line + "\n" for line in _record_lines("auto")).encode()
    path.write_bytes(data)
    serial = _run_serial(path, [], monkeypatch, capsys)
    asked, claims = [], _split._claims

    def few_claims(count):
        asked.append(count)
        return claims(min(count, 6))

    monkeypatch.setattr(_split, "_claims", few_claims)
    split, read = _run_split(path, [], 40, monkeypatch, capsys)
    assert split == serial
    assert asked == [40]
    assert read == _planned(data, 40)  # each range read once, by one of the two processes
    assert _worker_reads(path) <= 6
