"""Share work with one forked worker: `validate FILE` in ranges, an `enumerate` listing in orders.

`cli` imports this module only when `validate` reads a named file or a
listing has orders to share, so no other run compiles or loads it.  There
is one splitter, `share`, and it never lets the split show in the output:
the process writes tasks from the front while the worker writes them from
the back into a temporary file, which the process copies out once they
meet.  Any task of a failed worker the process writes itself.

A listing's tasks are its orders left, written to the listing's sink.
`validate PATH` cuts a large regular file into ranges of at least
_RANGE_MIN_BYTES, each of which moves its ends past newline bytes as it is
read, and shares the ranges, whose report lines go to a spool, an
unlinked temporary file that `cmd_validate` copies out once every range
has parsed (`check_ranges`).  Any refusal makes `check_ranges` return
None, and `validate` then checks the file in one serial pass.
"""

from __future__ import annotations

import io
import marshal
import os
import stat
import tempfile
from contextlib import ExitStack, suppress

from .cli import _check_records, _Refused, _write

# A file is cut into ranges of at least this many bytes.  Forking, piping
# and reaping a worker takes about 1.5-2.5 ms on a 2-core Linux host, as
# long as checking 10-20 KiB of records takes there; a 128 KiB range takes
# 13-24 ms to check.  Measured on that host, a 256 KiB file checks in two
# ranges in 18 ms against 27 ms in one pass, and a 32 KiB file in 4.7 ms
# against 3.8 ms.
_RANGE_MIN_BYTES = 1 << 17

# A capped worker takes no more tasks once its temporary file holds more
# than this many bytes, so a listing puts no more than about this much of
# the worker's text on the disk of TMPDIR; the process writes the rest.
_SPILL_MAX_BYTES = 1 << 28

# Temporary files are copied out in writes of whole lines, at most this many
# characters (bytes, as every line is ASCII) unless one line is longer:
# 1 MiB pieces raise the process's peak by 2 MiB.
_COPY_CHARS = 1 << 16


def _may_fork() -> bool:
    """Whether this process may fork a worker that runs beside it.

    It may not where the platform cannot fork or count its CPUs, where it
    may run on one CPU only, or where the process has another thread, which
    a fork would not copy.
    """
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        with suppress(OSError):
            if len(os.listdir("/proc/self/task")) == 1:
                return len(os.sched_getaffinity(0)) > 1
    return False


class _Range(io.RawIOBase):
    """Bytes start..stop of an open file, read with pread, so no file offset moves."""

    def __init__(self, fd: int, start: int, stop: int):
        super().__init__()
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.stop - self.at), self.at)
        buffer[:len(data)] = data
        self.at += len(data)
        return len(data)


def _text(fd: int, start: int, stop: int, newline: str | None = None) -> io.TextIOWrapper:
    """Bytes start..stop of the file as UTF-8 text, decoded as `open` decodes it."""
    return io.TextIOWrapper(io.BufferedReader(_Range(fd, start, stop)), encoding="utf-8",
                            newline=newline)


def copy_lines(file, start: int, stop: int, out) -> None:
    """Copy bytes start..stop of `file`, ASCII lines, to `out` in writes that end at a line end."""
    with _text(file.fileno(), start, stop, newline="") as text:
        rest = ""
        while piece := rest + text.read(_COPY_CHARS - len(rest)):
            cut = piece.rfind("\n") + 1 or len(piece)
            out.write(piece[:cut])
            rest = piece[cut:]


def share(tasks, write, out, capped: bool = True) -> list:
    """Write each of `tasks`, a sequence, to `out` in order, sharing them with a forked worker.

    `write(sink, task)` writes one task's text to `sink`; the values of the
    calls are returned in task order.  A task is claimed by reading one
    byte from a pipe that holds one byte per task, or as many as a pipe
    holds: this process takes tasks from the front and writes them to
    `out`, while the worker takes them from the back into an unlinked
    temporary file and, if `capped`, stops once that holds more than
    _SPILL_MAX_BYTES.  When the bytes run out the process reaps the worker,
    writes every task that neither side took, and copies the worker's tasks
    out in ascending order.  When it may not fork (`_may_fork`) or cannot
    make the pipe or the file, or the worker fails, it writes the worker's
    tasks itself, so the bytes written never depend on the split.  If this
    process fails, it kills and reaps the worker before the failure leaves.
    """
    values, ends, theirs, pid = [], [], [], None
    try:
        with ExitStack() as stack:
            if _may_fork():
                with suppress(OSError):
                    claims = stack.enter_context(_claims(len(tasks)))
                    spill = stack.enter_context(
                        tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                    read_end, write_end = os.pipe()
                    results = stack.enter_context(open(read_end, "rb"))
                    with open(write_end, "wb") as reply:
                        if (pid := os.fork()) == 0:  # the worker leaves by os._exit
                            code = 1
                            try:
                                _worker(tasks, write, claims, spill, reply, capped)
                                code = 0
                            finally:
                                os._exit(code)
            if pid is not None:
                while claims.read(1):
                    values.append(write(out, tasks[len(values)]))
                payload = results.read()
                status = os.waitpid(pid, 0)[1]
                pid = None
                if os.waitstatus_to_exitcode(status) == 0:
                    ends, theirs = marshal.loads(payload)
            for task in tasks[len(values):len(tasks) - len(ends)]:
                values.append(write(out, task))
            for start, stop in reversed(list(zip([0, *ends], ends))):
                copy_lines(spill, start, stop, out)
    finally:
        if pid is not None:
            import signal  # imported here, as only a failure needs it

            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return values + theirs[::-1]


def _claims(count: int):
    """The unbuffered read end of a pipe that holds `count` bytes, or as many as it can."""
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)
        os.write(write_end, bytes(count))  # a full pipe takes only a part
    finally:
        os.close(write_end)
    return open(read_end, "rb", buffering=0)


def _worker(tasks, write, claims, spill, reply, capped):
    """The worker's job: take tasks from the back into `spill`; send where each ends and its value."""
    ends, values = [], []
    for task in reversed(tasks):
        if (capped and ends and ends[-1] > _SPILL_MAX_BYTES) or not claims.read(1):
            break
        values.append(write(spill, task))
        ends.append(spill.tell())
    with reply:
        marshal.dump((ends, values), reply)


# ---------------------------------------------------------------- validate

def _line_start(fd: int, at: int, end: int) -> int:
    """Where a range cut at offset `at` > 0 begins, looking no further than offset `end`.

    That is `end`, or just past the first newline byte at or after `at - 1`,
    so no range splits a line, a CRLF or a UTF-8 character; on a file that
    shrank the search stops at its end, where a read comes back empty.
    """
    at -= 1
    while chunk := os.pread(fd, min(1 << 16, end - at), at):
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
    return end


def _check_range(fd: int, start: int, stop: int, size: int, kind: str | None, fmt: str):
    """`_check_records` over the lines that begin in bytes start..stop of a file of `size`."""
    first = start and _line_start(fd, start, stop)
    if first == stop:  # no line begins here: read nothing, keeping the searches linear
        return _check_records((), kind, fmt)
    with _text(fd, first, _line_start(fd, stop, size)) as lines:
        return _check_records(lines, kind, fmt)


def check_ranges(fd: int, kind: str | None, fmt: str):
    """The report lines of a large regular file, checked in ranges through `share`.

    The file is cut every _RANGE_MIN_BYTES, the last range taking the rest,
    and each range checks the lines that begin in it (`_check_range`).  The
    tasks are a `range` of the cuts, and the worker is not capped, as the
    spool holds this process's share on the same disk.  Returns the spool
    that holds the report lines, an unlinked temporary file, flushed and
    open, and whether every record is valid.  Returns None, and the caller
    checks the file in one serial pass, when the file does not split: it is
    not a regular file, it is smaller than two ranges, or the process may
    not fork.  Returns None as well when any range refuses or the spool
    cannot be made or written, so the serial pass reports exactly what it
    always has.  A range checks its records deeper in the stack than the
    serial pass, so JSON nested too deeply for the serial pass is refused
    in a range too.
    """
    try:
        info = os.fstat(fd)
        size = info.st_size
        if not (stat.S_ISREG(info.st_mode) and size >= 2 * _RANGE_MIN_BYTES and _may_fork()):
            return None
        spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    except OSError:
        return None

    def write(sink, start) -> bool:
        """Write the report lines of the range cut at `start` to `sink`; whether all are valid."""
        stop = start + _RANGE_MIN_BYTES if start + 2 * _RANGE_MIN_BYTES <= size else size
        texts, indexes, valid = _check_range(fd, start, stop, size, kind, fmt)
        _write(sink, map(texts.__getitem__, indexes))
        return valid

    cuts = range(0, size - _RANGE_MIN_BYTES + 1, _RANGE_MIN_BYTES)
    try:
        valid = all(share(cuts, write, spool, capped=False))
        spool.flush()
        return spool, valid
    except (_Refused, UnicodeDecodeError, OSError):
        with suppress(OSError):  # closing flushes again, which a full disk fails again
            spool.close()
        return None
