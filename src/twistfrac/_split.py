"""Work on every available core: `validate FILE` in ranges, an `enumerate` listing in orders.

`cli` imports this module only when `validate` reads a named file or a
listing has orders to share, so no other run compiles or loads it.  Both
splitters fork and reap their workers through `_Workers`, and neither lets
the split show in the output:

`split_pass` cuts a large regular file after newline bytes into at most one
range per CPU the process may run on; the process checks the first range
with `cli._check_records` while forked workers check the others and each
sends back the range's distinct report lines and a 4-byte index per record.
Any refusal or failed worker makes it return None, and `validate` then
checks the file in one serial pass.

`split_listing` shares the orders left of a listing with one forked worker:
the process lists them from the front while the worker lists them from the
back into a temporary file, which the process copies out once they meet.
Any order of a failed worker the process lists itself.
"""

from __future__ import annotations

import io
import marshal
import os
import stat
import tempfile
from contextlib import ExitStack, suppress

from .cli import _check_records, _Refused

# A range of a file gets a worker process of its own only if it holds at
# least this many bytes.  Forking, piping and reaping a worker takes about
# 1.5-2.5 ms on a 2-core Linux host, as long as checking 10-20 KiB of
# records takes there; a 128 KiB range takes 13-24 ms to check.  Measured
# on that host, a 256 KiB file checks in two ranges in 18 ms against 27 ms
# in one pass, and a 32 KiB file in 4.7 ms against 3.8 ms.
_RANGE_MIN_BYTES = 1 << 17

# A listing's worker takes no more orders once its temporary file holds
# more than this many bytes, so a listing never puts more than about this
# much on the disk of TMPDIR; the process lists the orders left itself.
_SPILL_MAX_BYTES = 1 << 28

# The process copies the worker's listing out in writes of whole lines, at
# most this many characters (bytes, as a listing is ASCII) unless one line is
# longer: 1 MiB pieces raise its peak by 2 MiB.
_COPY_CHARS = 1 << 16


class _Workers:
    """Forked workers of this process, each reaped before the `with` block ends.

    `cpus` counts the CPUs the process may run on, or is 1 where it must not
    fork: the platform cannot fork or count its CPUs, or the process has
    another thread, which a fork would not copy.  `start(job, *args)` forks a
    worker that runs job(*args) and leaves by os._exit, 0 if the job returned
    and 1 if it raised, so no code of the parent runs twice.  `succeeded(pid)`
    reaps a worker.  A worker not reaped when the block ends, as after a
    failure, is killed first.
    """

    def __init__(self):
        self.live, self.cpus = [], 1  # the workers not yet reaped, in the order they started
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
            with suppress(OSError):
                if len(os.listdir("/proc/self/task")) == 1:
                    self.cpus = len(os.sched_getaffinity(0))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.live:
            import signal  # imported here, as only a failure needs it
        for pid in self.live:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def start(self, job, *args) -> int:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                job(*args)
                code = 0
            finally:
                os._exit(code)
        self.live.append(pid)
        return pid

    def succeeded(self, pid: int) -> bool:
        """Reap worker `pid`; whether it exited 0."""
        status = os.waitpid(pid, 0)[1]
        self.live.remove(pid)
        return os.waitstatus_to_exitcode(status) == 0


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


# ---------------------------------------------------------------- validate

def _check_range(fd: int, start: int, stop: int, kind: str | None, fmt: str):
    """`_check_records` over bytes start..stop of the file, decoded as `open` decodes it."""
    with _text(fd, start, stop) as lines:
        return _check_records(lines, kind, fmt)


def _cuts(fd: int, size: int, count: int) -> list[int]:
    """Offsets that cut the file's `size` bytes into at most `count` near-equal ranges.

    Each cut falls after a newline byte, so no range splits a line, a CRLF
    or a UTF-8 character; a file without one is not cut.
    """
    cuts = [0]
    for i in range(1, count):
        at = max(size * i // count - 1, cuts[-1])
        while at < size:
            chunk = os.pread(fd, 1 << 16, at)
            if not chunk:  # the file shrank
                return cuts + [size]
            found = chunk.find(b"\n")
            if found >= 0:
                at += found + 1
                break
            at += len(chunk)
        if at >= size:
            break
        cuts.append(at)
    return cuts + [size]


def split_pass(fd: int, kind: str | None, fmt: str):
    """`_check_records` results, in file order, of the ranges of a large regular file.

    The file is cut into at most one range per available CPU, each of at
    least _RANGE_MIN_BYTES; this process checks the first range while forked
    workers each check one other range and send back its result.  Returns
    None, and the caller checks the file in one serial pass, when the file
    does not split: it is not a regular file, it is too small, or the
    process must not fork (`_Workers`).  Returns None as well when any range
    refuses or any worker fails, so the serial pass reports exactly what it
    always has.  A range checks its records deeper in the stack than the
    serial pass, so JSON nested too deeply for the serial pass is refused in
    a range too.
    """
    workers = _Workers()
    try:
        info = os.fstat(fd)
        count = min(workers.cpus, info.st_size // _RANGE_MIN_BYTES)
        if not stat.S_ISREG(info.st_mode) or count < 2:
            return None
        cuts = _cuts(fd, info.st_size, count)
    except OSError:
        return None
    if len(cuts) < 3:
        return None

    from array import array  # imported here, as a listing does not need it

    readers = []  # each worker's pipe
    try:
        with workers:
            for start, stop in zip(cuts[1:], cuts[2:]):
                read_end, write_end = os.pipe()
                readers.append(open(read_end, "rb"))
                with open(write_end, "wb") as writer:
                    workers.start(_range_worker, writer, fd, start, stop, kind, fmt)
            ranges = [_check_range(fd, cuts[0], cuts[1], kind, fmt)]
            for pid, reader in zip(workers.live[:], readers):
                payload = reader.read()
                if not workers.succeeded(pid):
                    return None
                with io.BytesIO(payload) as stream:  # texts and verdict, then the indexes
                    texts, valid = marshal.load(stream)
                    indexes = array("I")
                    indexes.frombytes(memoryview(payload)[stream.tell():])
                ranges.append((texts, indexes, valid))
            return ranges
    except (_Refused, UnicodeDecodeError, OSError):
        return None
    finally:
        for reader in readers:
            reader.close()


def _range_worker(pipe, fd: int, start: int, stop: int, kind: str | None, fmt: str):
    """A worker's job: check one range and write its result to `pipe`."""
    texts, indexes, valid = _check_range(fd, start, stop, kind, fmt)
    with pipe:  # the indexes are written as they are held: no copy is made
        marshal.dump((texts, valid), pipe)
        indexes.tofile(pipe)


# ---------------------------------------------------------------- listings

def split_listing(tasks: list, write, out) -> None:
    """Write each of `tasks` to `out` in order, sharing them with a forked worker.

    `write(sink, task)` writes one task's text to `sink`.  A task is claimed
    by reading one byte from a pipe that holds one byte per task, or as many
    as a pipe holds: this process takes tasks from the front and writes them
    to `out`, while the worker takes them from the back into an unlinked
    temporary file and stops once that holds more than _SPILL_MAX_BYTES.
    When the bytes run out the process reaps the worker, lists every task
    that neither side took, and copies the worker's tasks out in ascending
    order.  When it cannot fork (`_Workers`), make the pipe or the file, or
    the worker fails, it lists the worker's tasks itself, so the bytes
    written never depend on the split.
    """
    done, ends = 0, []  # tasks this process took; where each worker task ends, last task first
    with ExitStack() as stack:
        workers, pid = stack.enter_context(_Workers()), None
        if workers.cpus > 1:
            with suppress(OSError):
                claims = stack.enter_context(_claims(len(tasks)))
                spill = stack.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                read_end, write_end = os.pipe()
                results = stack.enter_context(open(read_end, "rb"))
                with open(write_end, "wb") as reply:
                    pid = workers.start(_listing_worker, tasks, write, claims, spill, reply)
        if pid is not None:
            while claims.read(1):
                write(out, tasks[done])
                done += 1
            payload = results.read()
            ends = marshal.loads(payload) if workers.succeeded(pid) else []
        for task in tasks[done:len(tasks) - len(ends)]:
            write(out, task)
        for start, stop in reversed(list(zip([0, *ends], ends))):
            with _text(spill.fileno(), start, stop, newline="") as text:
                rest = ""  # a write ends at a line end, as the process's own writes do
                while piece := rest + text.read(_COPY_CHARS - len(rest)):
                    cut = piece.rfind("\n") + 1 or len(piece)
                    out.write(piece[:cut])
                    rest = piece[cut:]


def _claims(count: int):
    """The unbuffered read end of a pipe that holds `count` bytes, or as many as it can."""
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)
        os.write(write_end, bytes(count))  # a full pipe takes only a part
    finally:
        os.close(write_end)
    return open(read_end, "rb", buffering=0)


def _listing_worker(tasks: list, write, claims, spill, reply):
    """A worker's job: take tasks from the back into `spill`; send where each one ends."""
    ends = []
    for task in reversed(tasks):
        if (ends and ends[-1] > _SPILL_MAX_BYTES) or not claims.read(1):
            break
        write(spill, task)
        ends.append(spill.tell())
    with reply:
        marshal.dump(ends, reply)
