"""`validate FILE` on every available core: a large regular file in newline-aligned ranges.

`cli.cmd_validate` imports this module only when it reads a named file, so
no other command compiles or loads it.  `split_pass` cuts the file after
newline bytes into at most one range per CPU the process may run on; the
process checks the first range with `cli._check_records` while forked
workers check the others and each sends back the range's distinct report
lines and a 4-byte index per record.  Any refusal or failed worker makes it
return None, and `validate` then checks the file in one serial pass, so the
output bytes, exit code and stderr never depend on the split.
"""

from __future__ import annotations

import io
import marshal
import os
import signal
import stat
from array import array
from contextlib import suppress

from .cli import _check_records, _Refused

# A range of a file gets a worker process of its own only if it holds at
# least this many bytes.  Forking, piping and reaping a worker takes about
# 1.5-2.5 ms on a 2-core Linux host, as long as checking 10-20 KiB of
# records takes there; a 128 KiB range takes 13-24 ms to check.  Measured
# on that host, a 256 KiB file checks in two ranges in 18 ms against 27 ms
# in one pass, and a 32 KiB file in 4.7 ms against 3.8 ms.
_RANGE_MIN_BYTES = 1 << 17


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


def _check_range(fd: int, start: int, stop: int, kind: str | None, fmt: str):
    """`_check_records` over bytes start..stop of the file, decoded as `open` decodes it."""
    with io.TextIOWrapper(io.BufferedReader(_Range(fd, start, stop)), encoding="utf-8") as lines:
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
    does not split: it is not a regular file, it is too small, the platform
    cannot fork or count its CPUs, or the process has another thread, which
    a fork would not copy.  Returns None as well when any range refuses or
    any worker fails, so the serial pass reports exactly what it always has.
    A range checks its records deeper in the stack than the serial pass, so
    JSON nested too deeply for the serial pass is refused in a range too.
    Every worker is reaped before this returns, and killed first on failure.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    try:
        info = os.fstat(fd)
        count = min(len(os.sched_getaffinity(0)), info.st_size // _RANGE_MIN_BYTES)
        if (not stat.S_ISREG(info.st_mode) or count < 2
                or len(os.listdir("/proc/self/task")) != 1):
            return None
        cuts = _cuts(fd, info.st_size, count)
    except OSError:
        return None
    if len(cuts) < 3:
        return None

    live, readers = [], []  # the workers not yet reaped; each worker's pipe
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _range_worker(writer, fd, start, stop, kind, fmt)
            live.append(pid)
        ranges = [_check_range(fd, cuts[0], cuts[1], kind, fmt)]
        for pid, reader in zip(live[:], readers):
            payload = reader.read()
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if os.waitstatus_to_exitcode(status) != 0:
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
        for pid in live:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _range_worker(pipe, fd: int, start: int, stop: int, kind: str | None, fmt: str):
    """A forked worker: check one range, write its result to `pipe`, and leave by os._exit.

    It exits 0 only once the whole result is written; a refusal or any other
    failure exits 1.  It never returns, so no code of the parent runs twice.
    """
    code = 1
    try:
        texts, indexes, valid = _check_range(fd, start, stop, kind, fmt)
        with pipe:  # the indexes are written as they are held: no copy is made
            marshal.dump((texts, valid), pipe)
            indexes.tofile(pipe)
        code = 0
    finally:
        os._exit(code)

