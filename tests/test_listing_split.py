"""`enumerate` listings shared between the process and one forked worker.

Every test here lowers `cli._SPLIT_MIN_GENUS` so that small listings split,
gives the process two CPUs, and compares the split run with the one-process
path, where the process sees one CPU and the genus is below the constant:
the same stdout bytes, exit code and stderr.  The split run's sink sleeps a
little on each write, so the worker takes orders before the process runs
out of them.  After every run no child process and no temporary file is
left.
"""

import io
import os
import signal
import time

import pytest

from twistfrac import _split, cli

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="a listing splits only where the process can fork and count its CPUs")

GENUS = "7"


class _SlowSink(io.StringIO):
    """A sink that sleeps 2 ms on each write, and so on each order the process lists."""

    def write(self, text):
        time.sleep(0.002)
        return super().write(text)


@pytest.fixture
def spy(monkeypatch, tmp_path):
    """Each fork and each piece of the worker's file copied out, seen from this process.

    Temporary files go to `tmp_path`, which must be empty after each run.
    """
    monkeypatch.setattr(cli, "_SPLIT_MIN_GENUS", 1)
    monkeypatch.setattr(_split.tempfile, "tempdir", str(tmp_path))
    seen = {"forks": [], "copies": []}
    start, text = _split._Workers.start, _split._text

    def recorded_start(self, job, *args):
        seen["forks"].append(job.__name__)
        return start(self, job, *args)

    def recorded_text(fd, begin, end, *rest, **kwargs):
        seen["copies"].append((begin, end))
        return text(fd, begin, end, *rest, **kwargs)

    monkeypatch.setattr(_split._Workers, "start", recorded_start)
    monkeypatch.setattr(_split, "_text", recorded_text)
    return seen


def _run(argv, capsys, tmp_path, sink=None):
    out = sink if sink is not None else io.StringIO()
    code = cli.main(argv, stdout=out)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == []
    return code, out.getvalue(), capsys.readouterr().err


def _one_process(argv, monkeypatch, capsys, tmp_path):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(cli, "_SPLIT_MIN_GENUS", 1000)
        return _run(argv, capsys, tmp_path)


def _split_run(argv, monkeypatch, capsys, tmp_path, sink=None):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return _run(argv, capsys, tmp_path, _SlowSink() if sink is None else sink)


FILTERS = [[], ["--essential"], ["--exponent", "1/9"], ["--g0", "1"], ["--cones", "2"]]


@pytest.mark.parametrize("filters", FILTERS, ids=lambda f: " ".join(f) or "all")
@pytest.mark.parametrize("kind", ["sp", "se", "both"])
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_split_listing_gives_the_one_process_bytes(fmt, kind, filters, spy, monkeypatch,
                                                   capsys, tmp_path):
    argv = ["enumerate", "--genus", GENUS, "--kind", kind, "--format", fmt, *filters]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert alone[0] == 0 and alone[2] == "" and spy["forks"] == []
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    # an exponent keeps the sets of one order, so that listing does not split
    assert spy["forks"] == ([] if "--exponent" in filters else ["_listing_worker"])
    if not filters:
        assert spy["copies"], "the worker listed no order"


def test_the_worker_takes_orders_from_the_back(spy, monkeypatch, capsys, tmp_path):
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "csv"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    # the copies are contiguous, the last order's first in the file and last in the output
    copies = spy["copies"]
    assert len(copies) > 1 and copies[-1][0] == 0
    assert all(stop == start for (start, _), (_, stop) in zip(copies, copies[1:]))


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_process_with_one_cpu_lists_alone(fmt, spy, monkeypatch, capsys, tmp_path):
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", fmt]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _run(argv, capsys, tmp_path) == alone
    assert spy["forks"] == []


def test_a_listing_below_the_genus_does_not_split(spy, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "_SPLIT_MIN_GENUS", int(GENUS) + 1)
    monkeypatch.setattr(_split, "split_listing", None)  # calling it would raise
    argv = ["enumerate", "--genus", GENUS]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    assert spy["forks"] == []


def test_oracle_listing_never_forks(spy, monkeypatch, capsys, tmp_path):
    for kind in ("sp", "se"):
        plain = _one_process(["enumerate", "--genus", "5", "--kind", kind],
                             monkeypatch, capsys, tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(_split, "split_listing", None)  # calling it would raise
            argv = ["enumerate", "--genus", "5", "--kind", kind, "--oracle"]
            assert _split_run(argv, monkeypatch, capsys, tmp_path) == plain
    assert spy["forks"] == []


def test_no_fork_before_the_first_set_is_written(spy, monkeypatch, capsys, tmp_path):
    sink = _SlowSink()
    written = []  # what the sink held at each fork
    start = _split._Workers.start

    def watched_start(self, job, *args):
        written.append(sink.getvalue())
        return start(self, job, *args)

    monkeypatch.setattr(_split._Workers, "start", watched_start)
    for fmt, first in [("text", "  ("), ("json-lines", "{"), ("csv", '"SP"')]:
        sink.seek(0)
        sink.truncate()
        argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", fmt]
        alone = _one_process(argv, monkeypatch, capsys, tmp_path)
        assert _split_run(argv, monkeypatch, capsys, tmp_path, sink) == alone
        # SP order 2 has no sets: the first set, of order 3, is out before the fork
        assert first in written[-1] and alone[1].startswith(written[-1])
    assert len(written) == 3 and len(spy["copies"]) > 3


def test_a_process_with_one_order_left_does_not_fork(spy, monkeypatch, capsys, tmp_path):
    # genus-1 SP sets have orders 3 and 4 of 2..4: one order is left after the first set
    argv = ["enumerate", "--genus", "1", "--kind", "sp"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert [line for line in alone[1].splitlines() if "Exponent" in line] == [
        "Exponent 1/3", "Exponent 2/3", "Exponent 2/4"]
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    assert spy["forks"] == []


@pytest.mark.parametrize("death", ["killed", "exit-3"])
def test_a_dead_worker_gives_the_one_process_bytes(death, spy, monkeypatch, capsys, tmp_path):
    def dying_worker(tasks, write, claims, spill, reply):
        claims.read(3)  # takes three orders, then dies
        if death == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)

    monkeypatch.setattr(_split, "_listing_worker", dying_worker)
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "text"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    assert spy["forks"] == ["dying_worker"] and spy["copies"] == []


def test_a_failed_fork_gives_the_one_process_bytes(spy, monkeypatch, capsys, tmp_path):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "json-lines"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_full_worker_file_leaves_the_rest_to_the_process(fmt, spy, monkeypatch, capsys,
                                                           tmp_path):
    monkeypatch.setattr(_split, "_SPILL_MAX_BYTES", 1)
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", fmt]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    assert len(spy["copies"]) == 1  # the last order, which holds sets


def test_a_pipe_that_holds_few_claims_leaves_the_middle_to_the_process(spy, monkeypatch,
                                                                       capsys, tmp_path):
    claims = _split._claims
    monkeypatch.setattr(_split, "_claims", lambda count: claims(min(count, 6)))
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "text"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path) == alone
    assert 1 <= len(spy["copies"]) <= 6


class _ClosedAfter(io.StringIO):
    """A stdout whose reader goes away after `writes` writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if not self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return super().write(text)


def test_a_closed_stdout_kills_and_reaps_the_worker(spy, monkeypatch, capsys, tmp_path):
    def stalled_worker(*args):
        time.sleep(60)

    monkeypatch.setattr(_split, "_listing_worker", stalled_worker)
    began = time.monotonic()
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "json-lines"]
    code, _, err = _split_run(argv, monkeypatch, capsys, tmp_path, _ClosedAfter(3))
    assert (code, err) == (1, "")
    assert time.monotonic() - began < 30
    assert spy["forks"] == ["stalled_worker"]


class _WriteLog(_SlowSink):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_the_worker_listing_is_copied_in_whole_lines(spy, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(_split, "_COPY_CHARS", 300)
    sink = _WriteLog()
    argv = ["enumerate", "--genus", GENUS, "--kind", "both", "--format", "json-lines"]
    alone = _one_process(argv, monkeypatch, capsys, tmp_path)
    assert _split_run(argv, monkeypatch, capsys, tmp_path, sink) == alone
    assert sum(stop - start for start, stop in spy["copies"]) > 3000
    # a sink that counts tokens per write sees each line whole
    assert all(text.endswith("\n") for text in sink.writes)
    assert max(map(len, sink.writes[-10:])) <= 300
