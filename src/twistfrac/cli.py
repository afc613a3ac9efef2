"""Command-line surface: listings, spectra tables, decompositions, audits.

Subcommands: validate, enumerate, spectra, decompose, families, audit.
Exit codes are a stable contract:

    0  success
    1  input error (unparseable record, bad flag value, oracle bound, a
       `decompose` record that is not a valid data set)
    2  validation failure (invalid record in `validate`, failed decomposition)
    3  internal consistency failure (oracle mismatch, law violation)

Every exit-1 refusal is raised, and `main` alone prints its one line; a
closed stdout ends with exit 1 and nothing on stderr, and any other failure
to write stdout with exit 1 and one line.

Text listings group data sets under 'Exponent l/order' headers ascending
by (order, l); json-lines output round-trips through `from_record`.  Every
listing format is one `datasets.SYNTAXES` row of templates, written by `_write`.

`enumerate`, `spectra` and `audit` write each order or genus as soon as it
is computed, and `audit` flushes the process's own stdout after each genus.
`validate` and `enumerate --oracle` write nothing until the whole input has
parsed or the engines agree.  `--output PATH` replaces PATH only once the
command has written everything.

`validate PATH` cuts a regular file of at least two ranges of
`_split._RANGE_MIN_BYTES` after newline bytes, into at most one range per
available CPU: this process checks the first and forked workers the
others, each sending back its distinct report lines and a 4-byte index per
record.  Any refusal or failed worker re-checks the file in one serial
pass, which stdin and smaller files always take, so the output bytes never
depend on the split.  Stdin is read as a path is: UTF-8, universal newlines.

`enumerate` at genus _SPLIT_MIN_GENUS or more, without --oracle or
--exponent, writes its orders from the front until the first set is out,
then shares the orders left with one forked worker that lists them from
the back into a temporary file (`_split.split_listing`).  A failed worker's
orders are listed here, so those output bytes never depend on the split
either; a process that may use one CPU lists alone.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager, suppress
from itertools import chain, islice

from .datasets import (
    CSV_COLUMNS,
    SYNTAXES,
    _se_report,
    _sp_report,
    key_line,
    parse_record_line,
    record_fields,
    to_record,
    validate,
)
from .enumeration import (
    SPECTRA_MAX_GENUS,
    Filters,
    OracleBoundError,
    block_sets,
    blocks,
    enumerate_oracle,
    # not called here, but perfbench's tracer wraps cli.enumerate_sp / cli.enumerate_se
    enumerate_se,
    enumerate_sp,
    spectra,
)
from .laws import audit
from .relations import (
    NotApplicableError,
    family_se_max,
    family_se_min,
    family_sp_4g,
    family_sp_top,
    se_power_decompose,
    sp_root_decompose,
)

FORMATS = ("text", "json-lines", "csv")
SPECTRA_COLUMNS = ("surface_genus", "e_sp", "e_se", "n_sp", "n_se")

# An `enumerate` listing of at least this genus may share its orders with a
# forked worker (`render_listing`).  The fork, the temporary file, the copy
# back and compiling `_split` where no .pyc is written add 3-5 ms on a 2-core
# Linux host.  Measured there in fresh processes (medians of 11 pairs),
# `--kind both --format json-lines` lists genus 16 in 17 ms split against
# 13 ms in one process, genus 18 in 21 against 19, genus 20 in 22 against
# 23, and genus 22 in 25 against 27.
_SPLIT_MIN_GENUS = 20

# Listings and `validate` output are written in strings of at most this many
# lines, so a large order chunk or input is not rendered into one string.
RECORDS_PER_WRITE = 1024

# ASCII digits only: `\d` would also accept digits of other scripts.
_INTEGER = re.compile(r"-?[0-9]+")


# -------------------------------------------------------------- rendering

def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


_KIND_HEADINGS = {"sp": "side-preserving:\n", "se": "side-exchanging:\n"}


class _PairTexts(dict):
    """The text of each (order, twist) pair from a `SYNTAXES` template, made once."""

    def __init__(self, template: str):
        super().__init__()
        self.template = template

    def __missing__(self, pair):
        order, twist = pair
        text = self[pair] = self.template.format(k=twist, m=order)
        return text


def _rendered(chunk, heads, pairs, separator, ending, grouped):
    """The lines of one order's sorted blocks: each head's text before each of its cone texts.

    A head's text is its `heads` template for its length; a cone text joins
    the `pairs` texts with `separator` and adds `ending`.  Each shared cones
    list is rendered once, keyed by its id() while the chunk keeps it alive,
    and each head once per block.  `grouped` (text) puts an 'Exponent
    l/order' line before each exponent (a chunk holds one order) and indents
    each set by two spaces.
    """
    texts, exponent, indent = {}, None, "  " if grouped else ""
    for head, cones in chunk:
        if grouped and head[:2] != exponent:
            exponent = head[:2]
            yield f"Exponent {head[1]}/{head[0]}\n"
        rest = texts.get(id(cones))
        if rest is None:
            rest = texts[id(cones)] = [separator.join(map(pairs.__getitem__, c)) + ending
                                       for c in cones]
        yield from map((indent + heads[len(head)].format(*head)).__add__, rest)


def _write(out, lines) -> bool:
    """Write `lines` to `out`, at most RECORDS_PER_WRITE a write; never write ''.

    Returns whether it wrote any line.
    """
    lines, wrote = iter(lines), False
    while text := "".join(islice(lines, RECORDS_PER_WRITE)):
        out.write(text)
        wrote = True
    return wrote


def render_listing(kinds, fmt: str, out, split: bool = False) -> None:
    """Write a listing to `out`, each chunk of sets as soon as it arrives.

    `kinds` holds (kind, chunks) pairs, "sp" first; `chunks` iterates, maybe
    lazily and once, over sorted lists of the kind's blocks, (head, cones)
    pairs whose sets have the sort keys head + (c,) for each c in cones
    (the enumerator yields one list per order).  Text puts two kinds under
    headings.  Each (order, twist) pair's text is made once per listing.
    Each chunk is deleted once written, so it is freed before the next one
    is built.

    With `split`, each `chunks` is a sequence, as `blocks` returns.  Once
    the listing's first set is written, and not before, since a fork would
    delay it, the chunks left, if at least two, are tasks that this process
    may share with a forked worker (`_split.split_listing`), which writes
    the same bytes.
    """
    heads, template, separator, closing = SYNTAXES[fmt]
    pairs, ending = _PairTexts(template), closing + "\n"
    grouped = fmt == "text"
    headed = grouped and len(kinds) == 2
    if fmt == "csv":
        out.write(CSV_COLUMNS + "\n")
    for number, (kind, chunks) in enumerate(kinds):
        if headed:
            out.write(_KIND_HEADINGS[kind])
        for index, chunk in enumerate(chunks):
            wrote = _write(out, _rendered(chunk, heads, pairs, separator, ending, grouped))
            del chunk
            if not (split and wrote):
                continue
            # the tasks left: the kind's chunks after this one, then every later kind's
            tasks = [(kind, i, chunks) for i in range(index + 1, len(chunks))]
            tasks += [(k, i, c) for k, c in kinds[number + 1:] for i in range(len(c))]
            if len(tasks) < 2:  # nothing to share
                split = False
                continue

            def write(sink, task) -> None:
                """Write one task: chunk i of kind k, after k's heading if it is the first."""
                k, i, c = task
                if headed and i == 0:
                    sink.write(_KIND_HEADINGS[k])
                _write(sink, _rendered(c[i], heads, pairs, separator, ending, grouped))

            from ._split import split_listing  # imported here: a listing that stays whole skips it

            split_listing(tasks, write, out)
            return


class _Refused(Exception):
    """A refused input or output path; main() prints the message and exits 1."""


@contextmanager
def _open_output(path: str | None, fallback):
    """The sink for --output PATH, or `fallback` (stdout) without one.

    PATH is written atomically: through a temporary file beside it that
    replaces PATH, with PATH's mode, only once the command has written
    everything.  If the command fails, the temporary file is removed and
    PATH is left as it was.  Symlinks are followed, and a PATH that is not
    a regular file, such as a pipe or a device, is written directly: it
    cannot be replaced.  An OSError becomes a _Refused.
    """
    if path is None:
        yield fallback
        return
    target = os.path.realpath(path)
    temp = None
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            sink = open(target, "w", encoding="utf-8")
        else:
            fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                        suffix=".tmp", dir=os.path.dirname(target))
            sink = open(fd, "w", encoding="utf-8")
        with sink:
            yield sink
        if temp is not None:
            os.chmod(temp, _file_mode(target))
            os.replace(temp, target)
            temp = None
    except OSError as exc:
        raise _Refused(f"cannot write {path}: {exc}")
    finally:
        if temp is not None:
            with suppress(OSError):
                os.unlink(temp)


def _file_mode(path: str) -> int:
    """The permission bits of the file at `path`, or those open() gives a new file."""
    if os.path.isfile(path):
        return stat.S_IMODE(os.stat(path).st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


# --------------------------------------------------------------- commands

def cmd_validate(args, out) -> int:
    named = args.file not in (None, "-")
    if named:
        try:
            stream = open(args.file, encoding="utf-8")
        except OSError as exc:
            raise _Refused(f"cannot open {args.file}: {exc}")
    else:
        stream = _stdin_text()

    kind = None if args.kind == "auto" else args.kind
    try:
        with stream as handle:
            ranges = None
            if named:
                # imported here, so no other command compiles or loads it
                from ._split import split_pass

                # it reads the file with pread: `handle` stays at its start
                ranges = split_pass(handle.fileno(), kind, args.format)
            ranges = ranges or [_check_records(handle, kind, args.format)]
    except UnicodeDecodeError as exc:
        # raised by the reads, which decode ahead of the line being parsed
        raise _Refused(f"input is not UTF-8 text: {exc}")
    except OSError as exc:
        name = args.file if named else "stdin"
        raise _Refused(f"cannot read {name}: {exc}")

    # Nothing is written before the whole input has parsed.
    with _open_output(args.output, out) as sink:
        if args.format == "csv":
            sink.write("valid,genus,failed\n")
        _write(sink, chain.from_iterable(map(texts.__getitem__, indexes)
                                         for texts, indexes, _ in ranges))
    return 0 if all(valid for _, _, valid in ranges) else 2


@contextmanager
def _stdin_text():
    """stdin read as `validate` reads a path: UTF-8, with universal newlines.

    On POSIX `sys.stdin` ends lines at "\\n" alone, so its bytes are read
    through a wrapper of their own, which is detached at the end: stdin
    stays open.  A stdin without bytes beneath, such as a StringIO, is read
    as it is.
    """
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin
        return
    text = io.TextIOWrapper(buffer, encoding="utf-8")
    try:
        yield text
    finally:
        text.detach()


def _check_records(lines, kind: str | None, fmt: str):
    """Check each record of `lines`, an iterable of text lines; raise at the first refusal.

    Returns the distinct report lines in `fmt` (a listing holds few distinct
    reports, so each is rendered once), a 4-byte index into them per record,
    and whether every record is valid.  Listings also repeat cone texts,
    which `record_fields` reads through a bounded memo.  A line is stripped
    once here: stripping it again in `record_fields` returns the same string.
    """
    from array import array

    rendered, texts, indexes, all_valid = {}, [], array("I"), True
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            shape, fields = record_fields(line, kind)
        except (ValueError, RecursionError) as exc:
            raise _Refused(f"line {number}: {exc}")
        report = (_sp_report if shape == "sp" else _se_report)(*fields)
        index = rendered.get(report)
        if index is None:
            try:
                texts.append(_report_line(report, fmt))
            except ValueError:
                # str() refuses ints past sys.get_int_max_str_digits()
                raise _Refused(f"line {number}: genus has too many digits to print")
            index = rendered[report] = len(texts) - 1
            all_valid = all_valid and report.valid
        indexes.append(index)
    return texts, indexes, all_valid


def _report_line(report, fmt: str) -> str:
    """One `validate` output line, newline included, for `report` in `fmt`."""
    failed = report.failed()
    if fmt == "text":
        if report.valid:
            return f"valid genus={report.genus}\n"
        return f"invalid: {', '.join(failed)}\n"
    if fmt == "json-lines":
        return _json_line({"valid": report.valid, "genus": report.genus,
                           "failed": failed}) + "\n"
    # No condition label holds a comma, a quote or a newline, so no csv
    # field needs quoting.
    genus = "" if report.genus is None else report.genus
    return f"{str(report.valid).lower()},{genus},{';'.join(failed)}\n"


def _parse_exponent(text: str) -> tuple[int, int]:
    mo = re.fullmatch(r"([0-9]+)/([0-9]+)", text.strip())
    if not mo:
        raise ValueError(f"exponent must look like 'l/order', got {text!r}")
    return int(mo.group(1)), int(mo.group(2))


def cmd_enumerate(args, out) -> int:
    try:
        exponent = _parse_exponent(args.exponent) if args.exponent else None
        filters = Filters(essential_only=args.essential, exponent=exponent,
                          g0=args.g0, cone_count=args.cones)
    except ValueError as exc:  # Filters refuses an exponent order below 2
        raise _Refused(str(exc))

    # Lazy: the blocks of each order are written as they are enumerated.
    kinds = [(kind, blocks(args.genus, kind, filters)) for kind in ("sp", "se")
             if args.kind in (kind, "both")]
    if args.oracle:
        if args.kind == "both":
            raise _Refused("--oracle needs --kind sp or --kind se")
        reference = enumerate_oracle(args.genus, args.kind)
        # listed once: the blocks checked are the blocks written
        chunks = list(kinds[0][1])
        kinds = [(args.kind, chunks)]
        sets = block_sets(args.kind, chunks)
        # the oracle lists every set of the genus
        expected = [d for d in reference if filters.accepts(d)]
        if sets != expected:
            listed, wanted = set(sets), set(expected)
            missing = [d for d in expected if d not in listed]
            extra = [d for d in sets if d not in wanted]
            for d in missing:
                print(f"oracle only: {d}", file=sys.stderr)
            for d in extra:
                print(f"enumerator only: {d}", file=sys.stderr)
            if not missing and not extra:
                print(f"enumerator lists the oracle's sets in another order or with repeats "
                      f"({len(sets)} listed, {len(expected)} expected)", file=sys.stderr)
            return 3

    # an exponent keeps the sets of one order: there is nothing to share
    split = not (args.oracle or exponent) and args.genus >= _SPLIT_MIN_GENUS
    with _open_output(args.output, out) as sink:
        render_listing(kinds, args.format, sink, split)
    return 0


def _genus_range(args) -> range:
    """The genera --from..--to; a reversed range is refused."""
    if not 1 <= args.start <= args.end:
        raise _Refused(f"need 1 <= --from <= --to, got {args.start}..{args.end}")
    return range(args.start, args.end + 1)


def cmd_spectra(args, out) -> int:
    genera = _genus_range(args)
    if genera.stop - 1 > SPECTRA_MAX_GENUS:
        raise _Refused(f"spectra is capped at genus {SPECTRA_MAX_GENUS}")
    with _open_output(args.output, out) as sink:
        if args.format != "json-lines":
            sink.write(("  " if args.format == "text" else ",").join(SPECTRA_COLUMNS) + "\n")
        for r in map(spectra, genera):
            r = (r.genus_plus_one, r.e_sp, r.e_se, r.n_sp, r.n_se)
            if args.format == "text":
                sink.write("{:>13}  {:>4}  {:>4}  {:>4}  {:>4}\n".format(*r))
            elif args.format == "json-lines":
                sink.write(_json_line(dict(zip(SPECTRA_COLUMNS, r))) + "\n")
            else:
                sink.write(",".join(map(str, r)) + "\n")
    return 0


def cmd_decompose(args, out) -> int:
    if args.format == "csv":
        raise _Refused("decompose supports --format text or json-lines")
    try:
        d = parse_record_line(args.record, args.kind)
    except (ValueError, RecursionError) as exc:
        raise _Refused(f"bad record: {exc}")

    if args.kind == "sp":
        if args.r is not None:
            raise _Refused("--r applies to side-exchanging decompositions only")
        status, record, adjustments = "exact", sp_root_decompose(d), ()
    else:
        if args.r is None:
            raise _Refused("side-exchanging decomposition needs --r")
        outcome = se_power_decompose(d, args.r)
        status, record, adjustments = outcome.status, outcome.result, outcome.adjustments

    with _open_output(args.output, out) as sink:
        if args.format == "text":
            if record is not None:
                sink.write(f"{record}\n")
            sink.write(f"status: {status}\n")
            for index, raw, chosen in adjustments:
                sink.write(f"cone {index}: raw {raw} -> {chosen}\n")
        else:
            sink.write(_json_line({
                "status": status,
                "result": None if record is None else to_record(record),
                "adjustments": [list(a) for a in adjustments],
            }) + "\n")
    return 0 if status in ("exact", "adjusted") else 2


def cmd_families(args, out) -> int:
    g = args.genus
    top, wide = family_sp_top(g), family_sp_4g(g)
    rows = [(label, d, validate(d)) for label, d in (
        ("sp-max-exponent-1", top[0]), ("sp-max-exponent-2", top[1]),
        ("sp-order-4g-1", wide[0]), ("sp-order-4g-2", wide[1]),
        ("se-order-max", family_se_max(g)), ("se-order-min", family_se_min(g)))]
    sink = io.StringIO()  # all rows first: str() refuses a huge order
    try:
        if args.format == "text":
            for label, d, report in rows:
                sink.write(f"{label}: {d}  {report.verdict} genus={report.genus}\n")
        elif args.format == "json-lines":
            for label, d, report in rows:
                sink.write(_json_line({
                    "family": label,
                    "record": to_record(d),
                    "valid": report.valid,
                    "genus": report.genus,
                }) + "\n")
        else:
            sink.write(f'"family",{CSV_COLUMNS},"valid","genus"\n')
            for label, d, report in rows:
                genus = '""' if report.genus is None else report.genus
                sink.write(f'"{label}",{key_line(d.sort_key(), "csv")},'
                           f'"{str(report.valid).lower()}",{genus}\n')
    except ValueError:
        raise _Refused("genus has too many digits to print")
    with _open_output(args.output, out) as target:
        target.write(sink.getvalue())
    return 0 if all(report.valid for _, _, report in rows) else 2


def cmd_audit(args, out) -> int:
    kinds = ("sp", "se") if args.kind == "both" else (args.kind,)
    genera = _genus_range(args)
    total_violations = 0
    with _open_output(args.output, out) as sink:
        if args.format == "csv":
            sink.write("genus,kind,checked,violations\n")
        for g in genera:
            for kind in kinds:
                r = audit(g, kind)
                total_violations += len(r.violations)
                if args.format == "text":
                    sink.write(f"genus {r.genus} {r.kind}: {r.checked} sets, "
                               f"{len(r.violations)} violations\n")
                    for v in r.violations:
                        sink.write(f"  {v.law}: {v.witness}\n")
                elif args.format == "json-lines":
                    sink.write(_json_line({
                        "genus": r.genus,
                        "kind": r.kind,
                        "checked": r.checked,
                        "violations": [
                            {"law": v.law, "witness": to_record(v.witness)}
                            for v in r.violations
                        ],
                    }) + "\n")
                else:
                    sink.write(f"{r.genus},{r.kind},{r.checked},{len(r.violations)}\n")
            if sink is sys.stdout:  # a reader sees each genus; a caller's sink may lack flush
                sink.flush()
        if args.format == "text":
            sink.write(f"total violations: {total_violations}\n")
    return 3 if total_violations else 0


# ------------------------------------------------------------------ main

def _integer(text: str, least: int | None = None) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    value = int(text)
    if least is not None and value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1)


def _nonnegative_int(text: str) -> int:
    return _integer(text, 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="twistfrac",
        description="Classify, enumerate and relate the data sets of "
                    "fractional powers of a Dehn twist.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("validate", help="validate records from a file or stdin")
    p.add_argument("file", nargs="?", default=None,
                   help="input path; '-' or omitted reads stdin")
    p.add_argument("--kind", choices=("sp", "se", "auto"), default="auto")
    add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("enumerate", help="list all data sets of one genus")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--kind", choices=("sp", "se", "both"), default="both")
    p.add_argument("--essential", action="store_true")
    p.add_argument("--exponent", metavar="L/ORDER", default=None)
    p.add_argument("--g0", type=_nonnegative_int, default=None)
    p.add_argument("--cones", type=_nonnegative_int, default=None,
                   help="keep only sets with this many cone pairs")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the naive enumerator")
    add_common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("spectra", help="exponent/class counts per genus")
    p.add_argument("--from", dest="start", type=_positive_int, required=True)
    p.add_argument("--to", dest="end", type=_positive_int, required=True)
    add_common(p)
    p.set_defaults(handler=cmd_spectra)

    p = sub.add_parser("decompose", help="root/power decomposition of one record")
    p.add_argument("record", help="data set as tuple text or JSON")
    p.add_argument("--kind", choices=("sp", "se"), required=True)
    p.add_argument("--r", type=_integer, default=None,
                   help="divisor of l for side-exchanging decomposition")
    add_common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("families", help="instantiate the four explicit families")
    p.add_argument("--genus", type=_positive_int, required=True)
    add_common(p)
    p.set_defaults(handler=cmd_families)

    p = sub.add_parser("audit", help="run every law over full enumerations")
    p.add_argument("--from", dest="start", type=_positive_int, required=True)
    p.add_argument("--to", dest="end", type=_positive_int, required=True)
    p.add_argument("--kind", choices=("sp", "se", "both"), default="both")
    add_common(p)
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 1 for
        # input problems and 2 for validation failures.
        return 0 if exc.code in (0, None) else 1
    try:
        if args.output is not None:
            # Refuse a PATH that cannot be written before computing anything:
            # `_open_output` writes past any symlink at PATH, into its directory.
            target = os.path.realpath(args.output)
            parent = os.path.dirname(target)
            if not os.path.isdir(parent):
                raise _Refused(f"cannot write {args.output}: no directory {parent}")
            if os.path.isdir(target):
                raise _Refused(f"cannot write {args.output}: {target} is a directory")
        code = args.handler(args, out)
        if out is sys.stdout:  # a closed stdout fails here, not at interpreter exit
            out.flush()
        return code
    except (_Refused, NotApplicableError, OracleBoundError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:
        # Every other OSError is a _Refused by now, so this one wrote stdout.
        # A closed pipe ends quietly; any other failure says so in one line.
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write stdout: {exc}", file=sys.stderr)
        if out is sys.stdout:  # the buffer left is flushed at exit, into devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), out.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
