"""Command-line surface: listings, spectra tables, decompositions, audits.

Subcommands: validate, enumerate, spectra, decompose, families, audit.
Exit codes are a stable contract:

    0  success
    1  input error (unparseable record, bad flag value, oracle bound)
    2  validation failure (invalid record, failed decomposition)
    3  internal consistency failure (oracle mismatch, law violation)

Records are accepted in two syntaxes: one JSON object per line in the
wire format, or the tuple text '((l, n), g0, (a, b); (k, m), ...)'
(side-exchanging sets drop the parentheses around the single residue a).
Text listings group data sets under 'Exponent l/order' headers ascending
by (order, l); json-lines output round-trips through `from_record`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain

from .datasets import (
    ConePair,
    SeDataSet,
    SpDataSet,
    from_record,
    record_line,
    to_record,
    validate,
)
from .enumeration import (
    SPECTRA_MAX_GENUS,
    Filters,
    OracleBoundError,
    enumerate_oracle,
    enumerate_se,
    enumerate_sp,
    iter_se,
    iter_sp,
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

# A json-lines listing is written in strings of at most this many records,
# so a large order chunk is not rendered into one string.
RECORDS_PER_WRITE = 1024

# ASCII digits only: `\d` would also accept digits of other scripts.
_INTEGER = re.compile(r"-?[0-9]+")


# ---------------------------------------------------------------- parsing

class _Tokens:
    """Tokenizer/cursor for the tuple text syntax."""

    def __init__(self, text: str):
        self.tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "(),;":
                self.tokens.append(ch)
                i += 1
                continue
            mo = _INTEGER.match(text, i)
            if not mo:
                raise ValueError(f"unexpected character {ch!r} in tuple text")
            self.tokens.append(mo.group())
            i = mo.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            raise ValueError(f"expected {token!r}, got {got!r}")
        self.pos += 1

    def integer(self) -> int:
        got = self.peek()
        if got is None or got in "(),;":
            raise ValueError(f"expected an integer, got {got!r}")
        self.pos += 1
        return int(got)

    def pair(self) -> tuple[int, int]:
        self.expect("(")
        first = self.integer()
        self.expect(",")
        second = self.integer()
        self.expect(")")
        return first, second

    def end(self) -> None:
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing tokens after tuple: {self.tokens[self.pos:]}")


def parse_tuple_text(text: str, kind: str | None = None):
    """Parse the tuple text syntax; shape decides SP vs SE unless pinned."""
    t = _Tokens(text)
    t.expect("(")
    l, order = t.pair()
    t.expect(",")
    g0 = t.integer()
    t.expect(",")
    if t.peek() == "(":
        shape = "sp"
        a, b = t.pair()
    else:
        shape = "se"
        a = t.integer()
    t.expect(";")
    cones = [ConePair(*t.pair())]
    while t.peek() == ",":
        t.expect(",")
        cones.append(ConePair(*t.pair()))
    t.expect(")")
    t.end()
    if kind is not None and kind != shape:
        raise ValueError(f"record is {shape.upper()}-shaped but --kind {kind} was given")
    if shape == "sp":
        return SpDataSet(l, order, g0, a, b, tuple(cones))
    return SeDataSet(l, order, g0, a, tuple(cones))


def parse_record_line(line: str, kind: str | None = None):
    """Parse one record given as JSON or tuple text."""
    stripped = line.strip()
    if stripped.startswith("{"):
        d = from_record(json.loads(stripped))
        shape = "sp" if isinstance(d, SpDataSet) else "se"
        if kind is not None and kind != shape:
            raise ValueError(f"record is {shape.upper()} but --kind {kind} was given")
        return d
    return parse_tuple_text(stripped, kind)


# -------------------------------------------------------------- rendering

def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cones_cell(d) -> str:
    return ";".join(f"{c.twist}:{c.order}" for c in d.cones)


def _enumerate_csv_row(d) -> list:
    if isinstance(d, SpDataSet):
        return ["SP", d.l, d.n, d.g0, d.a, d.b, _cones_cell(d)]
    return ["SE", d.l, d.two_n, d.g0, d.a, "", _cones_cell(d)]


def render_listing(sets, fmt: str, out, both_kinds: bool = False) -> None:
    """Write a listing to `out`, each chunk of `sets` as soon as it arrives.

    `sets` is the listing in order as an iterable of chunks, lists of data
    sets (the enumerator yields one per order); it may be lazy and is
    consumed once.  With `both_kinds` the side-preserving chunks come
    first, and text output puts each kind under its own heading.  Text
    groups sets under 'Exponent l/order' headers.
    """
    if fmt == "text":
        if both_kinds:
            out.write("side-preserving:\n")
        # with both kinds, the second heading goes before the first SE set
        exchanging = not both_kinds
        current = None
        for d in chain.from_iterable(sets):
            if not exchanging and isinstance(d, SeDataSet):
                out.write("side-exchanging:\n")
                exchanging, current = True, None
            exponent = d.exponent
            if exponent != current:
                out.write(f"Exponent {exponent[0]}/{exponent[1]}\n")
                current = exponent
            out.write(f"  {d}\n")
        if not exchanging:
            out.write("side-exchanging:\n")
    elif fmt == "json-lines":
        for chunk in sets:
            for start in range(0, len(chunk), RECORDS_PER_WRITE):
                lines = map(record_line, chunk[start:start + RECORDS_PER_WRITE])
                out.write("\n".join(lines) + "\n")
    else:
        writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["kind", "l", "order", "g0", "a", "b", "cones"])
        for d in chain.from_iterable(sets):
            writer.writerow(_enumerate_csv_row(d))


class _OutputError(Exception):
    """The --output path cannot be written; main() reports it and exits 1."""


@contextmanager
def _open_output(path: str | None, fallback):
    """The sink for --output PATH, or `fallback` (stdout) without one.

    PATH is written atomically: through a temporary file beside it that
    replaces PATH, with PATH's mode, only once the command has written
    everything.  If the command fails, the temporary file is removed and
    PATH is left as it was.  Symlinks are followed, and a PATH that is not
    a regular file, such as a pipe or a device, is written directly: it
    cannot be replaced.  An OSError becomes an _OutputError.
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
        raise _OutputError(f"cannot write {path}: {exc}") from None
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
    if args.file is not None and args.file != "-":
        try:
            stream = open(args.file, encoding="utf-8")
        except OSError as exc:
            print(f"cannot open {args.file}: {exc}", file=sys.stderr)
            return 1
    else:
        stream = nullcontext(sys.stdin)

    kind = None if args.kind == "auto" else args.kind
    rows = []
    try:
        with stream as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    d = parse_record_line(line, kind)
                except (ValueError, RecursionError) as exc:
                    print(f"line {number}: {exc}", file=sys.stderr)
                    return 1
                rows.append(validate(d))
    except UnicodeDecodeError as exc:
        # raised by the reads, which decode ahead of the line being parsed
        print(f"input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1

    with _open_output(args.output, out) as sink:
        if args.format == "text":
            for report in rows:
                if report.valid:
                    sink.write(f"valid genus={report.genus}\n")
                else:
                    sink.write(f"invalid: {', '.join(report.failed())}\n")
        elif args.format == "json-lines":
            for report in rows:
                sink.write(_json_line({
                    "valid": report.valid,
                    "genus": report.genus,
                    "failed": report.failed(),
                }) + "\n")
        else:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(["valid", "genus", "failed"])
            for report in rows:
                writer.writerow([
                    str(report.valid).lower(),
                    "" if report.genus is None else report.genus,
                    ";".join(report.failed()),
                ])
    return 0 if all(r.valid for r in rows) else 2


def _parse_exponent(text: str) -> tuple[int, int]:
    mo = re.fullmatch(r"([0-9]+)/([0-9]+)", text.strip())
    if not mo:
        raise ValueError(f"exponent must look like 'l/order', got {text!r}")
    l, order = int(mo.group(1)), int(mo.group(2))
    if order < 2:
        raise ValueError(f"exponent order must be >= 2, got {order}")
    return l, order


def cmd_enumerate(args, out) -> int:
    try:
        exponent = _parse_exponent(args.exponent) if args.exponent else None
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    filters = Filters(essential_only=args.essential, exponent=exponent,
                      g0=args.g0, cone_count=args.cones)

    if args.oracle:
        if args.kind == "both":
            print("--oracle needs --kind sp or --kind se", file=sys.stderr)
            return 1
        try:
            reference = enumerate_oracle(args.genus, args.kind)
        except OracleBoundError as exc:
            print(exc, file=sys.stderr)
            return 1
        enumerate_kind = enumerate_sp if args.kind == "sp" else enumerate_se
        sets = enumerate_kind(args.genus, filters)
        # the oracle lists every set of the genus
        expected = [d for d in reference if filters.accepts(d)]
        if sets != expected:
            missing = [d for d in expected if d not in sets]
            extra = [d for d in sets if d not in expected]
            for d in missing:
                print(f"oracle only: {d}", file=sys.stderr)
            for d in extra:
                print(f"enumerator only: {d}", file=sys.stderr)
            return 3
        chunks = [sets]
    else:
        # Lazy: the sets of each order are written as they are enumerated.
        sp = iter_sp(args.genus, filters) if args.kind != "se" else ()
        se = iter_se(args.genus, filters) if args.kind != "sp" else ()
        chunks = chain(sp, se)

    with _open_output(args.output, out) as sink:
        render_listing(chunks, args.format, sink, both_kinds=args.kind == "both")
    return 0


def cmd_spectra(args, out) -> int:
    lo, hi = args.start, args.end
    if not 1 <= lo <= hi:
        print(f"need 1 <= --from <= --to, got {lo}..{hi}", file=sys.stderr)
        return 1
    if hi > SPECTRA_MAX_GENUS:
        print(f"spectra is capped at genus {SPECTRA_MAX_GENUS}", file=sys.stderr)
        return 1
    rows = [spectra(g) for g in range(lo, hi + 1)]
    with _open_output(args.output, out) as sink:
        if args.format == "text":
            sink.write("surface_genus  e_sp  e_se  n_sp  n_se\n")
            for r in rows:
                sink.write(f"{r.genus_plus_one:>13}  {r.e_sp:>4}  {r.e_se:>4}"
                           f"  {r.n_sp:>4}  {r.n_se:>4}\n")
        elif args.format == "json-lines":
            for r in rows:
                sink.write(_json_line({
                    "surface_genus": r.genus_plus_one,
                    "e_sp": r.e_sp, "e_se": r.e_se,
                    "n_sp": r.n_sp, "n_se": r.n_se,
                }) + "\n")
        else:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(["surface_genus", "e_sp", "e_se", "n_sp", "n_se"])
            for r in rows:
                writer.writerow([r.genus_plus_one, r.e_sp, r.e_se, r.n_sp, r.n_se])
    return 0


def cmd_decompose(args, out) -> int:
    if args.format == "csv":
        print("decompose supports --format text or json-lines", file=sys.stderr)
        return 1
    try:
        d = parse_record_line(args.record, args.kind)
    except (ValueError, RecursionError) as exc:
        print(f"bad record: {exc}", file=sys.stderr)
        return 1

    if args.kind == "sp":
        if args.r is not None:
            print("--r applies to side-exchanging decompositions only", file=sys.stderr)
            return 1
        try:
            result = sp_root_decompose(d)
        except NotApplicableError as exc:
            print(exc, file=sys.stderr)
            return 1
        status, record, adjustments = "exact", result, ()
    else:
        if args.r is None:
            print("side-exchanging decomposition needs --r", file=sys.stderr)
            return 1
        try:
            outcome = se_power_decompose(d, args.r)
        except NotApplicableError as exc:
            print(exc, file=sys.stderr)
            return 1
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


FAMILY_BUILDERS = (
    ("sp-max-exponent-1", lambda g: family_sp_top(g)[0]),
    ("sp-max-exponent-2", lambda g: family_sp_top(g)[1]),
    ("sp-order-4g-1", lambda g: family_sp_4g(g)[0]),
    ("sp-order-4g-2", lambda g: family_sp_4g(g)[1]),
    ("se-order-max", family_se_max),
    ("se-order-min", family_se_min),
)


def cmd_families(args, out) -> int:
    rows = []
    for label, builder in FAMILY_BUILDERS:
        d = builder(args.genus)
        rows.append((label, d, validate(d)))
    with _open_output(args.output, out) as sink:
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
            writer = csv.writer(sink, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
            writer.writerow(["family", "kind", "l", "order", "g0", "a", "b",
                             "cones", "valid", "genus"])
            for label, d, report in rows:
                writer.writerow([label] + _enumerate_csv_row(d)
                                + [str(report.valid).lower(), report.genus])
    return 0 if all(report.valid for _, _, report in rows) else 2


def cmd_audit(args, out) -> int:
    lo, hi = args.start, args.end
    if not 1 <= lo <= hi:
        print(f"need 1 <= --from <= --to, got {lo}..{hi}", file=sys.stderr)
        return 1
    kinds = ("sp", "se") if args.kind == "both" else (args.kind,)
    results = [audit(g, kind) for g in range(lo, hi + 1) for kind in kinds]
    total_violations = sum(len(r.violations) for r in results)
    with _open_output(args.output, out) as sink:
        if args.format == "text":
            for r in results:
                sink.write(f"genus {r.genus} {r.kind}: {r.checked} sets, "
                           f"{len(r.violations)} violations\n")
                for v in r.violations:
                    sink.write(f"  {v.law}: {v.witness}\n")
            sink.write(f"total violations: {total_violations}\n")
        elif args.format == "json-lines":
            for r in results:
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
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(["genus", "kind", "checked", "violations"])
            for r in results:
                writer.writerow([r.genus, r.kind, r.checked, len(r.violations)])
    return 3 if total_violations else 0


# ------------------------------------------------------------------ main

def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistfrac",
        description="Classify, enumerate and relate the data sets of "
                    "fractional powers of a Dehn twist.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True):
        if formats:
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
    if args.output is not None:
        # Refuse a missing directory before computing anything.
        parent = os.path.dirname(os.path.abspath(args.output))
        if not os.path.isdir(parent):
            print(f"cannot write {args.output}: no directory {parent}", file=sys.stderr)
            return 1
    try:
        return args.handler(args, out)
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
