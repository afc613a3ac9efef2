import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import select
import stat
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfrac import (
    ConePair,
    Filters,
    SeDataSet,
    SpDataSet,
    ValidationReport,
    enumerate_se,
    enumerate_sp,
    from_record,
    to_record,
    validate,
)
from twistfrac.cli import _SPLIT_MIN_GENUS, main
from twistfrac.datasets import (
    CONDITION_LABELS,
    _cone_memo,
    _se_report,
    _sp_report,
    key_line,
    parse_record_line,
    record_fields,
)
from twistfrac.enumeration import blocks
from conftest import SRC, flat_keys


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


# ---------------------------------------------------------------- parsing

def test_parse_tuple_text_shapes():
    d = parse_record_line("((1, 9), 0, (2, 2); (5, 9))")
    assert d == SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))
    e = parse_record_line("((17,18),0,7;(1,2),(13,18))")
    assert e == SeDataSet(17, 18, 0, 7, (ConePair(1, 2), ConePair(13, 18)))


def test_parse_tuple_text_round_trips_str():
    d = SpDataSet(8, 16, 0, 1, 7, (ConePair(1, 2),))
    assert parse_record_line(str(d)) == d
    e = SeDataSet(2, 10, 0, 1, (ConePair(9, 10), ConePair(9, 10)))
    assert parse_record_line(str(e)) == e


def test_parse_tuple_text_errors():
    with pytest.raises(ValueError):
        parse_record_line("((1, 9), 0, (2, 2); (5, 9)) trailing")
    with pytest.raises(ValueError):
        parse_record_line("((1, 9), 0, (2, 2))")  # no cones
    with pytest.raises(ValueError):
        parse_record_line("((1, x), 0, (2, 2); (5, 9))")
    with pytest.raises(ValueError):
        parse_record_line("((1, 9), 0, (2, 2); (5, 9))", kind="se")


_ASCII_INTEGER = re.compile(r"-?[0-9]+")


class _Tokens:
    """The character-by-character tokenizer the tuple-text regex replaced."""

    def __init__(self, text):
        self.tokens = []
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
            mo = _ASCII_INTEGER.match(text, i)
            if not mo:
                raise ValueError(f"unexpected character {ch!r} in tuple text")
            self.tokens.append(mo.group())
            i = mo.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, token):
        got = self.peek()
        if got != token:
            raise ValueError(f"expected {token!r}, got {got!r}")
        self.pos += 1

    def integer(self):
        got = self.peek()
        if got is None or got in "(),;":
            raise ValueError(f"expected an integer, got {got!r}")
        self.pos += 1
        return int(got)

    def pair(self):
        self.expect("(")
        first = self.integer()
        self.expect(",")
        second = self.integer()
        self.expect(")")
        return first, second

    def end(self):
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing tokens after tuple: {self.tokens[self.pos:]}")


def _token_parse_tuple_text(text, kind=None):
    """The tuple-text parser as it was before the grammar regex."""
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


TUPLE_TEXTS = [
    "((1, 9), 0, (2, 2); (5, 9))",
    "((17,18),0,7;(1,2),(13,18))",
    "  ((8, 16), 0, (1, 7); (1, 2))\n",
    "((-3, 10), -1, -4; (6, 10), (-6, 10), (1, 2))",
    "((2,10),0,1;(9,10),(9,10))",
    "( ( 4 , 12 ) , 0 , ( 5 , 11 ) ; ( 2 , 3 ) , ( 1 , 2 ) )",
    "((1, 9), 0, (2, 2); )",  # no cone: rejected
    "((2,10),0,1;)",
]
# Characters the mutations insert: the grammar's own, whitespace of several
# kinds, a non-ASCII digit and two characters no integer may hold.
MUTATION_CHARS = list("(),;-0123456789") + [" ", "\t", "\x1c", "\u3000", "\x85",
                                            "\u0662", "+", "x"]


@st.composite
def mutated_tuple_texts(draw):
    chars = list(draw(st.sampled_from(TUPLE_TEXTS)))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("insert", "delete", "swap")))
        if op == "insert":
            chars.insert(draw(st.integers(0, len(chars))),
                         draw(st.sampled_from(MUTATION_CHARS)))
        elif chars:
            i = draw(st.integers(0, len(chars) - 1))
            if op == "delete":
                del chars[i]
            else:
                j = draw(st.integers(0, len(chars) - 1))
                chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_tuple_texts(), st.sampled_from([None, "sp", "se"]))
def test_parse_tuple_text_agrees_with_the_token_parser(text, kind):
    try:
        expected = _token_parse_tuple_text(text, kind)
    except ValueError:
        with pytest.raises(ValueError) as caught:
            parse_record_line(text, kind)
        assert "\n" not in str(caught.value)
    else:
        assert parse_record_line(text, kind) == expected


def test_parse_tuple_text_error_is_one_truncated_line():
    text = "((1, 9), 0, (2, 2);\n" + " (5, 9)," * 20
    with pytest.raises(ValueError) as caught:
        parse_record_line(text)
    message = str(caught.value)
    assert "\n" not in message and message.endswith("...")
    assert len(message) < 100


def test_parse_record_line_json():
    d = SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))
    assert parse_record_line(json.dumps(to_record(d))) == d
    with pytest.raises(ValueError):
        parse_record_line(json.dumps(to_record(d)), kind="se")


@pytest.mark.parametrize("record, kind", [
    ("((1, 9), 0, (2, 2); (5, 9))", "se"),
    ('{"kind":"SP","l":1,"n":9,"g0":0,"a":2,"b":2,"cones":[[5,9]]}', "se"),
    ("((17, 18), 0, 7; (1, 2), (13, 18))", "sp"),
    ('{"kind":"SE","l":17,"two_n":18,"g0":0,"a":7,"cones":[[1,2],[13,18]]}', "sp"),
], ids=["sp-text", "sp-json", "se-text", "se-json"])
@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_kind_mismatch_is_one_line_in_either_syntax(command, record, kind, tmp_path, capsys):
    if command == "validate":
        path = tmp_path / "record.txt"
        path.write_text(record + "\n")
        code, out = run_cli("validate", str(path), "--kind", kind)
        prefix = "line 1: "
    else:
        code, out = run_cli("decompose", record, "--kind", kind)
        prefix = "bad record: "
    shape = "SE" if kind == "sp" else "SP"
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"{prefix}record is {shape} but --kind {kind} was given\n"


RECORD_TEXTS = [
    '{"kind":"SP","l":8,"n":16,"g0":0,"a":1,"b":7,"cones":[[1,2]]}',
    '{"kind": "SP", "l": 4, "n": 12, "g0": 1, "a": 5, "b": 11, "cones": [[2, 3], [1, 4]]}',
    '{"kind":"SE","l":17,"two_n":18,"g0":0,"a":7,"cones":[[1,2],[13,18]]}',
    '{"kind":"SE","l":2,"two_n":10,"g0":1,"a":1,"cones":[]}',
]
JSON_CHARS = list('{}[]",:-0123456789.eE SPkindtruefalsenul') + ["\t", "\\", "٢"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["kind", "l", "n", "two_n", "g0", "a",
                                                      "b", "cones", "x"]), inner, max_size=8)),
    max_leaves=12)


@st.composite
def mutated_record_texts(draw):
    chars = list(draw(st.sampled_from(RECORD_TEXTS)))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("insert", "delete", "swap")))
        if op == "insert":
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(JSON_CHARS)))
        elif chars:
            i = draw(st.integers(0, len(chars) - 1))
            if op == "delete":
                del chars[i]
            else:
                j = draw(st.integers(0, len(chars) - 1))
                chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


@st.composite
def deeply_nested_records(draw, depths=st.integers(0, 4000)):
    depth = draw(depths)
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    field = draw(st.sampled_from(["kind", "cones", "l"]))
    return f'{{"{field}":{opener * depth}1{closer * depth}}}', depth


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(mutated_record_texts().map(lambda text: (text, 0)),
                 JSON_VALUES.map(lambda value: (json.dumps(value), 0)),
                 deeply_nested_records()),
       st.sampled_from([None, "sp", "se"]))
def test_parse_record_line_returns_a_set_or_raises_value_error(text_depth, kind):
    text, depth = text_depth
    try:
        d = parse_record_line(text, kind)
    except ValueError:
        return
    except RecursionError:
        assert depth > 100
        return
    assert isinstance(d, (SpDataSet, SeDataSet))
    if text.strip().startswith("{"):
        assert from_record(json.loads(text)) == d


def _field_path(line, kind):
    """What `validate` does with a line: its fields straight into the kind's kernel."""
    shape, fields = record_fields(line, kind)
    return (_sp_report if shape == "sp" else _se_report)(*fields)


def _set_path(line, kind):
    return validate(parse_record_line(line, kind))


def _path_outcome(path, line, kind):
    try:
        return path(line, kind)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _assert_paths_agree(line, kind):
    new, old = _path_outcome(_field_path, line, kind), _path_outcome(_set_path, line, kind)
    assert new == old
    if isinstance(old, ValidationReport):
        assert new is old  # equal verdicts share one report


PARITY_SETS = enumerate_sp(4) + enumerate_se(4)


@st.composite
def perturbed_record_lines(draw):
    """A listed set, maybe with one field or cone entry moved, as JSON or tuple text."""
    d = draw(st.sampled_from(PARITY_SETS))
    delta = draw(st.integers(-3, 3))
    field = draw(st.sampled_from([*vars(d), "cone twist", "cone order"]))
    if field.startswith("cone"):
        if d.cones:
            i = draw(st.integers(0, len(d.cones) - 1))
            k, m = d.cones[i]
            moved = ConePair(k + delta, m) if field == "cone twist" else ConePair(k, m + delta)
            d = replace(d, cones=d.cones[:i] + (moved,) + d.cones[i + 1:])
    else:
        d = replace(d, **{field: getattr(d, field) + delta})
    return json.dumps(to_record(d)) if draw(st.booleans()) else str(d)


SP_JSON = {"kind": "SP", "l": 1, "n": 9, "g0": 0, "a": 2, "b": 2, "cones": [[5, 9]]}
SE_JSON = {"kind": "SE", "l": 17, "two_n": 18, "g0": 0, "a": 7, "cones": [[1, 2], [13, 18]]}
MALFORMED_LINES = [
    json.dumps({**SP_JSON, "g0": False}),
    json.dumps({**SE_JSON, "a": True}),
    json.dumps({**SP_JSON, "cones": [[5.0, 9]]}),
    json.dumps({**SE_JSON, "cones": [[1, 2], [13, 18.0]]}),
    json.dumps({**SP_JSON, "kind": "SE"}),
    json.dumps({**SE_JSON, "kind": "sp"}),
    json.dumps({**SP_JSON, "n": 0}).replace('"n": 0', '"n": ' + "9" * 5000),
    json.dumps({**SP_JSON, "n": 10**4000, "l": -10**4000}),
    json.dumps({**SE_JSON, "cones": [[1, 0]]}).replace("0]", "9" * 5000 + "]"),
    f"((1, {'9' * 5000}), 0, (2, 2); (5, 9))",
    f"((1, {10**4000}), {10**4000}, (1, 1); (1, 2))",
    "((1, 9), 0, (2, 2); (5, 9.0))",
    '{"kind":' + "[" * 100_000,
    '{"kind":"SP","cones":' + "[" * 500 + "]" * 500 + "}",
    json.dumps([SP_JSON]),
    "((1, 0), 0, (2, 2); (5, 0))",
]


@pytest.mark.parametrize("line", MALFORMED_LINES)
@pytest.mark.parametrize("kind", [None, "sp", "se"])
def test_validate_fields_agree_with_the_data_set_path_on_malformed_lines(line, kind):
    _assert_paths_agree(line, kind)


# Nesting depths away from the recursion limit: there the data set path's one
# extra frame can decide whether json.loads gives up.
PARITY_DEPTHS = st.one_of(st.integers(0, 200), st.integers(3000, 4000))


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(perturbed_record_lines(), mutated_record_texts(),
                 JSON_VALUES.map(json.dumps),
                 deeply_nested_records(PARITY_DEPTHS).map(lambda text_depth: text_depth[0])),
       st.sampled_from([None, "sp", "se"]))
def test_validate_fields_agree_with_the_data_set_path(line, kind):
    _assert_paths_agree(line, kind)


def test_record_parsers_still_build_cone_pairs():
    text = "((1, 9), 0, (2, 2); (5, 9))"
    for d in (parse_record_line(text, "sp"), parse_record_line(text),
              parse_record_line(json.dumps(SP_JSON)), from_record(SP_JSON)):
        assert [(type(c), c.twist, c.order) for c in d.cones] == [(ConePair, 5, 9)]


# --------------------------------------------------------------- validate

def test_validate_file_all_valid(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n"
                    '{"kind":"SE","l":17,"two_n":18,"g0":0,"a":7,'
                    '"cones":[[1,2],[13,18]]}\n')
    code, out = run_cli("validate", str(path))
    assert code == 0
    assert out == "valid genus=4\nvalid genus=4\n"


def test_validate_reports_invalid_with_exit_2(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("((3, 10), 0, 4; (6, 10), (6, 10))\n")
    code, out = run_cli("validate", str(path), "--kind", "se")
    assert code == 2
    assert out.startswith("invalid: condition (ii)")


def test_validate_bytes_not_utf8_exit_1(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.txt"
    path.write_bytes(b"\xff(\n")
    code, out = run_cli("validate", str(path))
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1

    strict_stdin = io.TextIOWrapper(io.BytesIO(b"((1, 9), 0, (2, 2); (5, 9))\n\xff(\n"),
                                    encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", strict_stdin)
    code, out = run_cli("validate")
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_validate_read_error_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def failing_stdin():
        yield "((1, 9), 0, (2, 2); (5, 9))\n"
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(sys, "stdin", failing_stdin())
    target = tmp_path / "reports.txt"
    assert run_cli("validate", "--output", str(target)) == (1, "")
    assert capsys.readouterr().err == "cannot read stdin: [Errno 5] Input/output error\n"
    assert list(tmp_path.iterdir()) == []


RECORD_LINES = [
    b"((1, 9), 0, (2, 2); (5, 9))",
    b'{"kind":"SE","l":17,"two_n":18,"g0":0,"a":7,"cones":[[1,2],[13,18]]}',
    b"((3, 10), 0, 4; (6, 10), (6, 10))",  # parses, but is invalid
]


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.one_of(
    st.sampled_from(RECORD_LINES),
    st.binary(max_size=16),
    st.text(alphabet='(),;- 0123456789{}[]:"kindSPEabcl_ntwog\r\n\x00\u0662',
            max_size=40).map(str.encode),
), max_size=6).map(b"\n".join))
def test_validate_any_bytes_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("validate") / "records.txt"
    path.write_bytes(data)
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code, _ = run_cli("validate", str(path))
    assert code in (0, 1, 2)
    assert len(errors.getvalue().splitlines()) <= 1


def test_validate_json_lines_format(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n")
    code, out = run_cli("validate", str(path), "--format", "json-lines")
    assert code == 0
    assert json.loads(out) == {"valid": True, "genus": 4, "failed": []}


def test_validate_csv_format(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n((10, 9), 0, (2, 2); (5, 9))\n")
    code, out = run_cli("validate", str(path), "--format", "csv")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "valid,genus,failed"
    assert lines[1] == "true,4,"
    assert lines[2] == "false,4,range of l"


def _rendered_reports(reports, fmt):
    """`validate` output as it was rendered before reports shared their lines."""
    out = io.StringIO()
    if fmt == "text":
        for report in reports:
            if report.valid:
                out.write(f"valid genus={report.genus}\n")
            else:
                out.write(f"invalid: {', '.join(report.failed())}\n")
    elif fmt == "json-lines":
        for report in reports:
            out.write(json.dumps({"valid": report.valid, "genus": report.genus,
                                  "failed": report.failed()},
                                 separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["valid", "genus", "failed"])
        for report in reports:
            writer.writerow([str(report.valid).lower(),
                             "" if report.genus is None else report.genus,
                             ";".join(report.failed())])
    return 0 if all(r.valid for r in reports) else 2, out.getvalue()


def _listing_and_broken_copies():
    """Genus 1..8 sets, each also with a -> a+1 and with a broken structure."""
    sets = []
    for g in range(1, 9):
        for d in enumerate_sp(g) + enumerate_se(g):
            order = "n" if isinstance(d, SpDataSet) else "two_n"
            sets += [d, replace(d, a=d.a + 1), replace(d, g0=-1),
                     replace(d, **{order: getattr(d, order) + 1})]
    return sets


@pytest.mark.parametrize("per_write", [1, 7, 1024])
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_validate_bytes_equal_the_per_report_rendering(fmt, per_write, tmp_path,
                                                       monkeypatch):
    import twistfrac.cli as cli_mod

    monkeypatch.setattr(cli_mod, "RECORDS_PER_WRITE", per_write)
    sets = _listing_and_broken_copies()
    path = tmp_path / "records.txt"
    path.write_text("".join(
        (str(d) if i % 2 else json.dumps(to_record(d))) + "\n" for i, d in enumerate(sets)))
    expected = _rendered_reports([validate(d) for d in sets], fmt)
    assert run_cli("validate", str(path), "--format", fmt) == expected
    # every record valid: exit 0
    path.write_text("".join(f"{d}\n" for d in sets[::4]))
    expected = _rendered_reports([validate(d) for d in sets[::4]], fmt)
    assert expected[0] == 0
    assert run_cli("validate", str(path), "--format", fmt) == expected


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_validate_bytes_do_not_depend_on_the_cone_memo(fmt, tmp_path):
    # The genus 9 listing, each set also with a -> a+1, validated twice in one
    # process: the cone memo cold, then warm.
    from twistfrac import _split

    sets = [e for d in enumerate_sp(9) + enumerate_se(9) for e in (d, replace(d, a=d.a + 1))]
    expected = _rendered_reports([validate(d) for d in sets], fmt)
    assert expected[0] == 2
    for syntax, render in (("json", lambda d: json.dumps(to_record(d))), ("text", str)):
        path = tmp_path / f"{syntax}.txt"
        path.write_text("".join(render(d) + "\n" for d in sets))
        # too small to split: the counted memo is this process's, not a worker's
        assert path.stat().st_size < 2 * _split._RANGE_MIN_BYTES
        _cone_memo.cache_clear()
        cold = run_cli("validate", str(path), "--format", fmt)
        hits = _cone_memo.cache_info().hits
        warm = run_cli("validate", str(path), "--format", fmt)
        assert cold == warm == expected
        # tuple text reads every cone text from the warm memo; JSON never uses it
        assert _cone_memo.cache_info().hits - hits == (len(sets) if syntax == "text" else 0)


def test_validate_csv_row_needs_no_quoting(tmp_path, monkeypatch):
    # One report per subset of failed conditions, with and without a genus.
    import twistfrac.cli as cli_mod
    from twistfrac import _split

    fields = list(CONDITION_LABELS)
    reports = [
        ValidationReport(**{f: not mask >> i & 1 for i, f in enumerate(fields)}, genus=genus)
        for mask in range(1 << len(fields)) for genus in (None, 7, -3)
    ]
    supply = iter(reports)
    # every record is SP, so the SP validity kernel hands out the reports
    monkeypatch.setattr(cli_mod, "_sp_report", lambda *fields: next(supply))
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n" * len(reports))
    # too small to split: the kernel patched is this process's, not a worker's
    assert path.stat().st_size < 2 * _split._RANGE_MIN_BYTES
    assert run_cli("validate", str(path), "--format", "csv") == _rendered_reports(
        reports, "csv")


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_validate_late_bad_line_writes_nothing(fmt, tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n"
                    "((3, 10), 0, 4; (6, 10), (6, 10))\n"
                    "((1, 9), 0, (2, 2); (5, 9)\n")
    assert run_cli("validate", str(path), "--format", fmt) == (1, "")
    assert capsys.readouterr().err.startswith("line 3: ")
    target = tmp_path / "out.txt"
    assert run_cli("validate", str(path), "--format", fmt,
                   "--output", str(target)) == (1, "")
    assert not target.exists()


# -------------------------------------------------------------- enumerate

def test_enumerate_text_grouping():
    code, out = run_cli("enumerate", "--genus", "4", "--kind", "sp",
                        "--essential", "--exponent", "8/16")
    assert code == 0
    assert out == ("Exponent 8/16\n"
                   "  ((8, 16), 0, (1, 7); (1, 2))\n"
                   "  ((8, 16), 0, (3, 5); (1, 2))\n"
                   "  ((8, 16), 0, (9, 15); (1, 2))\n"
                   "  ((8, 16), 0, (11, 13); (1, 2))\n")


def test_enumerate_se_exponent_filter():
    code, out = run_cli("enumerate", "--genus", "4", "--kind", "se",
                        "--essential", "--exponent", "2/12")
    assert code == 0
    assert out == ("Exponent 2/12\n"
                   "  ((2, 12), 0, 1; (1, 4), (7, 12))\n"
                   "  ((2, 12), 0, 1; (3, 4), (1, 12))\n")


def test_enumerate_json_lines_round_trip():
    code, out = run_cli("enumerate", "--genus", "3", "--kind", "sp",
                        "--format", "json-lines")
    assert code == 0
    parsed = [from_record(json.loads(line)) for line in out.splitlines()]
    assert parsed == enumerate_sp(3)


def test_enumerate_csv_and_json_agree():
    code_csv, out_csv = run_cli("enumerate", "--genus", "3", "--kind", "both",
                                "--format", "csv")
    code_json, out_json = run_cli("enumerate", "--genus", "3", "--kind", "both",
                                  "--format", "json-lines")
    assert code_csv == 0 and code_json == 0

    import csv as csvmod
    rows = list(csvmod.reader(io.StringIO(out_csv)))
    assert rows[0] == ["kind", "l", "order", "g0", "a", "b", "cones"]
    from_csv = set()
    for kind, l, order, g0, a, b, cones in rows[1:]:
        pairs = tuple(tuple(map(int, c.split(":"))) for c in cones.split(";"))
        from_csv.add((kind, int(l), int(order), int(g0), int(a),
                      int(b) if b else None, pairs))
    from_json = set()
    for line in out_json.splitlines():
        d = from_record(json.loads(line))
        if isinstance(d, SpDataSet):
            from_json.add(("SP", d.l, d.n, d.g0, d.a, d.b,
                           tuple((c.twist, c.order) for c in d.cones)))
        else:
            from_json.add(("SE", d.l, d.two_n, d.g0, d.a, None,
                           tuple((c.twist, c.order) for c in d.cones)))
    assert from_csv == from_json


def test_enumerate_both_kinds_sections():
    code, out = run_cli("enumerate", "--genus", "1", "--kind", "both",
                        "--essential")
    assert code == 0
    assert out.startswith("side-preserving:\n")
    assert "side-exchanging:\n" in out


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
@pytest.mark.parametrize("flags", [
    *(f"--genus {g} --kind {kind}" for g in range(1, 6) for kind in ("sp", "se")),
    "--genus 4 --kind sp --essential --exponent 8/16",
    "--genus 5 --kind se --g0 0 --cones 3",
])
def test_enumerate_oracle_prints_the_plain_listing(flags, fmt):
    argv = ["enumerate", *flags.split(), "--format", fmt]
    code, listing = run_cli(*argv)
    assert code == 0 and listing.count("\n") > 1
    assert run_cli(*argv, "--oracle") == (0, listing)


def test_enumerate_oracle_lists_the_blocks_once(monkeypatch):
    import twistfrac.cli as cli_mod
    import twistfrac.enumeration as enumeration_mod

    calls = []
    listing = enumeration_mod.blocks
    for module in (cli_mod, enumeration_mod):
        monkeypatch.setattr(module, "blocks",
                            lambda g, kind, f=None: calls.append(g) or listing(g, kind, f))
    _, plain = run_cli("enumerate", "--genus", "4", "--kind", "sp")
    assert run_cli("enumerate", "--genus", "4", "--kind", "sp", "--oracle") == (0, plain)
    assert calls == [4, 4]  # once per command


def test_one_parser_serves_every_call():
    import twistfrac.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    # a usage error leaves the shared parser usable
    assert run_cli("enumerate", "--genus", "x")[0] == 1
    assert run_cli("spectra", "--from", "4", "--to", "4", "--format", "csv") == (
        0, "surface_genus,e_sp,e_se,n_sp,n_se\n5,13,22,26,33\n")


GENUS_4_SP = SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))  # in no genus-3 listing


@pytest.mark.parametrize("mangle, err", [
    (lambda sets: sets[::-1], "enumerator lists the oracle's sets in another order or "
                              "with repeats (40 listed, 40 expected)\n"),
    (lambda sets: sets[:1] + sets, "enumerator lists the oracle's sets in another order or "
                                   "with repeats (41 listed, 40 expected)\n"),
    (lambda sets: sets[1:], "oracle only: ((1, 3), 0, (2, 2); (1, 3), (2, 3), (2, 3))\n"),
    (lambda sets: sets + [GENUS_4_SP], "enumerator only: ((1, 9), 0, (2, 2); (5, 9))\n"),
], ids=["reversed", "repeated", "dropped", "added"])
def test_enumerate_oracle_mismatch_of_the_same_sets_is_explained(mangle, err, monkeypatch,
                                                                 capsys):
    import twistfrac.cli as cli_mod

    listing = cli_mod.block_sets
    monkeypatch.setattr(cli_mod, "block_sets", lambda kind, chunks: mangle(listing(kind, chunks)))
    code, out = run_cli("enumerate", "--genus", "3", "--kind", "sp", "--oracle")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == err


def test_enumerate_output_file(tmp_path):
    target = tmp_path / "listing.txt"
    code, out = run_cli("enumerate", "--genus", "4", "--kind", "sp",
                        "--essential", "--output", str(target))
    assert code == 0 and out == ""
    _, direct = run_cli("enumerate", "--genus", "4", "--kind", "sp",
                        "--essential")
    assert target.read_text(encoding="utf-8") == direct


# The streamed listing must be byte-identical to rendering the finished
# lists, as `enumerate` did before it streamed.  Filter flags at genus 6,
# chosen so that both kinds list something under each.
STREAM_FILTERS = {
    "none": ([], Filters()),
    "essential": (["--essential"], Filters(essential_only=True)),
    "g0": (["--g0", "1"], Filters(g0=1)),
    "cones": (["--cones", "2"], Filters(cone_count=2)),
    "exponent": (["--exponent", "4/14"], Filters(exponent=(4, 14))),
}


def _materialised_listing(g, kind, fmt, filters):
    sp = enumerate_sp(g, filters) if kind in ("sp", "both") else []
    se = enumerate_se(g, filters) if kind in ("se", "both") else []
    out = io.StringIO()
    if fmt == "text":
        def grouped(sets):
            current = None
            for d in sets:
                if d.exponent != current:
                    out.write(f"Exponent {d.exponent[0]}/{d.exponent[1]}\n")
                    current = d.exponent
                out.write(f"  {d}\n")
        if kind == "both":
            out.write("side-preserving:\n")
            grouped(sp)
            out.write("side-exchanging:\n")
            grouped(se)
        else:
            grouped(sp + se)
    elif fmt == "json-lines":
        for d in sp + se:
            out.write(json.dumps(to_record(d), separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["kind", "l", "order", "g0", "a", "b", "cones"])
        for d in sp + se:
            cones = ";".join(f"{c.twist}:{c.order}" for c in d.cones)
            if isinstance(d, SpDataSet):
                writer.writerow(["SP", d.l, d.n, d.g0, d.a, d.b, cones])
            else:
                writer.writerow(["SE", d.l, d.two_n, d.g0, d.a, "", cones])
    return out.getvalue()


# `per_write` is the most lines one write may hold, in every format.
@pytest.mark.parametrize("filter_name", sorted(STREAM_FILTERS))
@pytest.mark.parametrize("per_write", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
@pytest.mark.parametrize("kind", ["sp", "se", "both"])
def test_streamed_listing_equals_materialised(kind, fmt, per_write, filter_name,
                                              monkeypatch):
    import twistfrac.cli as cli_mod

    monkeypatch.setattr(cli_mod, "RECORDS_PER_WRITE", per_write)
    flags, filters = STREAM_FILTERS[filter_name]
    code, out = run_cli("enumerate", "--genus", "6", "--kind", kind,
                        "--format", fmt, *flags)
    assert code == 0
    assert out == _materialised_listing(6, kind, fmt, filters)
    assert out.count("\n") > (kind == "both") * 2 + (fmt == "csv")


def _csv_cells(key):
    """The csv cells of the set with sort key `key`, built here from the key."""
    order, l, g0, a, *b, cones = key  # b is [] in a side-exchanging key
    return ["SP" if b else "SE", l, order, g0, a, b[0] if b else "",
            ";".join(f"{k}:{m}" for m, k in cones)]


def _listing_key_by_key(g, filters, fmt):
    """`enumerate --kind both` rendered one set at a time, with no cache."""
    kinds = (("side-preserving:", flat_keys(blocks(g, "sp", filters))),
             ("side-exchanging:", flat_keys(blocks(g, "se", filters))))
    out = io.StringIO()
    if fmt == "text":
        for heading, keys in kinds:
            out.write(heading + "\n")
            current = None
            for key in keys:
                if key[:2] != current:
                    current = key[:2]
                    out.write(f"Exponent {key[1]}/{key[0]}\n")
                out.write(f"  {key_line(key, 'text')}\n")
    elif fmt == "json-lines":
        for d in enumerate_sp(g, filters) + enumerate_se(g, filters):
            out.write(json.dumps(to_record(d), separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["kind", "l", "order", "g0", "a", "b", "cones"])
        for _, keys in kinds:
            writer.writerows(_csv_cells(key) for key in keys)
    return out.getvalue()


@pytest.mark.parametrize("g", range(1, 11))
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_cached_cone_text_gives_the_same_bytes(g, fmt):
    cases = [
        ([], Filters()),
        (["--essential"], Filters(essential_only=True)),
        (["--exponent", f"{2 * g}/{4 * g}"], Filters(exponent=(2 * g, 4 * g))),
        (["--exponent", f"2/{2 * g + 2}"], Filters(exponent=(2, 2 * g + 2))),
        (["--g0", "1"], Filters(g0=1)),
        (["--cones", "3"], Filters(cone_count=3)),
    ]
    for flags, filters in cases:
        code, out = run_cli("enumerate", "--genus", str(g), "--kind", "both",
                            "--format", fmt, *flags)
        assert code == 0
        assert out == _listing_key_by_key(g, filters, fmt)


# sha256 of `enumerate --genus 16 --kind both`, recorded from the engine that
# listed flat sort keys, before the listing moved to blocks.  These hold many
# orders with several signatures at one g0, whose cones lists are merged.
PINNED_GENUS_16 = {
    ("text", ()): "0f2834636194058439ecea6a64a7bf831f2539e2a7b6f98f8abe27acfe2db802",
    ("json-lines", ()): "604d44c1d7626318b6974316124b5063cb3e8759d729fbc4157f937081ba629f",
    ("csv", ()): "525f80dd1ba1cd03bbde5bc36a9332318dacc529e2982f404d86c75c08b6b2c8",
    ("text", ("--exponent", "2/34")):
        "70a7093214d62b17eba7eb46ca560505f4a4537ea71cfe897c6e11b942624a57",
    ("json-lines", ("--exponent", "2/34")):
        "d78996de1254a4733f03ab19c276564b3d71c2537782296233850616a310b596",
    ("csv", ("--exponent", "2/34")):
        "5a79b9c486d04e80dcca901523b67b5933d50c219f0846970349b45a5a8c669d",
    ("text", ("--g0", "1")): "275f5d047c645d3f5b4a688a762410d48350bc989f6401370268ec7b141c185c",
    ("json-lines", ("--g0", "1")):
        "3f0582e7a39f3e7aa26c62bcc41fd0cbf36c0bb46768940c6161720461190314",
    ("csv", ("--g0", "1")): "a5e387e711071804a8813d3f7df9f32ecca9d9ad35044b00184889213c4d2683",
}


@pytest.mark.parametrize("fmt, flags", sorted(PINNED_GENUS_16))
def test_genus_16_listing_bytes_are_pinned(fmt, flags):
    code, out = run_cli("enumerate", "--genus", "16", "--kind", "both", "--format", fmt, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_GENUS_16[fmt, flags]


@pytest.mark.parametrize("g, flags, filters", [
    (1, [], Filters()),  # the last SP and the first SE exponent are both 2/4
    (6, ["--exponent", "1/13"], Filters(exponent=(1, 13))),  # SP sets only
    (6, ["--exponent", "3/26"], Filters(exponent=(3, 26))),  # SE sets only
])
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_streamed_both_kinds_at_the_kind_boundary(g, flags, filters, fmt):
    code, out = run_cli("enumerate", "--genus", str(g), "--kind", "both",
                        "--format", fmt, *flags)
    assert code == 0
    assert out == _materialised_listing(g, "both", fmt, filters)


def test_json_lines_writes_large_chunks_in_parts(monkeypatch):
    import twistfrac.cli as cli_mod

    monkeypatch.setattr(cli_mod, "RECORDS_PER_WRITE", 7)
    code, out = run_cli("enumerate", "--genus", "6", "--format", "json-lines")
    assert code == 0
    assert out == _materialised_listing(6, "both", "json-lines", Filters())


class _WriteCountingSink(io.StringIO):
    """Stands in for stdout: counts writes and refuses an empty one.

    An empty write would still stamp the benchmark's time to first output.
    """

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        assert text, "write('') called"
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_every_format_writes_in_batches(fmt, monkeypatch):
    import twistfrac.cli as cli_mod

    monkeypatch.setattr(cli_mod, "RECORDS_PER_WRITE", 7)
    sink = _WriteCountingSink()
    windows = []  # (lines of a chunk, writes while it was rendered)

    def lines(chunk):  # one per set, and in text one per exponent
        keys = flat_keys([chunk])
        return len(keys) + (fmt == "text") * len({key[:2] for key in keys})

    real_blocks = cli_mod.blocks

    def watched_blocks(*args, **kwargs):
        for chunk in real_blocks(*args, **kwargs):
            before = sink.writes
            yield chunk
            windows.append((lines(chunk), sink.writes - before))

    monkeypatch.setattr(cli_mod, "blocks", watched_blocks)
    argv = ["enumerate", "--genus", "6", "--kind", "both", "--format", fmt]
    assert main(argv, stdout=sink) == 0
    assert sink.getvalue() == _materialised_listing(6, "both", fmt, Filters())
    assert max(count for count, _ in windows) > 7
    assert all(writes <= -(-count // 7) for count, writes in windows)
    # besides the chunks, only the csv header or the two kind headings
    extra = {"text": 2, "json-lines": 0, "csv": 1}[fmt]
    assert sink.writes == sum(writes for _, writes in windows) + extra


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_no_command_writes_an_empty_string(fmt, tmp_path):
    records = tmp_path / "records.txt"
    records.write_text("((1, 9), 0, (2, 2); (5, 9))\n((10, 9), 0, (2, 2); (5, 9))\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    commands = [["validate", str(records)], ["validate", str(empty)],
                ["families", "--genus", "3"], ["spectra", "--from", "1", "--to", "3"],
                ["audit", "--from", "1", "--to", "2"]]
    for kind in ("sp", "se", "both"):
        commands += [["enumerate", "--genus", "3", "--kind", kind],
                     # lists no set
                     ["enumerate", "--genus", "2", "--kind", kind, "--exponent", "0/4"]]
    for argv in commands:
        # the sink fails the run on an empty write
        assert main(argv + ["--format", fmt], stdout=_WriteCountingSink()) in (0, 2), argv


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_enumerate_writes_each_order_before_the_next(fmt, monkeypatch):
    import twistfrac.cli as cli_mod

    real_blocks = cli_mod.blocks
    out = io.StringIO()
    progress = []  # (sets enumerated, set lines written) whenever a chunk is asked for

    def watched_blocks(*args, **kwargs):
        enumerated = 0
        for chunk in real_blocks(*args, **kwargs):
            yield chunk
            enumerated += len(flat_keys([chunk]))
            lines = out.getvalue().splitlines()
            if fmt == "text":
                written = sum(line.startswith("  ") for line in lines)
            else:
                written = len(lines) - (fmt == "csv")
            progress.append((enumerated, written))

    monkeypatch.setattr(cli_mod, "blocks", watched_blocks)
    argv = ["enumerate", "--genus", "5", "--kind", "sp", "--format", fmt]
    assert main(argv, stdout=out) == 0
    assert len(progress) == 19  # orders 2..20
    assert all(enumerated == written for enumerated, written in progress)
    assert progress[-1][0] == len(enumerate_sp(5))


def test_listings_build_no_data_sets(monkeypatch):
    import twistfrac.cli as cli_mod
    import twistfrac.enumeration as enumeration_mod

    formats = ("text", "json-lines", "csv")
    expected = {fmt: _materialised_listing(5, "both", fmt, Filters()) for fmt in formats}

    def no_sets(*args, **kwargs):
        raise AssertionError("the listing built data sets")

    for module in (cli_mod, enumeration_mod):
        monkeypatch.setattr(module, "block_sets", no_sets)
    monkeypatch.setattr(SpDataSet, "__init__", no_sets)
    monkeypatch.setattr(SeDataSet, "__init__", no_sets)
    for fmt in formats:
        assert run_cli("enumerate", "--genus", "5", "--format", fmt) == (0, expected[fmt])
    with pytest.raises(AssertionError):
        enumerate_se(5)


@pytest.mark.parametrize("g", range(1, 11))
def test_record_line_is_compact_json_of_to_record(g):
    for d in enumerate_sp(g) + enumerate_se(g):
        key = d.sort_key()
        assert key_line(key, "json-lines") == json.dumps(to_record(d), separators=(",", ":"))


# ---------------------------------------------------------------- spectra

def test_spectra_csv_single_row():
    code, out = run_cli("spectra", "--from", "4", "--to", "4", "--format", "csv")
    assert code == 0
    assert out == "surface_genus,e_sp,e_se,n_sp,n_se\n5,13,22,26,33\n"


def test_spectra_text_and_json():
    code, out = run_cli("spectra", "--from", "4", "--to", "5")
    assert code == 0
    assert out.splitlines()[0].split() == ["surface_genus", "e_sp", "e_se",
                                           "n_sp", "n_se"]
    code, out = run_cli("spectra", "--from", "4", "--to", "4",
                        "--format", "json-lines")
    assert json.loads(out) == {"surface_genus": 5, "e_sp": 13, "e_se": 22,
                               "n_sp": 26, "n_se": 33}


@pytest.mark.parametrize("fmt, digest", [
    ("text", "7d5e4e51c36ed2c69f0dbe5658ee202bca99182eb765a97d48467b2eeefabbd8"),
    ("csv", "2b1fde4b15e428b4cee617eb2f154e0005c0a3507c1f2671abfd08fc2fb3812a"),
    ("json-lines", "20ab37f624aa2b4f02e4168ae4cf76900740c8f532483089f1ced9ef47b36275"),
])
def test_spectra_bytes_up_to_the_cap(fmt, digest):
    code, out = run_cli("spectra", "--from", "1", "--to", "128", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -------------------------------------------------------------- decompose

def test_decompose_sp_example():
    code, out = run_cli("decompose", "--kind", "sp",
                        "((2, 9), 0, (1, 1); (7, 9))")
    assert code == 0
    assert out == "((1, 9), 0, (2, 2); (5, 9))\nstatus: exact\n"


def test_decompose_se_adjusted_example():
    code, out = run_cli("decompose", "--kind", "se", "--r", "2",
                        "((6, 10), 0, 2; (3, 10), (3, 10))")
    assert code == 0
    assert out == ("((3, 10), 0, 4; (1, 10), (1, 10))\n"
                   "status: adjusted\n"
                   "cone 1: raw 6 -> 1\n"
                   "cone 2: raw 6 -> 1\n")


def test_decompose_json_format():
    code, out = run_cli("decompose", "--kind", "se", "--r", "2",
                        "((6, 10), 0, 2; (3, 10), (3, 10))",
                        "--format", "json-lines")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "adjusted"
    assert payload["adjustments"] == [[1, 6, 1], [2, 6, 1]]
    assert from_record(payload["result"]) == SeDataSet(
        3, 10, 0, 4, (ConePair(1, 10), ConePair(1, 10)))


SE_ADJUSTED = "((6, 10), 0, 2; (3, 10), (3, 10))"  # r = 2 adjusts both cones


@pytest.fixture
def candidate_rejected(monkeypatch):
    """`relations.validate_se` failing only the r = 2 candidate of SE_ADJUSTED."""
    import twistfrac.relations as relations

    real = relations.validate_se
    candidate = SeDataSet(3, 10, 0, 4, (ConePair(1, 10), ConePair(1, 10)))
    monkeypatch.setattr(relations, "validate_se", lambda d: (
        replace(real(d), cone_sum=False) if d == candidate else real(d)))


def test_decompose_rejected_candidate_is_failed(candidate_rejected):
    from twistfrac.relations import DecompositionResult, se_power_decompose

    assert se_power_decompose(parse_record_line(SE_ADJUSTED, "se"), 2) == (
        DecompositionResult("failed", None, ((1, 6, 1), (2, 6, 1))))


@pytest.mark.parametrize("fmt, expected", [
    ("text", "status: failed\ncone 1: raw 6 -> 1\ncone 2: raw 6 -> 1\n"),
    ("json-lines", '{"status":"failed","result":null,"adjustments":[[1,6,1],[2,6,1]]}\n'),
])
def test_decompose_failed_exits_2(candidate_rejected, fmt, expected):
    assert run_cli("decompose", "--kind", "se", "--r", "2", SE_ADJUSTED,
                   "--format", fmt) == (2, expected)


# ---------------------------------------------------------------- families

def test_families_text_includes_known_tuples():
    code, out = run_cli("families", "--genus", "4")
    assert code == 0
    assert "((17, 18), 0, 7; (1, 2), (13, 18))" in out
    assert "((8, 16), 0, (1, 7); (1, 2))" in out
    assert out.count("valid") == 6
    assert "invalid" not in out


@pytest.mark.parametrize("g, expected", [
    (1, ['"sp-max-exponent-1","SP",2,3,0,1,1,"1:3","true",1',
         '"sp-max-exponent-2","SP",2,3,0,1,1,"1:3","true",1',
         '"sp-order-4g-1","SP",2,4,0,1,1,"1:2","true",1',
         '"sp-order-4g-2","SP",2,4,0,3,3,"1:2","true",1',
         '"se-order-max","SE",5,6,0,1,"","1:2;1:6","true",1',
         '"se-order-min","SE",2,4,0,1,"","3:4;3:4","true",1']),
    (4, ['"sp-max-exponent-1","SP",8,9,0,1,4,"4:9","true",4',
         '"sp-max-exponent-2","SP",8,9,0,7,7,"4:9","true",4',
         '"sp-order-4g-1","SP",8,16,0,1,7,"1:2","true",4',
         '"sp-order-4g-2","SP",8,16,0,9,15,"1:2","true",4',
         '"se-order-max","SE",17,18,0,7,"","1:2;13:18","true",4',
         '"se-order-min","SE",2,10,0,1,"","9:10;9:10","true",4']),
])
def test_families_csv_bytes(g, expected):
    header = '"family","kind","l","order","g0","a","b","cones","valid","genus"'
    assert run_cli("families", "--genus", str(g), "--format", "csv") == (
        0, "\n".join([header] + expected) + "\n")


def test_families_genus_1_all_valid():
    code, out = run_cli("families", "--genus", "1", "--format", "json-lines")
    assert code == 0
    for line in out.splitlines():
        payload = json.loads(line)
        assert payload["valid"] is True and payload["genus"] == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="str() of an int has no digit limit")
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
@pytest.mark.parametrize("g", [3 * 10**4299, 9 * 10**4299],
                         ids=["order-4g-unprintable", "order-2g+1-unprintable"])
def test_families_unprintable_genus_exits_1(g, fmt, tmp_path, capsys):
    # 4g (and, for the second genus, 2g+1 too) passes the 4,300-digit limit
    assert run_cli("families", "--genus", str(g), "--format", fmt) == (1, "")
    assert capsys.readouterr().err == "genus has too many digits to print\n"
    target = tmp_path / "families.txt"
    assert run_cli("families", "--genus", str(g), "--format", fmt,
                   "--output", str(target)) == (1, "")
    assert capsys.readouterr().err == "genus has too many digits to print\n"
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- audit

def test_audit_clean_range():
    code, out = run_cli("audit", "--from", "1", "--to", "6", "--kind", "sp")
    assert code == 0
    assert out.endswith("total violations: 0\n")


def test_audit_csv():
    code, out = run_cli("audit", "--from", "2", "--to", "2", "--kind", "both",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "genus,kind,checked,violations"
    assert len(lines) == 3


@pytest.mark.parametrize("command", ["spectra", "audit"])
def test_reversed_genus_range_exits_1(command, tmp_path, capsys):
    argv = [command, "--from", "3", "--to", "2"]
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == "need 1 <= --from <= --to, got 3..2\n"
    assert run_cli(*argv, "--output", str(tmp_path / "out.txt")) == (1, "")
    assert capsys.readouterr().err == "need 1 <= --from <= --to, got 3..2\n"
    assert list(tmp_path.iterdir()) == []


def test_audit_violation_exits_3(monkeypatch):
    # No real data set violates a law, so fake one to pin the exit code.
    import twistfrac.cli as cli_mod
    from twistfrac.laws import AuditResult, LawReport

    witness = SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))
    fake = AuditResult(1, "sp", 1, (LawReport("sp:order-le-4g", False, witness),))
    monkeypatch.setattr(cli_mod, "audit", lambda g, kind: fake)
    code, out = run_cli("audit", "--from", "1", "--to", "1", "--kind", "sp")
    assert code == 3
    assert "sp:order-le-4g" in out
    assert out.endswith("total violations: 1\n")


AUDIT_DIGESTS = {  # audit --from 1 --to 24 --kind both
    "text": "13bcff271b9fcb4fd090367441a580df71d75ab1f7443211bb61a8987e759924",
    "json-lines": "631bb681e48ca7daf0b00698c97593ac9d7259d75e265dd9b421e3eb55226012",
    "csv": "212fa46653612bbefb644522c52b2c991063d388f1eb423f79d7bee77a854292",
}


@pytest.mark.parametrize("fmt", sorted(AUDIT_DIGESTS))
def test_audit_bytes_are_pinned(fmt):
    code, out = run_cli("audit", "--from", "1", "--to", "24", "--kind", "both", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
@pytest.mark.parametrize("command, kinds", [("audit", 2), ("spectra", 1)])
def test_tables_write_each_genus_before_the_next(command, kinds, fmt, monkeypatch):
    import twistfrac.cli as cli_mod

    real = getattr(cli_mod, command)
    out = io.StringIO()
    progress = []  # (genus, lines written) whenever a genus is computed

    def watched(g, *args):
        progress.append((g, len(out.getvalue().splitlines())))
        return real(g, *args)

    monkeypatch.setattr(cli_mod, command, watched)
    argv = [command, "--from", "3", "--to", "8", "--format", fmt]
    assert main(argv, stdout=out) == 0
    header = int(fmt == "csv" or (fmt == "text" and command == "spectra"))
    # every row of genus 3..k is out before genus k + 1 is computed
    firsts = {g: written for g, written in reversed(progress)}
    assert firsts == {g: header + kinds * (g - 3) for g in range(3, 9)}
    assert len(progress) == 6 * kinds


def test_audit_into_a_sink_without_flush_exits_0():
    class WriteOnly:
        def __init__(self):
            self.parts = []

        def write(self, text):
            self.parts.append(text)
            return len(text)

    sink = WriteOnly()
    assert main(["audit", "--from", "1", "--to", "3"], stdout=sink) == 0
    assert "".join(sink.parts) == run_cli("audit", "--from", "1", "--to", "3")[1]


# ------------------------------------------------------------- exit codes

def test_argparse_errors_map_to_exit_1():
    assert run_cli("enumerate")[0] == 1  # missing --genus
    assert run_cli("no-such-command")[0] == 1
    assert run_cli("--help")[0] == 0
    assert run_cli("enumerate", "--genus", "0")[0] == 1
    # --jobs is gone: no command takes a worker count; `validate` splits a large
    # file, one range per available CPU, and `enumerate` shares the orders of a
    # large listing with one forked worker, both on their own
    assert run_cli("enumerate", "--genus", "4", "--jobs", "2")[0] == 1
    assert run_cli("spectra", "--from", "1", "--to", "1", "--jobs", "2")[0] == 1
    assert run_cli("audit", "--from", "1", "--to", "1", "--jobs", "2")[0] == 1


DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="str() of an int has no digit limit")
SP_RECORD = "((2, 9), 0, (1, 1); (7, 9))"
SE_RECORD = "((6, 10), 0, 2; (3, 10), (3, 10))"

# Every refusal: argv, the bytes of {tmp}/records.txt, and the one stderr
# text.  {tmp} stands for the test's directory.
REFUSALS = [
    pytest.param(["validate", "{tmp}/missing.txt"], b"",
                 "cannot open {tmp}/missing.txt: [Errno 2] No such file or directory: "
                 "'{tmp}/missing.txt'\n", id="validate-missing-file"),
    pytest.param(["validate", "{tmp}/records.txt"],
                 b"((1, 9), 0, (2, 2); (5, 9))\nnot a record\n",
                 "line 2: not a data set in tuple text: 'not a record'\n",
                 id="validate-bad-line"),
    pytest.param(["validate", "{tmp}/records.txt"], b"\xff(\n",
                 "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte\n", id="validate-not-utf8"),
    pytest.param(["validate", "{tmp}/records.txt", "--kind", "se"],
                 b"((1, 9), 0, (2, 2); (5, 9))\n",
                 "line 1: record is SP but --kind se was given\n", id="validate-kind-mismatch"),
    pytest.param(["validate", "{tmp}/records.txt"],
                 b"((1, 9), 0, (2, 2); (5, 9))\n((2, 3), 9" + b"0" * 4299 + b", (1, 1); (1, 3))\n",
                 "line 2: genus has too many digits to print\n",
                 id="validate-unprintable-genus", marks=DIGIT_LIMIT),
    pytest.param(["enumerate", "--genus", "4", "--exponent", "3/1"], b"",
                 "exponent order must be >= 2, got 1\n", id="enumerate-exponent-order"),
    pytest.param(["enumerate", "--genus", "4", "--exponent", "8-16"], b"",
                 "exponent must look like 'l/order', got '8-16'\n",
                 id="enumerate-exponent-syntax"),
    pytest.param(["enumerate", "--genus", "3", "--oracle"], b"",
                 "--oracle needs --kind sp or --kind se\n", id="enumerate-oracle-both"),
    pytest.param(["enumerate", "--genus", "25", "--kind", "sp", "--oracle"], b"",
                 "oracle enumeration is bounded to genus <= 24, got 25\n",
                 id="enumerate-oracle-bound"),
    pytest.param(["spectra", "--from", "3", "--to", "2"], b"",
                 "need 1 <= --from <= --to, got 3..2\n", id="spectra-reversed"),
    pytest.param(["audit", "--from", "3", "--to", "2"], b"",
                 "need 1 <= --from <= --to, got 3..2\n", id="audit-reversed"),
    pytest.param(["spectra", "--from", "1", "--to", "999"], b"",
                 "spectra is capped at genus 128\n", id="spectra-cap"),
    pytest.param(["decompose", "--kind", "sp", "--format", "csv", SP_RECORD], b"",
                 "decompose supports --format text or json-lines\n", id="decompose-csv"),
    pytest.param(["decompose", "--kind", "sp", "not a record"], b"",
                 "bad record: not a data set in tuple text: 'not a record'\n",
                 id="decompose-bad-record"),
    pytest.param(["decompose", "--kind", "sp", "--r", "2", SP_RECORD], b"",
                 "--r applies to side-exchanging decompositions only\n", id="decompose-sp-r"),
    pytest.param(["decompose", "--kind", "sp", "((4, 12), 0, (5, 11); (2, 3))"], b"",
                 "gcd(l, n) = 4, need 1\n", id="decompose-sp-not-coprime"),
    pytest.param(["decompose", "--kind", "se", SE_RECORD], b"",
                 "side-exchanging decomposition needs --r\n", id="decompose-se-no-r"),
    pytest.param(["decompose", "--kind", "se", "--r", "4", SE_RECORD], b"",
                 "r = 4 does not divide l = 6\n", id="decompose-se-r-not-dividing"),
    # well formed but invalid: decompose refuses it as input, not as a validation failure
    pytest.param(["decompose", "--kind", "sp", "((2, 9), 0, (1, 2); (7, 9))"], b"",
                 "input is not a valid side-preserving data set\n", id="decompose-sp-invalid"),
    pytest.param(["decompose", "--kind", "se", "--r", "2", "((2, 10), 0, 1; (1, 10))"], b"",
                 "input is not a valid side-exchanging data set\n", id="decompose-se-invalid"),
    pytest.param(["families", "--genus", "3" + "0" * 4299], b"",
                 "genus has too many digits to print\n",
                 id="families-unprintable-genus", marks=DIGIT_LIMIT),
    pytest.param(["spectra", "--from", "1", "--to", "2", "--output", "{tmp}/missing/out.txt"],
                 b"", "cannot write {tmp}/missing/out.txt: no directory {tmp}/missing\n",
                 id="output-missing-directory"),
    pytest.param(["spectra", "--from", "1", "--to", "2", "--output", "{tmp}"], b"",
                 "cannot write {tmp}: {tmp} is a directory\n",
                 id="output-is-a-directory"),
    # refused before the audits run, and named by the directory PATH resolves to
    pytest.param(["audit", "--from", "1", "--to", "24", "--output", "{tmp}/."], b"",
                 "cannot write {tmp}/.: {tmp} is a directory\n",
                 id="output-resolves-to-a-directory"),
    pytest.param(["enumerate"], b"",
                 "usage: twistfrac enumerate [-h] --genus GENUS [--kind {sp,se,both}] "
                 "[--essential] [--exponent L/ORDER] [--g0 G0] [--cones CONES] [--oracle] "
                 "[--format {text,json-lines,csv}] [--output PATH]\n"
                 "twistfrac enumerate: error: the following arguments are required: --genus\n",
                 id="missing-required-flag"),
]


@pytest.mark.parametrize("argv, data, err", REFUSALS)
def test_every_refusal_exits_1_with_its_exact_stderr(argv, data, err, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse's usage line, unwrapped
    (tmp_path / "records.txt").write_bytes(data)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == err.replace("{tmp}", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.txt"]


def _child_env():
    """The environment of a child Python that finds the package in src/, installed or not.

    Its stdout is block-buffered, as in a plain shell, even when the tests run with
    PYTHONUNBUFFERED set.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_child_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "twistfrac.cli", *args], input=stdin,
                          capture_output=True, text=True, env=_child_env())


def test_console_script_entry_point():
    proc = _run_child_cli("spectra", "--from", "4", "--to", "4", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == "surface_genus,e_sp,e_se,n_sp,n_se\n5,13,22,26,33\n"


def test_validate_reads_stdin():
    proc = _run_child_cli("validate", "--kind", "sp", stdin="((1, 9), 0, (2, 2); (5, 9))\n")
    assert proc.returncode == 0
    assert proc.stdout == "valid genus=4\n"


STRICT_CLI = [sys.executable, "-X", "dev", "-W", "error", "-m", "twistfrac.cli"]

# Runs `cli.main` on its arguments after setting `cli._SPLIT_MIN_GENUS` from
# the first, if not empty, and fails if the run loaded the splitter.
UNSPLIT_CHILD = """
import sys
from twistfrac import cli
if sys.argv[1]:
    cli._SPLIT_MIN_GENUS = int(sys.argv[1])
code = cli.main(sys.argv[2:])
sys.stdout.flush()
if "twistfrac._split" in sys.modules:
    sys.exit("twistfrac._split was loaded")
sys.exit(code)
"""


@pytest.mark.parametrize("argv, min_genus, stdin", [
    (["spectra", "--from", "1", "--to", "12"], "", None),
    (["audit", "--from", "1", "--to", "6"], "", None),
    (["enumerate", "--genus", str(_SPLIT_MIN_GENUS - 1), "--kind", "sp"], "", None),
    # a genus that would split, were the listing not checked by the oracle
    (["enumerate", "--genus", "8", "--kind", "sp", "--oracle"], "8", None),
    (["validate", "-"], "", "((1, 9), 0, (2, 2); (5, 9))\n" * 3),
], ids=["spectra", "audit", "enumerate", "enumerate-oracle", "validate-stdin"])
def test_the_splitter_is_not_loaded_where_nothing_splits(argv, min_genus, stdin):
    # every module a run loads is compiled and held by it, and so moves its peak RSS
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", UNSPLIT_CHILD,
                           min_genus, *argv], input=stdin, capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


@pytest.mark.parametrize("argv, lines_read", [
    (["enumerate", "--genus", "12", "--kind", "both", "--format", "text"], 1),
    # at a genus that shares its orders with a forked worker
    (["enumerate", "--genus", "24", "--kind", "both", "--format", "text"], 1),
    (["validate", "LISTING"], 2),
], ids=["enumerate", "enumerate-split", "validate"])
def test_stdout_closed_mid_output_ends_quietly(argv, lines_read, tmp_path):
    # both outputs outgrow the pipe buffer, so a write meets the closed pipe
    listing = tmp_path / "listing.jsonl"
    listing.write_text(run_cli("enumerate", "--genus", "9", "--format", "json-lines")[1] * 24)
    argv = [str(listing) if arg == "LISTING" else arg for arg in argv]
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(STRICT_CLI + argv, stdout=subprocess.PIPE, stderr=err,
                                env=_child_env())
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == b""


def test_stdout_closed_mid_audit_ends_the_audit_early(tmp_path):
    # the audit flushes stdout per genus, so the first line arrives before genus 2
    # is computed, and a closed pipe stops the run long before genus 128
    deadline = time.monotonic() + 10
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(STRICT_CLI + ["audit", "--from", "1", "--to", "128",
                                              "--kind", "both"],
                                stdout=subprocess.PIPE, stderr=err, env=_child_env())
        try:
            assert select.select([proc.stdout], [], [], 10)[0], "no line within 10 s"
            assert proc.stdout.readline() == b"genus 1 sp: 4 sets, 0 violations\n"
            proc.stdout.close()
            assert proc.wait(timeout=max(0, deadline - time.monotonic())) == 1
        finally:
            proc.kill()
            proc.wait()
        err.seek(0)
        assert err.read() == b""


def test_stdout_closed_before_the_first_write_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(STRICT_CLI + ["families", "--genus", "3"], stdout=write_end,
                              stderr=subprocess.PIPE, env=_child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert b"Exception ignored" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["enumerate", "--genus", "8"],
    ["spectra", "--from", "1", "--to", "3"],
    ["validate", "LISTING"],
], ids=["enumerate", "spectra", "validate"])
def test_stdout_write_failure_is_one_line(argv, tmp_path):
    listing = tmp_path / "listing.jsonl"
    listing.write_text(run_cli("enumerate", "--genus", "4", "--format", "json-lines")[1])
    argv = [str(listing) if arg == "LISTING" else arg for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(STRICT_CLI + argv, stdout=full, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=120)
    assert (proc.returncode, proc.stderr.decode()) == (
        1, "cannot write stdout: [Errno 28] No space left on device\n")


def test_output_to_a_pipe_closed_mid_output_is_one_line(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the child's open() does not block
    try:
        proc = subprocess.Popen(STRICT_CLI + ["enumerate", "--genus", "12", "--output", str(pipe)],
                                stderr=subprocess.PIPE, env=_child_env())
        assert select.select([reader], [], [], 120)[0]
        assert os.read(reader, 10)
    finally:
        os.close(reader)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (1, f"cannot write {pipe}: [Errno 32] Broken pipe\n")


# ---------------------------------------------------------- hardened input

def test_validate_non_ascii_digit_exits_1(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("((٢, 9), 0, (1, 1); (7, 9))\n", encoding="utf-8")
    code, out = run_cli("validate", str(path), "--kind", "sp")
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_enumerate_non_ascii_exponent_exits_1(capsys):
    code, out = run_cli("enumerate", "--genus", "4", "--exponent", "٢/9")
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_non_ascii_integer_flag_exits_1():
    assert run_cli("families", "--genus", "٢")[0] == 1


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    record = '{"kind":' + "[" * 100_000
    path = tmp_path / "records.txt"
    path.write_text(record + "\n")
    code, out = run_cli("validate", str(path))
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1

    code, out = run_cli("decompose", "--kind", "sp", record)
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("line", [
    json.dumps({"kind": "k" * 50_000}),
    '{"kind":' + "[" * 500 + "]" * 500 + "}",
    json.dumps({"kind": "SP", "l": 1, "n": 9, "g0": 0, "a": 2, "b": 2,
                "cones": [[["k" * 50_000] * 100, 9]]}),
], ids=["long-kind", "deep-kind", "wide-cone-entry"])
def test_validate_huge_json_value_gives_one_short_line(line, tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text(line + "\n")
    code, out = run_cli("validate", str(path))
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200


HUGE_INVALID = f"((1, {10**4000}), {10**4000}, (1, 1); (1, 2))"  # genus of 8,000 digits


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="str() of an int has no digit limit")
@pytest.mark.parametrize("line, fmt, expected", [
    (HUGE_INVALID, "text", (2, "valid genus=4\ninvalid: condition (iii), condition (iv)\n")),
    (HUGE_INVALID, "json-lines", (1, "")),
    (HUGE_INVALID, "csv", (1, "")),
    (f"((2, 3), {9 * 10**4299}, (1, 1); (1, 3))", "text", (1, "")),
], ids=["invalid-text", "invalid-json-lines", "invalid-csv", "valid-text"])
def test_validate_unprintable_genus_exits_1(line, fmt, expected, tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\n" + line + "\n")
    assert run_cli("validate", str(path), "--format", fmt) == expected
    err = capsys.readouterr().err
    assert err == ("" if expected[0] == 2 else "line 2: genus has too many digits to print\n")


OUTPUT_COMMANDS = {
    "validate": ["validate", "RECORDS"],
    "enumerate": ["enumerate", "--genus", "2"],
    "spectra": ["spectra", "--from", "1", "--to", "2"],
    "decompose": ["decompose", "--kind", "sp", "((2, 9), 0, (1, 1); (7, 9))"],
    "families": ["families", "--genus", "2"],
    "audit": ["audit", "--from", "1", "--to", "1"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_into_missing_directory_exits_1(command, tmp_path, capsys):
    records = tmp_path / "records.txt"
    records.write_text("((1, 9), 0, (2, 2); (5, 9))\n")
    argv = [str(records) if a == "RECORDS" else a for a in OUTPUT_COMMANDS[command]]
    target = tmp_path / "missing" / "out.txt"
    code, out = run_cli(*argv, "--output", str(target))
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not target.parent.exists()


def test_output_checked_before_computing(tmp_path, monkeypatch):
    import twistfrac.cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr(cli_mod, "spectra", fail)
    target = tmp_path / "missing" / "x.csv"
    assert run_cli("spectra", "--from", "1", "--to", "2",
                   "--output", str(target))[0] == 1


@pytest.mark.parametrize("module, name", [("tempfile", "mkstemp"), ("os", "replace")],
                         ids=["mkstemp", "replace"])
def test_output_open_error_exits_1(module, name, tmp_path, monkeypatch, capsys):
    # the temporary file cannot be made, or cannot replace PATH
    import twistfrac.cli as cli_mod

    def fail(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(getattr(cli_mod, module), name, fail)
    target = tmp_path / "rows.csv"
    target.write_text("previous\n")
    code, out = run_cli("spectra", "--from", "1", "--to", "2", "--output", str(target))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"cannot write {target}: [Errno 28] No space left on device\n")
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_file_mode_follows_umask(tmp_path):
    target = tmp_path / "rows.csv"
    assert run_cli("spectra", "--from", "1", "--to", "2",
                   "--output", str(target))[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   RuntimeError("render failed")])
def test_output_failure_mid_listing_leaves_no_file(error, tmp_path, monkeypatch, capsys):
    import twistfrac.cli as cli_mod

    real_blocks = cli_mod.blocks
    during = []

    def failing_blocks(*args, **kwargs):
        chunks = (chunk for chunk in real_blocks(*args, **kwargs) if chunk)
        yield next(chunks)
        during.extend(tmp_path.iterdir())
        raise error

    monkeypatch.setattr(cli_mod, "blocks", failing_blocks)
    target = tmp_path / "listing.txt"
    target.write_text("previous\n")
    argv = ["enumerate", "--genus", "4", "--kind", "sp", "--output", str(target)]
    if isinstance(error, OSError):
        code, out = run_cli(*argv)
        assert code == 1 and out == ""
        assert len(capsys.readouterr().err.splitlines()) == 1
    else:
        with pytest.raises(RuntimeError):
            run_cli(*argv)
    # the first chunk went to a temporary file beside the target ...
    assert len(during) == 2 and target in during
    # ... which is gone, and the target is as it was
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "previous\n"


@pytest.mark.parametrize("error", [RuntimeError("audit failed"),
                                   OSError(errno.ENOSPC, "No space left on device")])
@pytest.mark.parametrize("command", ["audit", "spectra"])
def test_output_failure_mid_table_leaves_the_old_file(command, error, tmp_path, monkeypatch,
                                                      capsys):
    import twistfrac.cli as cli_mod

    real = getattr(cli_mod, command)
    during = []

    def failing(g, *args):
        if g == 2:
            during.extend(tmp_path.iterdir())
            raise error
        return real(g, *args)

    monkeypatch.setattr(cli_mod, command, failing)
    target = tmp_path / "table.txt"
    target.write_text("previous\n")
    argv = [command, "--from", "1", "--to", "3", "--output", str(target)]
    if isinstance(error, OSError):
        assert run_cli(*argv) == (1, "")
        assert len(capsys.readouterr().err.splitlines()) == 1
    else:
        with pytest.raises(RuntimeError):
            run_cli(*argv)
    # genus 1 went to a temporary file beside the target ...
    assert len(during) == 2 and target in during
    # ... which is gone, and the target is as it was
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "previous\n"


def test_output_through_a_symlink_keeps_the_link_and_the_mode(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("previous\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, out = run_cli("spectra", "--from", "1", "--to", "2", "--output", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink()
    assert real.read_text() == run_cli("spectra", "--from", "1", "--to", "2")[1]
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_output_through_a_symlink_into_a_missing_directory_is_refused_first(
        tmp_path, monkeypatch, capsys):
    import twistfrac.cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("audited before checking --output")

    monkeypatch.setattr(cli_mod, "audit", fail)
    link = tmp_path / "out.txt"
    link.symlink_to(tmp_path / "no_such_dir" / "out.txt")
    missing = os.path.join(os.path.realpath(tmp_path), "no_such_dir")
    assert run_cli("audit", "--from", "1", "--to", "12", "--output", str(link)) == (1, "")
    assert capsys.readouterr().err == f"cannot write {link}: no directory {missing}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_output_to_a_directory_is_refused_before_computing(tmp_path, monkeypatch, capsys):
    import twistfrac.cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("audited before checking --output")

    monkeypatch.setattr(cli_mod, "audit", fail)
    (tmp_path / "sub").mkdir()
    link = tmp_path / "out.txt"
    link.symlink_to(tmp_path / "sub")
    real = os.path.join(os.path.realpath(tmp_path), "sub")
    assert run_cli("audit", "--from", "1", "--to", "24", "--output", str(link)) == (1, "")
    assert capsys.readouterr().err == f"cannot write {link}: {real} is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sub"]
    assert not any((tmp_path / "sub").iterdir())


def test_output_to_a_pipe_writes_through_it(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the CLI's open() does not block
    try:
        code, out = run_cli("spectra", "--from", "1", "--to", "2", "--output", str(pipe))
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0 and out == ""
    assert data.decode() == run_cli("spectra", "--from", "1", "--to", "2")[1]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
