import contextlib
import csv
import errno
import io
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfrac import (
    ConePair,
    Filters,
    SeDataSet,
    SpDataSet,
    enumerate_se,
    enumerate_sp,
    from_record,
    to_record,
)
from twistfrac.cli import main, parse_record_line, parse_tuple_text
from twistfrac.datasets import record_line


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


# ---------------------------------------------------------------- parsing

def test_parse_tuple_text_shapes():
    d = parse_tuple_text("((1, 9), 0, (2, 2); (5, 9))")
    assert d == SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))
    e = parse_tuple_text("((17,18),0,7;(1,2),(13,18))")
    assert e == SeDataSet(17, 18, 0, 7, (ConePair(1, 2), ConePair(13, 18)))


def test_parse_tuple_text_round_trips_str():
    d = SpDataSet(8, 16, 0, 1, 7, (ConePair(1, 2),))
    assert parse_tuple_text(str(d)) == d
    e = SeDataSet(2, 10, 0, 1, (ConePair(9, 10), ConePair(9, 10)))
    assert parse_tuple_text(str(e)) == e


def test_parse_tuple_text_errors():
    with pytest.raises(ValueError):
        parse_tuple_text("((1, 9), 0, (2, 2); (5, 9)) trailing")
    with pytest.raises(ValueError):
        parse_tuple_text("((1, 9), 0, (2, 2))")  # no cones
    with pytest.raises(ValueError):
        parse_tuple_text("((1, x), 0, (2, 2); (5, 9))")
    with pytest.raises(ValueError):
        parse_tuple_text("((1, 9), 0, (2, 2); (5, 9))", kind="se")


def test_parse_record_line_json():
    d = SpDataSet(1, 9, 0, 2, 2, (ConePair(5, 9),))
    assert parse_record_line(json.dumps(to_record(d))) == d
    with pytest.raises(ValueError):
        parse_record_line(json.dumps(to_record(d)), kind="se")


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


def test_validate_unparseable_exits_1(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text("((1, 9), 0, (2, 2); (5, 9))\nnot a record\n")
    code, _ = run_cli("validate", str(path))
    assert code == 1
    assert "line 2" in capsys.readouterr().err


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


def test_enumerate_oracle_agreement_exit_0():
    code, _ = run_cli("enumerate", "--genus", "4", "--kind", "sp", "--oracle")
    assert code == 0


def test_enumerate_oracle_bound_exit_1(capsys):
    code, _ = run_cli("enumerate", "--genus", "9", "--kind", "sp", "--oracle")
    assert code == 1
    assert "bounded" in capsys.readouterr().err


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


# `per_write` is the json-lines write size; text and csv ignore it.
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


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_enumerate_writes_each_order_before_the_next(fmt, monkeypatch):
    import twistfrac.cli as cli_mod

    real_iter_sp = cli_mod.iter_sp
    out = io.StringIO()
    progress = []  # (sets enumerated, set lines written) whenever a chunk is asked for

    def watched_iter_sp(*args, **kwargs):
        enumerated = 0
        for chunk in real_iter_sp(*args, **kwargs):
            yield chunk
            enumerated += len(chunk)
            lines = out.getvalue().splitlines()
            if fmt == "text":
                written = sum(line.startswith("  ") for line in lines)
            else:
                written = len(lines) - (fmt == "csv")
            progress.append((enumerated, written))

    monkeypatch.setattr(cli_mod, "iter_sp", watched_iter_sp)
    argv = ["enumerate", "--genus", "5", "--kind", "sp", "--format", fmt]
    assert main(argv, stdout=out) == 0
    assert len(progress) == 19  # orders 2..20
    assert all(enumerated == written for enumerated, written in progress)
    assert progress[-1][0] == len(enumerate_sp(5))


@pytest.mark.parametrize("g", range(1, 11))
def test_record_line_is_compact_json_of_to_record(g):
    for d in enumerate_sp(g) + enumerate_se(g):
        assert record_line(d) == json.dumps(to_record(d), separators=(",", ":"))


def test_enumerate_bad_exponent_exit_1(capsys):
    code, _ = run_cli("enumerate", "--genus", "4", "--exponent", "8-16")
    assert code == 1
    code, _ = run_cli("enumerate", "--genus", "4", "--exponent", "3/1")
    assert code == 1


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


def test_spectra_range_validation(capsys):
    assert run_cli("spectra", "--from", "5", "--to", "4")[0] == 1
    assert run_cli("spectra", "--from", "1", "--to", "999")[0] == 1


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


def test_decompose_sp_non_coprime_exit_1(capsys):
    code, _ = run_cli("decompose", "--kind", "sp",
                      "((4, 12), 0, (5, 11); (2, 3))")
    assert code == 1
    assert "gcd" in capsys.readouterr().err


def test_decompose_se_requires_r(capsys):
    code, _ = run_cli("decompose", "--kind", "se",
                      "((6, 10), 0, 2; (3, 10), (3, 10))")
    assert code == 1


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


def test_decompose_rejects_csv(capsys):
    code, _ = run_cli("decompose", "--kind", "sp", "--format", "csv",
                      "((2, 9), 0, (1, 1); (7, 9))")
    assert code == 1


# ---------------------------------------------------------------- families

def test_families_text_includes_known_tuples():
    code, out = run_cli("families", "--genus", "4")
    assert code == 0
    assert "((17, 18), 0, 7; (1, 2), (13, 18))" in out
    assert "((8, 16), 0, (1, 7); (1, 2))" in out
    assert out.count("valid") == 6
    assert "invalid" not in out


def test_families_genus_1_all_valid():
    code, out = run_cli("families", "--genus", "1", "--format", "json-lines")
    assert code == 0
    for line in out.splitlines():
        payload = json.loads(line)
        assert payload["valid"] is True and payload["genus"] == 1


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


def test_enumerate_oracle_respects_filters():
    code, out = run_cli("enumerate", "--genus", "4", "--kind", "sp",
                        "--essential", "--exponent", "8/16", "--oracle")
    assert code == 0
    assert out.count("(") > 0  # the four 8/16 sets survive the comparison


# ------------------------------------------------------------- exit codes

def test_argparse_errors_map_to_exit_1():
    assert run_cli("enumerate")[0] == 1  # missing --genus
    assert run_cli("no-such-command")[0] == 1
    assert run_cli("--help")[0] == 0
    assert run_cli("enumerate", "--genus", "0")[0] == 1
    # --jobs is gone: every command is one serial engine
    assert run_cli("enumerate", "--genus", "4", "--jobs", "2")[0] == 1
    assert run_cli("spectra", "--from", "1", "--to", "1", "--jobs", "2")[0] == 1
    assert run_cli("audit", "--from", "1", "--to", "1", "--jobs", "2")[0] == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twistfrac.cli", "spectra",
         "--from", "4", "--to", "4", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "surface_genus,e_sp,e_se,n_sp,n_se\n5,13,22,26,33\n"


def test_validate_reads_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "twistfrac.cli", "validate", "--kind", "sp"],
        input="((1, 9), 0, (2, 2); (5, 9))\n",
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "valid genus=4\n"


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


def test_output_open_error_exits_1(tmp_path, capsys):
    # the path is an existing directory: open() itself fails
    code, out = run_cli("spectra", "--from", "1", "--to", "1",
                        "--output", str(tmp_path))
    assert code == 1 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


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

    real_iter_sp = cli_mod.iter_sp
    during = []

    def failing_iter_sp(*args, **kwargs):
        chunks = (chunk for chunk in real_iter_sp(*args, **kwargs) if chunk)
        yield next(chunks)
        during.extend(tmp_path.iterdir())
        raise error

    monkeypatch.setattr(cli_mod, "iter_sp", failing_iter_sp)
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
