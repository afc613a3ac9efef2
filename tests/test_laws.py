import io
import json
from math import gcd

import pytest

import twistfrac.datasets
import twistfrac.enumeration
import twistfrac.laws
from twistfrac import (
    ConePair,
    SeDataSet,
    SpDataSet,
    audit,
    check_se_laws,
    check_sp_laws,
    enumerate_se,
    enumerate_sp,
    validate_se,
)
from twistfrac.enumeration import Filters, blocks
from twistfrac.cli import main
from twistfrac.datasets import _essential
from twistfrac.laws import LawReport, _se_laws, _sp_laws


def sp(l, n, g0, a, b, cones):
    return SpDataSet(l, n, g0, a, b, tuple(ConePair(k, m) for k, m in cones))


def se(l, two_n, g0, a, cones):
    return SeDataSet(l, two_n, g0, a, tuple(ConePair(k, m) for k, m in cones))


def by_law(reports):
    return {r.law: r for r in reports}


def test_sp_laws_hold_with_tight_order_cap():
    d = sp(8, 16, 0, 1, 7, [(1, 2)])  # n = 16 = 4g
    reports = by_law(check_sp_laws(d))
    assert all(r.holds for r in reports.values())
    assert d.n == 4 * 4


def test_sp_laws_hold_with_tight_coprime_cap():
    d = sp(1, 9, 0, 2, 2, [(5, 9)])  # n = 9 = 2g+1
    reports = by_law(check_sp_laws(d))
    assert all(r.holds for r in reports.values())
    assert d.n == 2 * 4 + 1


def test_sp_order_window_lower_bound_everywhere():
    for g in range(1, 13):
        for d in enumerate_sp(g):
            m = len(d.cones)
            assert 2 * g + m <= d.n * (2 * d.g0 + m)


def test_se_laws_hold_with_tight_wiman_cap():
    d = se(17, 18, 0, 7, [(1, 2), (13, 18)])  # 2n = 18 = 4g+2
    reports = by_law(check_se_laws(d))
    assert all(r.holds for r in reports.values())
    assert d.two_n == 4 * 4 + 2


def test_se_laws_hold_with_tight_essential_floor():
    d = se(2, 10, 0, 1, [(9, 10), (9, 10)])  # 2n = 10 = 2g+2
    reports = by_law(check_se_laws(d))
    assert all(r.holds for r in reports.values())
    assert d.two_n == 2 * 4 + 2


def test_se_parity_law_on_odd_exponent():
    d = se(5, 18, 0, 4, [(1, 2), (1, 18)])
    reports = by_law(check_se_laws(d))
    assert reports["se:odd-l-odd-n"].holds
    assert d.l % 2 == 1 and (d.two_n // 2) % 2 == 1


def test_law_reports_carry_witness_only_on_failure():
    d = sp(8, 16, 0, 1, 7, [(1, 2)])
    for report in check_sp_laws(d):
        assert report.holds and report.witness is None


def test_law_violations_carry_their_witness():
    d = sp(1, 16, 0, 1, 7, [(1, 2)])  # l odd with n even: not a valid set
    assert [r for r in check_sp_laws(d) if not r.holds] == [
        LawReport("sp:odd-l-odd-n", False, d),
        LawReport("sp:coprime-order-cap", False, d),
    ]


def test_essential_floor_is_scoped_to_essential_sets():
    # Valid with g0 = 0 and three cones at full order 4: the essential
    # floor 2n >= 2g+2 does not apply, the general floor does.
    d = se(2, 4, 0, 1, [(1, 2), (1, 4), (3, 4)])
    report = validate_se(d)
    assert report.valid and report.genus == 2
    assert d.two_n < 2 * report.genus + 2
    reports = by_law(check_se_laws(d))
    assert reports["se:essential-order-floor"].holds
    assert reports["se:order-floor"].holds


def test_essential_floors_fire_exactly_on_essential_classes():
    # order 4 is below both essential floors at genus 4 (9 and 10)
    for g0 in range(3):
        for m in range(1, 5):
            sp_floor = dict(_sp_laws(4, 1, g0, m, 4))["sp:essential-order-floor"]
            se_floor = dict(_se_laws(4, 1, g0, m, 4))["se:essential-order-floor"]
            assert sp_floor != _essential(g0, m, False)
            assert se_floor != _essential(g0, m, True)
    assert _essential(0, 1, False) and _essential(0, 2, True)


# Each law at the edge of its bound, and one step past it: fields are
# (order, l, g0, cone count, genus).  A row is named by its law, and by the
# bound too when the law has two.  Parity laws step the order from odd to
# even; side-exchanging orders step by 2.
LAW_BOUNDS = {
    "sp:odd-l-odd-n": ((9, 1, 0, 1, 4), (10, 1, 0, 1, 4)),
    "sp:coprime-order-cap": ((9, 1, 0, 1, 4), (10, 1, 0, 1, 4)),
    "sp:order-window floor": ((9, 2, 0, 1, 4), (8, 2, 0, 1, 4)),
    "sp:order-window cap": ((16, 2, 0, 1, 4), (17, 2, 0, 1, 4)),
    "sp:order-le-4g": ((16, 2, 0, 1, 4), (17, 2, 0, 1, 4)),
    "sp:handles-force-small-order": ((4, 2, 1, 1, 5), (5, 2, 1, 1, 6)),
    "sp:large-order-single-cone": ((8, 2, 0, 2, 4), (9, 2, 0, 2, 4)),
    "sp:essential-order-floor": ((9, 2, 0, 1, 4), (8, 2, 0, 1, 4)),
    "se:odd-l-odd-n": ((18, 1, 0, 2, 4), (20, 1, 0, 2, 4)),
    "se:order-floor": ((10, 2, 0, 2, 4), (8, 2, 0, 2, 4)),
    "se:order-floor denominator": ((18, 2, 0, 2, 4), (18, 2, 0, 1, 4)),
    "se:wiman-order-cap": ((18, 2, 0, 2, 4), (20, 2, 0, 2, 4)),
    "se:sphere-needs-two-cones": ((18, 2, 0, 2, 4), (18, 2, 0, 1, 4)),
    "se:essential-order-floor": ((10, 2, 0, 2, 4), (8, 2, 0, 2, 4)),
}


@pytest.mark.parametrize("row", sorted(LAW_BOUNDS))
def test_law_holds_at_its_bound_and_fails_one_step_past(row):
    law = row.split()[0]
    kernel = _sp_laws if law.startswith("sp:") else _se_laws
    at_bound, past_bound = LAW_BOUNDS[row]
    assert dict(kernel(*at_bound))[law]
    assert not dict(kernel(*past_bound))[law]


# Each bound law met with equality on an (order, l, g0, cone count) class at
# genus g: a row is named as in LAW_BOUNDS.  `sp:large-order-single-cone` is
# met when some order exceeds 2g, so that its premise holds.
LAW_EQUALITIES = {
    "sp:coprime-order-cap": lambda n, l, g0, m, g: n == 2 * g + 1 and gcd(l, n) == 1,
    "sp:order-window floor": lambda n, l, g0, m, g: 2 * g + m == n * (2 * g0 + m),
    "sp:order-window cap": lambda n, l, g0, m, g: n * (4 * g0 + m) == 4 * g,
    "sp:order-le-4g": lambda n, l, g0, m, g: n == 4 * g,
    "sp:handles-force-small-order": lambda n, l, g0, m, g: 5 * n == 4 * g and g0 >= 1,
    "sp:large-order-single-cone": lambda n, l, g0, m, g: n > 2 * g,
    "sp:essential-order-floor":
        lambda n, l, g0, m, g: n == 2 * g + 1 and _essential(g0, m, False),
    "se:order-floor": lambda two_n, l, g0, m, g: two_n * (2 * g0 + m - 1) == 2 * g + m,
    "se:wiman-order-cap": lambda two_n, l, g0, m, g: two_n == 4 * g + 2,
    "se:sphere-needs-two-cones": lambda two_n, l, g0, m, g: g0 == 0 and m == 2,
    "se:essential-order-floor":
        lambda two_n, l, g0, m, g: two_n == 2 * g + 2 and _essential(g0, m, True),
}


def test_every_bound_law_is_attained():
    # LAW_BOUNDS pins where each law puts its bound; this shows that a listed
    # set reaches it, so no bound is slack and no extreme set goes unlisted.
    for g in range(1, 17):
        classes = {kind: {(order, l, g0, len(c))
                          for chunk in blocks(g, kind) for (order, l, g0, *_), cones in chunk
                          for c in cones}
                   for kind in ("sp", "se")}
        attained = {row for row, equal in LAW_EQUALITIES.items()
                    if any(equal(*c, g) for c in classes[row[:2]])}
        # 5n = 4g needs 5 | g
        assert attained == {row for row in LAW_EQUALITIES
                            if g % 5 == 0 or row != "sp:handles-force-small-order"}, g
    parity_laws = {"sp:odd-l-odd-n", "se:odd-l-odd-n"}
    assert {row.split()[0] for row in LAW_EQUALITIES} | parity_laws == {
        row.split()[0] for row in LAW_BOUNDS}


def test_every_law_has_a_bound_row():
    laws = {law for law, _ in _sp_laws(9, 1, 0, 1, 4) + _se_laws(18, 1, 0, 2, 4)}
    assert {row.split()[0] for row in LAW_BOUNDS} == laws


def test_audit_small_range_is_clean():
    for g in range(1, 13):
        for kind in ("sp", "se"):
            result = audit(g, kind)
            assert result.clean
            assert result.checked == len(
                enumerate_sp(g) if kind == "sp" else enumerate_se(g))


def _one_law_broken(kernel):
    """`kernel` with its second law failing on some (order, l, g0, cone count) classes."""
    def broken(order, l, g0, m, g):
        verdicts = kernel(order, l, g0, m, g)
        if (order * l + g0 + m) % 4 == 1:
            verdicts[1] = (verdicts[1][0], False)
        return verdicts
    return broken


@pytest.fixture
def broken_laws(monkeypatch):
    for name in ("_sp_laws", "_se_laws"):
        monkeypatch.setattr(twistfrac.laws, name,
                            _one_law_broken(getattr(twistfrac.laws, name)))


def test_audit_violations_equal_the_per_set_audit(broken_laws):
    total = 0
    for g in range(1, 9):
        for kind, listing, checker in (("sp", enumerate_sp, check_sp_laws),
                                       ("se", enumerate_se, check_se_laws)):
            sets = listing(g)
            expected = [r for d in sets for r in checker(d) if not r.holds]
            result = audit(g, kind)
            assert result.checked == len(sets)
            assert list(result.violations) == expected, (g, kind)
            total += len(expected)
    assert total > 100  # the broken law really fires on many sets


@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_audit_cli_reports_real_violations(broken_laws, fmt):
    out = io.StringIO()
    argv = ["audit", "--from", "1", "--to", "4", "--kind", "both", "--format", fmt]
    assert main(argv, stdout=out) == 3
    expected = sum(len(audit(g, kind).violations)
                   for g in range(1, 5) for kind in ("sp", "se"))
    lines = out.getvalue().splitlines()
    if fmt == "text":
        assert lines[-1] == f"total violations: {expected}" and expected > 0
    elif fmt == "json-lines":
        rows = [json.loads(line) for line in lines]
        assert sum(len(row["violations"]) for row in rows) == expected
        assert all(v["witness"] for row in rows for v in row["violations"])
    else:
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == expected


def test_clean_audit_builds_no_data_set(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a clean audit built or validated a data set")

    monkeypatch.setattr(twistfrac.enumeration, "block_sets", forbidden)
    for name in ("_sp_report", "_se_report"):
        monkeypatch.setattr(twistfrac.datasets, name, forbidden)
    for name in ("enumerate_sp", "enumerate_se", "genus_sp", "genus_se",
                 "check_sp_laws", "check_se_laws"):
        monkeypatch.setattr(twistfrac.laws, name, forbidden)
    for g in range(1, 9):
        for kind in ("sp", "se"):
            assert audit(g, kind).clean


def test_audit_rejects_bad_kind():
    with pytest.raises(ValueError):
        audit(3, "all")


def test_tightness_witnesses_exist():
    for g in range(1, 13):
        wide = enumerate_sp(g, Filters(exponent=(2 * g, 4 * g)))
        assert any(d.n == 4 * g for d in wide)
        se_wide = enumerate_se(g, Filters(exponent=(4 * g + 1, 4 * g + 2)))
        assert any(d.two_n == 4 * g + 2 for d in se_wide)
