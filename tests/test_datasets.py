import json
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfrac import (
    ConePair,
    IntegralityError,
    SeDataSet,
    SpDataSet,
    ValidationReport,
    canonicalize_se,
    canonicalize_sp,
    enumerate_se,
    enumerate_sp,
    from_record,
    genus_se,
    genus_sp,
    is_essential,
    to_record,
    validate,
    validate_se,
    validate_sp,
)
from twistfrac.datasets import (
    _CONE_MEMO_CHARS,
    _cone_memo,
    _cones_field,
    _json_value,
    _record_fields,
    _report,
    record_fields,
    se_genus_if_valid,
    sp_genus_if_valid,
)
from test_cli import MALFORMED_LINES, PARITY_DEPTHS, deeply_nested_records


def sp(l, n, g0, a, b, cones):
    return SpDataSet(l, n, g0, a, b, tuple(ConePair(k, m) for k, m in cones))


def se(l, two_n, g0, a, cones):
    return SeDataSet(l, two_n, g0, a, tuple(ConePair(k, m) for k, m in cones))


# ------------------------------------------------------------- validation

def test_validate_sp_known_valid():
    report = validate_sp(sp(1, 9, 0, 2, 2, [(5, 9)]))
    assert report.valid and report.genus == 4

    report = validate_sp(sp(8, 16, 0, 3, 5, [(1, 2)]))
    assert report.valid and report.genus == 4


def test_validate_sp_twist_relation_failure():
    report = validate_sp(sp(1, 4, 0, 1, 3, [(1, 2)]))
    assert not report.valid
    assert not report.twist_relation  # 1+3 = 0 but l*a*b = 3 mod 4
    assert not report.cone_sum  # 1+3+2 = 6 is not 0 mod 4 either
    assert report.failed() == ["condition (iii)", "condition (iv)"]


def test_validate_se_known_valid():
    report = validate_se(se(17, 18, 0, 7, [(1, 2), (13, 18)]))
    assert report.valid and report.genus == 4

    report = validate_se(se(2, 10, 0, 1, [(9, 10), (9, 10)]))
    assert report.valid and report.genus == 4


def test_se_n_is_half_the_full_order():
    assert se(17, 18, 0, 7, [(1, 2), (13, 18)]).n == 9


def test_validate_se_unit_failure():
    report = validate_se(se(3, 10, 0, 4, [(6, 10), (6, 10)]))
    assert not report.valid
    assert not report.residues
    assert "condition (ii)" in report.failed()


def test_validate_se_generation_failure():
    # All residues land in the index-two subgroup: disconnected cover.
    report = validate_se(se(2, 6, 0, 1, [(1, 3), (1, 3)]))
    assert report.structure and report.residues
    assert report.twist_relation and report.cone_sum
    assert report.genus == 1
    assert not report.generating
    assert not report.valid
    assert report.failed() == ["generation"]


def test_validate_se_generation_needs_no_check_with_handles():
    # Same residues, one handle: the covering can always be connected.
    report = validate_se(se(2, 6, 1, 1, [(1, 3), (1, 3)]))
    assert report.generating


def test_validate_sp_out_of_range_exponent():
    assert not validate_sp(sp(0, 9, 0, 2, 2, [(5, 9)])).valid
    assert not validate_sp(sp(9, 9, 0, 2, 2, [(5, 9)])).valid
    assert not validate_sp(sp(-3, 9, 0, 2, 2, [(5, 9)])).valid


def test_validate_se_exponent_range_follows_full_order():
    # Exponents may exceed n; the cap is 2n - 1 and the floor is 2.
    assert validate_se(se(17, 18, 0, 7, [(1, 2), (13, 18)])).valid
    assert not validate_se(se(1, 10, 0, 3, [(1, 10), (3, 10)])).l_in_range
    assert not validate_se(se(18, 18, 0, 7, [(1, 2), (13, 18)])).l_in_range


def test_condition_i_failure_fails_generation_of_either_kind():
    # A tuple failing (i) is checked no further: only the range of l may hold.
    broken = ["condition (i)", "condition (ii)", "condition (iii)", "condition (iv)",
              "range of l", "genus integrality", "genus positivity", "generation"]
    assert validate_sp(sp(1, 0, 0, 2, 2, [(5, 0)])).failed() == broken
    in_range = [label for label in broken if label != "range of l"]
    assert validate_sp(sp(1, 9, 0, 2, 2, [(5, 4)])).failed() == in_range  # 4 does not divide 9
    assert validate_se(se(2, 10, 1, 1, [(1, 4)])).failed() == in_range


def test_validate_handles_garbage_without_raising():
    assert not validate_sp(sp(1, 0, 0, 1, 1, [(1, 2)])).valid
    assert not validate_sp(sp(1, -7, 2, 1, 1, [])).valid
    assert not validate_sp(sp(1, 6, 0, 1, 1, [(1, 4)])).valid  # 4 does not divide 6
    assert not validate_se(se(2, 7, 0, 1, [(1, 7)])).valid  # odd full order
    assert not validate_se(se(2, 0, 0, 1, [])).valid
    assert not validate_se(se(3, 10, -1, 4, [(1, 10), (1, 10)])).valid


def test_validate_sp_rejects_every_coneless_tuple():
    # With no cones, conditions (iii) and (iv) force l = 0 mod n.
    for n in range(2, 31):
        units = [r for r in range(1, n) if __import__("math").gcd(r, n) == 1]
        for a in units:
            for b in units:
                for l in range(1, n):
                    assert not validate_sp(sp(l, n, 1, a, b, [])).valid


def test_validate_se_rejects_sphere_with_single_cone():
    # g0 = 0 with one cone has negative genus: impossible.
    for two_n in range(4, 52, 2):
        n = two_n // 2
        for m in (d for d in range(2, two_n + 1) if two_n % d == 0):
            doubled = 2 * n * (-1) + (two_n // m) * (m - 1)
            assert doubled < 2  # genus < 1 regardless of residues
    # and the validator agrees on a small exhaustive sweep
    for two_n in range(4, 22, 2):
        n = two_n // 2
        for m in (d for d in range(2, two_n + 1) if two_n % d == 0):
            for a in range(1, n):
                for k in range(1, m):
                    for l in range(2, two_n):
                        assert not validate_se(se(l, two_n, 0, a, [(k, m)])).valid


# ------------------------------------------------------------------ genus

def test_genus_sp_examples():
    assert genus_sp(sp(2, 9, 0, 1, 1, [(7, 9)])) == 4
    assert genus_sp(sp(4, 12, 0, 5, 11, [(2, 3)])) == 4
    assert genus_sp(sp(1, 5, 0, 1, 1, [])) == 0


def test_genus_se_examples():
    assert genus_se(se(2, 10, 0, 1, [(9, 10), (9, 10)])) == 4
    assert genus_se(se(5, 18, 0, 4, [(1, 2), (1, 18)])) == 4
    assert genus_se(se(2, 10, 1, 1, [])) == 5  # n * (2*1 - 1)


def test_genus_integrality_errors():
    with pytest.raises(IntegralityError):
        genus_sp(sp(1, 2, 0, 1, 1, [(1, 2)]))  # weight 1 is odd
    with pytest.raises(IntegralityError):
        genus_se(se(2, 10, 0, 1, [(9, 10)]))  # single half-weight cone
    with pytest.raises(IntegralityError):
        genus_sp(sp(1, 10, 0, 1, 1, [(1, 4)]))  # order not dividing n
    with pytest.raises(IntegralityError):
        # 4 does not divide 10, although the cone weights sum to an integer
        genus_sp(sp(1, 10, 0, 1, 1, [(1, 4)] * 4))


def test_genus_reads_only_order_g0_and_cone_orders():
    """The oracle skips a whole signature on one genus; that needs this.

    For tuples that pass condition (i), the reported genus must not move
    when l, the residues a and b, or any cone twist change, whether or
    not the new values are units or satisfy any other condition.
    """
    rng = random.Random(6061)

    def residue():
        return rng.randrange(-40, 41)

    hits_sp = hits_se = 0
    for _ in range(4000):
        n = rng.randrange(2, 25)
        divs = [m for m in range(2, n + 1) if n % m == 0]
        orders = rng.choices(divs, k=rng.randrange(0, 5))
        g0 = rng.randrange(0, 3)
        first = validate_sp(sp(residue(), n, g0, residue(), residue(),
                               [(residue(), m) for m in orders]))
        assert first.structure
        hits_sp += first.genus is not None
        for _ in range(4):
            d = sp(residue(), n, g0, residue(), residue(), [(residue(), m) for m in orders])
            assert validate_sp(d).genus == first.genus, d

        two_n = 2 * rng.randrange(2, 13)
        divs = [m for m in range(2, two_n + 1) if two_n % m == 0]
        orders = rng.choices(divs, k=rng.randrange(0, 5))
        first = validate_se(se(residue(), two_n, g0, residue(),
                               [(residue(), m) for m in orders]))
        assert first.structure
        hits_se += first.genus is not None
        for _ in range(4):
            e = se(residue(), two_n, g0, residue(), [(residue(), m) for m in orders])
            assert validate_se(e).genus == first.genus, e
    # both integral and non-integral genera must be exercised
    assert 400 < hits_sp < 3600 and 400 < hits_se < 3600


def test_only_the_twist_relation_and_the_range_read_l():
    """The oracle skips every l of a candidate on one kernel verdict; that needs this.

    Whether or not a tuple passes condition (i), changing l alone leaves
    every flag but `twist_relation` and `l_in_range`, and the genus, as
    they were.
    """
    rng = random.Random(2208)
    flags = [f.name for f in fields(ValidationReport)
             if f.name not in ("twist_relation", "l_in_range", "genus")]
    seen = Counter()

    def cones(order):
        divs = [m for m in range(2, order + 1) if order % m == 0]
        # now and then an order that need not divide: condition (i) may fail
        return [(rng.randrange(-order, 2 * order), rng.randrange(1, order + 2)
                 if rng.random() < 0.05 else rng.choice(divs))
                for _ in range(rng.randrange(0, 5))]

    def residue(order):
        return rng.randrange(-order, 2 * order)

    def exponents(order):
        return [rng.randrange(-order, 2 * order + 2) for _ in range(5)]

    for _ in range(3000):
        g0 = rng.randrange(-1, 3)
        n = rng.randrange(2, 25)
        a, b, sp_cones = residue(n), residue(n), cones(n)
        reports = [validate_sp(sp(l, n, g0, a, b, sp_cones)) for l in exponents(n)]
        two_n = 2 * rng.randrange(2, 13)
        a, se_cones = residue(two_n // 2), cones(two_n)
        reports += [validate_se(se(l, two_n, g0, a, se_cones)) for l in exponents(two_n)]
        for kernel in (reports[:5], reports[5:]):
            verdicts = {(tuple(getattr(r, name) for name in flags), r.genus) for r in kernel}
            assert len(verdicts) == 1, kernel
            ((held, _),) = verdicts
            seen.update(zip(flags, held))
            seen["every l-free flag"] += all(held)
            seen["l decides"] += len({(r.twist_relation, r.l_in_range) for r in kernel}) > 1
    # each l-free flag holds and fails, and the skip both drops and keeps candidates
    assert all(seen[name, True] and seen[name, False] for name in flags)
    assert seen["every l-free flag"] > 40 and seen["l decides"] > 1000


# ---------------------------------------------------------- canonical form

def test_canonicalize_sp_examples():
    assert canonicalize_sp(sp(1, 9, 0, 8, 5, [(5, 9)])) == sp(1, 9, 0, 5, 8, [(5, 9)])
    assert canonicalize_sp(sp(8, 16, 0, 7, 1, [(1, 2)])) == sp(8, 16, 0, 1, 7, [(1, 2)])
    already = sp(1, 9, 0, 2, 2, [(5, 9)])
    assert canonicalize_sp(already) == already


def test_canonicalize_se_examples():
    assert (canonicalize_se(se(2, 12, 0, 1, [(7, 12), (1, 4)]))
            == se(2, 12, 0, 1, [(1, 4), (7, 12)]))
    assert (canonicalize_se(se(2, 10, 0, 1, [(7, 10), (1, 10)]))
            == se(2, 10, 0, 1, [(1, 10), (7, 10)]))
    already = se(2, 10, 0, 1, [(9, 10), (9, 10)])
    assert canonicalize_se(already) == already


def test_canonicalize_reduces_residues():
    assert (canonicalize_sp(sp(1, 9, 0, 11, -4, [(14, 9)]))
            == sp(1, 9, 0, 2, 5, [(5, 9)]))
    assert (canonicalize_se(se(17, 18, 0, 16, [(3, 2), (31, 18)]))
            == se(17, 18, 0, 7, [(1, 2), (13, 18)]))


def test_canonical_uniqueness_under_reordering():
    base = se(5, 18, 0, 4, [(1, 2), (1, 18)])
    shuffled = se(5, 18, 0, 4, [(1, 18), (1, 2)])
    assert canonicalize_se(shuffled) == canonicalize_se(base)

    swapped = sp(8, 16, 0, 5, 3, [(1, 2)])
    assert canonicalize_sp(swapped) == sp(8, 16, 0, 3, 5, [(1, 2)])


def test_is_essential():
    assert is_essential(sp(1, 9, 0, 2, 2, [(5, 9)]))
    assert is_essential(se(2, 10, 0, 1, [(9, 10), (9, 10)]))
    assert not is_essential(sp(1, 9, 1, 2, 2, [(5, 9)]))
    assert not is_essential(sp(1, 12, 0, 1, 1, [(1, 2), (1, 2)]))
    assert not is_essential(se(2, 10, 0, 1, [(9, 10)]))


# -------------------------------------------- representative independence

def _shift_sp(d: SpDataSet, rng: random.Random) -> SpDataSet:
    cones = tuple(ConePair(c.twist + rng.randrange(-3, 4) * c.order, c.order)
                  for c in d.cones)
    return SpDataSet(d.l, d.n, d.g0,
                     d.a + rng.randrange(-3, 4) * d.n,
                     d.b + rng.randrange(-3, 4) * d.n, cones)


def _shift_se(d: SeDataSet, rng: random.Random) -> SeDataSet:
    cones = tuple(ConePair(c.twist + rng.randrange(-3, 4) * c.order, c.order)
                  for c in d.cones)
    n = d.two_n // 2
    return SeDataSet(d.l, d.two_n, d.g0, d.a + rng.randrange(-3, 4) * n, cones)


def test_representative_independence_on_enumerated_sets():
    rng = random.Random(20260808)
    for d in enumerate_sp(4):
        shifted = _shift_sp(d, rng)
        assert validate_sp(shifted) == validate_sp(d)
    for d in enumerate_se(4):
        shifted = _shift_se(d, rng)
        assert validate_se(shifted) == validate_se(d)


def test_representative_independence_on_random_tuples():
    rng = random.Random(97)
    for _ in range(3000):
        n = rng.randrange(2, 16)
        cones = [(rng.randrange(0, 12), m)
                 for m in rng.choices(range(2, 13), k=rng.randrange(0, 3))]
        d = sp(rng.randrange(-2, 20), n, rng.randrange(0, 3),
               rng.randrange(0, 2 * n), rng.randrange(0, 2 * n), cones)
        assert validate_sp(_shift_sp(d, rng)) == validate_sp(d)

        two_n = 2 * rng.randrange(2, 12)
        cones = [(rng.randrange(0, 12), m)
                 for m in rng.choices(range(2, 13), k=rng.randrange(0, 3))]
        e = se(rng.randrange(-2, 25), two_n, rng.randrange(0, 3),
               rng.randrange(0, two_n), cones)
        assert validate_se(_shift_se(e, rng)) == validate_se(e)


# ------------------------------------------------- fast-path consistency

def test_equal_verdicts_share_one_report():
    first = validate_sp(sp(1, 9, 0, 2, 2, [(5, 9)]))
    # the same residue classes give the same verdict
    assert validate_sp(sp(1, 9, 0, 11, 20, [(14, 9)])) is first
    assert first == ValidationReport(True, True, True, True, True, True, True, True, 4)
    broken = validate_sp(sp(1, 1, 0, 1, 1, [(1, 2)]))
    assert validate_se(se(2, 3, 0, 1, [(1, 2)])) is broken
    assert broken == ValidationReport(False, False, False, False, False,
                                      False, False, False, None)


def test_shared_reports_stay_bounded():
    for g0 in range(10_000):
        assert validate_sp(sp(1, 9, g0, 2, 2, [(5, 9)])).genus == 9 * g0 + 4
    info = _report.cache_info()
    assert info.maxsize == 4096 and info.currsize <= info.maxsize


def test_genus_adapters_build_no_data_set(monkeypatch):
    built = []
    for cls in (SpDataSet, SeDataSet):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    assert sp_genus_if_valid(1, 9, 0, 2, 2, (ConePair(5, 9),)) == 4
    assert se_genus_if_valid(5, 6, 0, 1, (ConePair(1, 2), ConePair(1, 6))) == 1
    assert sp_genus_if_valid(2, 9, 0, 2, 2, (ConePair(5, 9),)) is None
    assert built == []
    sp(1, 9, 0, 2, 2, [(5, 9)])
    assert built == [SpDataSet]


def test_fast_validity_agrees_with_reports():
    rng = random.Random(1234)
    for _ in range(8000):
        n = rng.randrange(-1, 20)
        cones = [(rng.randrange(-2, 14), rng.randrange(-2, 14))
                 for _ in range(rng.randrange(0, 4))]
        d = sp(rng.randrange(-3, 24), n, rng.randrange(-1, 3),
               rng.randrange(-2, 22), rng.randrange(-2, 22), cones)
        report = validate_sp(d)
        expected = report.genus if report.valid else None
        got = sp_genus_if_valid(d.l, d.n, d.g0, d.a, d.b,
                                [(c.twist, c.order) for c in d.cones])
        assert got == expected, d

        two_n = rng.randrange(-1, 26)
        cones = [(rng.randrange(-2, 16), rng.randrange(-2, 16))
                 for _ in range(rng.randrange(0, 4))]
        e = se(rng.randrange(-3, 30), two_n, rng.randrange(-1, 3),
               rng.randrange(-2, 26), cones)
        report = validate_se(e)
        expected = report.genus if report.valid else None
        got = se_genus_if_valid(e.l, e.two_n, e.g0, e.a,
                                [(c.twist, c.order) for c in e.cones])
        assert got == expected, e


# ------------------------------------------ single-pass validator equivalence

def _reference_validate_sp(d):
    """validate_sp as it was before its single loop over the cones."""
    n = d.n
    structure = (
        n >= 2 and d.g0 >= 0
        and all(c.order >= 2 and n % c.order == 0 for c in d.cones)
    )
    l_in_range = n >= 2 and 1 <= d.l <= n - 1
    if not structure:
        return ValidationReport(structure, False, False, False, l_in_range,
                                False, False, False, None)
    residues = gcd(d.a, n) == 1 and gcd(d.b, n) == 1 and all(
        gcd(c.twist, c.order) == 1 for c in d.cones)
    twist_relation = (d.a + d.b - d.l * d.a * d.b) % n == 0
    cone_sum = (d.a + d.b + sum((n // c.order) * c.twist for c in d.cones)) % n == 0
    weight = sum((n // c.order) * (c.order - 1) for c in d.cones)
    genus_integral = weight % 2 == 0
    genus = d.g0 * n + weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1
    return ValidationReport(structure, residues, twist_relation, cone_sum,
                            l_in_range, genus_integral, genus_positive,
                            True, genus)


def _reference_validate_se(d):
    """validate_se as it was before its single loop over the cones."""
    two_n = d.two_n
    n = two_n // 2
    structure = (
        two_n >= 4 and two_n % 2 == 0 and d.g0 >= 0
        and all(c.order >= 2 and two_n % c.order == 0 for c in d.cones)
    )
    l_in_range = two_n >= 4 and 2 <= d.l <= two_n - 1
    if not structure:
        return ValidationReport(structure, False, False, False, l_in_range,
                                False, False, False, None)
    residues = gcd(d.a, n) == 1 and all(
        gcd(c.twist, c.order) == 1 for c in d.cones)
    twist_relation = (d.l * d.a - 2) % n == 0
    cone_sum = (2 * d.a + sum((two_n // c.order) * c.twist for c in d.cones)) % two_n == 0
    if d.g0 >= 1:
        generating = True
    else:
        span = gcd(2 * d.a, two_n)
        for c in d.cones:
            span = gcd(span, (two_n // c.order) * c.twist)
        generating = span == 1
    half_weight = sum((two_n // c.order) * (c.order - 1) for c in d.cones)
    genus_integral = half_weight % 2 == 0
    genus = n * (2 * d.g0 - 1) + half_weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1
    return ValidationReport(structure, residues, twist_relation, cone_sum,
                            l_in_range, genus_integral, genus_positive,
                            generating, genus)


def test_validators_equal_their_reference_on_random_tuples():
    rng = random.Random(31337)
    for _ in range(20000):
        cones = [(rng.randrange(-13, 14), rng.randrange(-1, 13))
                 for _ in range(rng.randrange(0, 5))]
        d = sp(rng.randrange(-3, 26), rng.randrange(-1, 25), rng.randrange(-1, 3),
               rng.randrange(-25, 26), rng.randrange(-25, 26), cones)
        assert validate_sp(d) == _reference_validate_sp(d), d

        cones = [(rng.randrange(-13, 14), rng.randrange(-1, 13))
                 for _ in range(rng.randrange(0, 5))]
        e = se(rng.randrange(-3, 26), rng.randrange(-1, 25), rng.randrange(-1, 3),
               rng.randrange(-25, 26), cones)
        assert validate_se(e) == _reference_validate_se(e), e


@pytest.mark.parametrize("g", range(1, 9))
def test_validators_equal_their_reference_on_enumerated_sets(g):
    for d in enumerate_sp(g):
        assert validate_sp(d) == _reference_validate_sp(d), d
    for e in enumerate_se(g):
        assert validate_se(e) == _reference_validate_se(e), e


# ----------------------------------------------------------- wire format

def test_record_round_trip_on_enumerated_sets():
    for d in enumerate_sp(3) + enumerate_se(3):
        wire = json.dumps(to_record(d))
        assert from_record(json.loads(wire)) == d


def test_record_shapes():
    d = sp(8, 16, 0, 1, 7, [(1, 2)])
    assert to_record(d) == {"kind": "SP", "l": 8, "n": 16, "g0": 0,
                            "a": 1, "b": 7, "cones": [[1, 2]]}
    e = se(17, 18, 0, 7, [(13, 18), (1, 2)])
    assert to_record(e) == {"kind": "SE", "l": 17, "two_n": 18, "g0": 0,
                            "a": 7, "cones": [[1, 2], [13, 18]]}


def test_from_record_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_record({"kind": "XX", "l": 1})
    with pytest.raises(ValueError):
        from_record({"kind": "SP", "l": "one", "n": 9, "g0": 0,
                     "a": 2, "b": 2, "cones": []})
    with pytest.raises(ValueError):
        from_record({"kind": "SP", "l": 1, "n": 9, "g0": 0,
                     "a": 2, "b": 2, "cones": [[1]]})
    with pytest.raises(ValueError):
        from_record({"kind": "SE", "l": 2, "two_n": 10, "g0": 0,
                     "a": 1, "cones": [[True, 10]]})
    with pytest.raises(ValueError):
        from_record([1, 2, 3])


def _nested(depth, inner="x"):
    value = inner
    for _ in range(depth):
        value = [value]
    return value


SP_RECORD = to_record(sp(8, 16, 0, 1, 7, [(1, 2)]))


@pytest.mark.parametrize("record", [
    {"kind": _nested(3000)},
    {"kind": "k" * 50_000},
    {"kind": {"k" * 50_000: _nested(3000)}},
    {**SP_RECORD, "cones": [_nested(3000)]},
    {**SP_RECORD, "cones": [[_nested(3000), 2]]},
    {**SP_RECORD, "cones": [["k" * 50_000, 2]]},
    {**SP_RECORD, "cones": [list(range(50_000))]},
    {"kind": 10**5000},
    {**SP_RECORD, "cones": [[10**5000]]},
], ids=["deep-kind", "long-kind", "wide-deep-kind", "deep-cone-entry", "deep-twist",
        "long-twist", "long-cone-entry", "huge-int-kind", "huge-int-cone-entry"])
def test_from_record_errors_are_short(record):
    with pytest.raises(ValueError) as info:
        from_record(record)
    message = str(info.value)
    assert len(message) < 100 and "\n" not in message



# Arbitrary JSON values, as json.loads returns them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
RECORD_FIELDS = ["kind", "l", "n", "two_n", "g0", "a", "b", "cones"]
SEED_RECORDS = [
    to_record(sp(8, 16, 0, 1, 7, [(1, 2)])),
    to_record(sp(4, 12, 1, 5, 11, [(2, 3), (1, 4)])),
    to_record(se(17, 18, 0, 7, [(1, 2), (13, 18)])),
    to_record(se(2, 10, 1, 1, [])),
]
# Values a mutation puts into a field or a cone entry: near misses first.
FIELD_VALUES = st.one_of(
    st.sampled_from(["SP", "SE", "sp", True, False, 0, -1, 2.0, "3", None, [], {}]),
    st.integers(-50, 50), JSON_VALUES)


@st.composite
def mutated_records(draw):
    record = json.loads(json.dumps(draw(st.sampled_from(SEED_RECORDS))))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("drop", "set", "cone", "entry")))
        key = draw(st.sampled_from(RECORD_FIELDS))
        cones = record.get("cones")
        if op == "drop":
            record.pop(key, None)
        elif op == "set":
            record[key] = draw(FIELD_VALUES)
        elif isinstance(cones, list) and cones:
            i = draw(st.integers(0, len(cones) - 1))
            entry = cones[i]
            if op == "cone" or not isinstance(entry, list) or not entry:
                cones[i] = draw(FIELD_VALUES)
            else:
                entry[draw(st.integers(0, len(entry) - 1))] = draw(FIELD_VALUES)
    return record


@st.composite
def records_with_one_field_replaced(draw):
    record = dict(draw(st.sampled_from(SEED_RECORDS)))
    record[draw(st.sampled_from(RECORD_FIELDS))] = draw(FIELD_VALUES)
    return record


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(JSON_VALUES, mutated_records(), records_with_one_field_replaced()))
def test_from_record_returns_a_set_or_raises_value_error(value):
    try:
        d = from_record(value)
    except ValueError:
        return
    ints = ("l", "n", "g0", "a", "b") if isinstance(d, SpDataSet) else ("l", "two_n", "g0", "a")
    for key in ints:
        assert getattr(d, key) == value[key] and type(value[key]) is int
    assert [list(c) for c in d.cones] == [list(e) for e in value["cones"]]
    assert all(type(v) is int for c in d.cones for v in c)


def _old_cones_field(record):
    """_cones_field as it was, with a generator of isinstance calls per entry."""
    raw = record.get("cones")
    if not isinstance(raw, list):
        raise ValueError("field 'cones' must be a list of [twist, order] pairs")
    cones = []
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in entry)):
            raise ValueError(f"bad cone entry {entry!r}")
        cones.append(ConePair(entry[0], entry[1]))
    return tuple(cones)


class _Order(int):
    """An int subclass that is not bool: accepted like a plain int."""


CONE_SCALARS = [0, 1, -7, 2**70, True, False, 1.0, None, "1", [], _Order(4)]
CONE_ENTRIES = (
    [[k, m] for k in CONE_SCALARS for m in CONE_SCALARS]
    + [(k, m) for k in CONE_SCALARS for m in CONE_SCALARS]
    + [[k] for k in CONE_SCALARS] + [(k,) for k in CONE_SCALARS]
    + [[1, 2, k] for k in CONE_SCALARS] + [(k, 2, 3) for k in CONE_SCALARS]
    + [[], (), {}, {"0": 1, "1": 2}, "12", b"12", 3, None, True, range(2)])


def _outcome(field, record):
    try:
        return [(type(k), k, type(m), m) for k, m in field(record)]
    except ValueError as exc:
        return str(exc)


def test_cones_field_accepts_what_it_accepted():
    raws = ([[entry] for entry in CONE_ENTRIES] + [[[1, 2], entry] for entry in CONE_ENTRIES]
            + [[[1, 2], [3, 4]], [], (), None, "[[1, 2]]", {"0": [1, 2]}, 5, True])
    accepted = 0
    for raw in raws:
        record = {"cones": raw}
        outcome = _outcome(_cones_field, record)
        assert outcome == _outcome(_old_cones_field, record), raw
        accepted += isinstance(outcome, list)
    assert accepted == 2 * 50 + 2  # two-element lists and tuples of non-bool ints


def test_from_record_builds_cone_pairs_from_tuples_and_int_subclasses():
    d = from_record({"kind": "SP", "l": 1, "n": 9, "g0": 0, "a": 2, "b": 2,
                     "cones": [(5, _Order(9)), [_Order(1), 3]]})
    assert d.cones == (ConePair(5, 9), ConePair(1, 3))
    assert [type(c) for c in d.cones] == [ConePair, ConePair]
    assert (type(d.cones[0].order), type(d.cones[1].twist)) == (_Order, _Order)


INT_FIELDS = {"SP": ("l", "n", "g0", "a", "b"), "SE": ("l", "two_n", "g0", "a")}
RECORDS_BY_KIND = {"SP": to_record(sp(1, 9, 0, 2, 2, [(5, 9)])),
                   "SE": to_record(se(17, 18, 0, 7, [(1, 2), (13, 18)]))}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in INT_FIELDS.items()
                                       for key in keys])
def test_int_fields_accept_int_subclasses_and_refuse_bools(kind, key):
    record = {**RECORDS_BY_KIND[kind], key: _Order(RECORDS_BY_KIND[kind][key])}
    d = from_record(record)
    assert (getattr(d, key), type(getattr(d, key))) == (record[key], _Order)
    shape, fields = _record_fields(record)
    assert shape == kind.lower() and fields == _record_fields(RECORDS_BY_KIND[kind])[1]
    assert _Order in {type(v) for v in fields}
    for flag in (True, False):
        record = {**RECORDS_BY_KIND[kind], key: flag}
        for parse in (from_record, _record_fields, lambda r: record_fields(json.dumps(r))):
            with pytest.raises(ValueError) as info:
                parse(record)
            assert str(info.value) == f"field {key!r} must be an integer"


# ------------------------------------------------------------ record parsing

def _decode_outcome(decode, text):
    """What decoding `text` gives: its value's repr (NaN equals itself there),
    or the exception's type and message."""
    try:
        return repr(decode(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


# More after a value, as a line can hold it: a word, a second value, JSON
# whitespace before either, and a line separator that str.strip would drop.
JSON_TAILS = st.sampled_from(["x", "{}", " \tx", " \t{}", "\t\n 1", " \t", "\u2028"])


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(JSON_VALUES.map(json.dumps),
                 st.sampled_from(MALFORMED_LINES),
                 st.tuples(JSON_VALUES.map(json.dumps), JSON_TAILS).map("".join),
                 deeply_nested_records(PARITY_DEPTHS).map(lambda text_depth: text_depth[0])))
def test_json_value_equals_json_loads(text):
    assert not text[:1].isspace()  # record_fields strips every line first
    assert _decode_outcome(_json_value, text) == _decode_outcome(json.loads, text)


def _loads_record_fields(line):
    """record_fields as it was for JSON, decoding through json.loads."""
    return _record_fields(json.loads(line.strip()))


def test_json_records_meet_the_recursion_limit_where_json_loads_did():
    # Where the C scanner's nesting counts against the recursion limit
    # (Python < 3.12), one frame more or less moves the depth that fails.
    limit = sys.getrecursionlimit()
    outcomes = set()
    for depth in range(limit - 300, limit):
        line = '{"cones":' + "[" * depth + "]" * depth + "}"
        new = _decode_outcome(record_fields, line)
        assert new == _decode_outcome(_loads_record_fields, line), depth
        outcomes.add(new[0])
    if sys.version_info < (3, 12):
        assert outcomes == {ValueError, RecursionError}


def _cone_text(pairs):
    return ", ".join(f"({k}, {m})" for k, m in pairs)


def test_cone_texts_over_the_cap_bypass_the_memo():
    pairs = [(1, 2)] * (_CONE_MEMO_CHARS // 8 + 1)
    long_text = _cone_text(pairs)
    assert len(long_text) > _CONE_MEMO_CHARS
    before = _cone_memo.cache_info()
    assert record_fields(f"((1, 2), 0, 1; {long_text})") == ("se", (1, 2, 0, 1, tuple(pairs)))
    after = _cone_memo.cache_info()
    assert (after.currsize, after.hits, after.misses) == (before.currsize, before.hits,
                                                          before.misses)

    _cone_memo.cache_clear()
    at_cap = "(1, 2), " * (_CONE_MEMO_CHARS // 8 - 1) + "(1, 2)" + " " * 2
    assert len(at_cap) == _CONE_MEMO_CHARS
    record_fields(f"((1, 2), 0, 1;{at_cap})")  # the cone text runs from ';' to the last ')'
    assert _cone_memo.cache_info().currsize == 1


def test_a_cone_int_past_the_digit_limit_fails_alike_on_every_call():
    line = f"((1, 9), 0, (2, 2); (5, {'9' * 5000}))"
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            record_fields(line)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "\n" not in messages[0]
    assert "digits" in messages[0]


def test_the_cone_memo_is_bounded_in_entries_and_bytes():
    # The densest texts at the cap: each pair a new tuple of two ints past the
    # small-int cache, so an entry retains the most it can.
    texts = []
    for i in range(_cone_memo.cache_info().maxsize + 100):
        text = _cone_text([(i, 2)] + [(257 + j, 300 + j) for j in range(_CONE_MEMO_CHARS)])
        texts.append(text[:text.rfind(")", 0, _CONE_MEMO_CHARS) + 1])
    assert len(set(texts)) == len(texts) and max(map(len, texts)) <= _CONE_MEMO_CHARS
    _cone_memo.cache_clear()
    tracemalloc.start()
    try:
        for text in texts:
            record_fields(f"((1, 2), 0, 1;{text})")
        retained, _ = tracemalloc.get_traced_memory()
        info = _cone_memo.cache_info()
    finally:
        tracemalloc.stop()
        _cone_memo.cache_clear()
    assert info.currsize == info.maxsize == 4096 and info.misses == len(texts)
    # 4,096 entries of up to 128 characters: about 6.5 MiB at most
    assert retained < 8 * 2**20


def _old_str(d):
    """`__str__` of both kinds as it was, written from the fields."""
    cones = ", ".join(f"({c.twist}, {c.order})" for c in d.cones)
    if isinstance(d, SpDataSet):
        return f"(({d.l}, {d.n}), {d.g0}, ({d.a}, {d.b}); {cones})"
    return f"(({d.l}, {d.two_n}), {d.g0}, {d.a}; {cones})"


NON_CANONICAL = [
    sp(3, 9, 0, 11, -2, [(-5, 9), (7, 3), (1, 3)]),  # unreduced, a > b, unsorted cones
    sp(1, 2, 0, 5, 1, []),
    se(5, 6, 2, 7, [(13, 6), (-1, 2)]),
    se(-4, 10, 0, -3, [(0, 10), (9, 10), (3, 5)]),
]


def test_str_is_the_tuple_text_of_the_fields():
    for g in range(1, 9):
        for d in enumerate_sp(g) + enumerate_se(g):
            assert str(d) == _old_str(d)
    for d in NON_CANONICAL:
        assert str(d) == _old_str(d)
    # str shows the fields as they are: it does not canonicalize
    assert [str(d) for d in NON_CANONICAL] == [
        "((3, 9), 0, (11, -2); (-5, 9), (7, 3), (1, 3))",
        "((1, 2), 0, (5, 1); )",
        "((5, 6), 2, 7; (13, 6), (-1, 2))",
        "((-4, 10), 0, -3; (0, 10), (9, 10), (3, 5))",
    ]


def test_validate_dispatch():
    assert validate(sp(1, 9, 0, 2, 2, [(5, 9)])).valid
    assert validate(se(2, 10, 0, 1, [(9, 10), (9, 10)])).valid


def test_genus_integrality_follows_from_residue_and_sum_conditions():
    """A cone's weight and its residue-sum term share parity.

    For both kinds, a term of the residue sum is odd exactly when its
    weight contribution is odd (odd cofactor forces an even cone order,
    hence an odd unit twist), so condition (iv) over an even modulus
    forces an even total weight.  Genus integrality therefore cannot be
    the lone failing flag; the flag stays in the report so partial or
    garbage tuples are still diagnosed precisely.
    """
    rng = random.Random(5150)
    hits_sp = hits_se = 0
    for _ in range(20000):
        n = rng.randrange(2, 20)
        divs = [m for m in range(2, n + 1) if n % m == 0]
        cones = [(rng.randrange(1, m + 2), m)
                 for m in rng.choices(divs, k=rng.randrange(1, 4))]
        d = sp(rng.randrange(1, n + 1), n, rng.randrange(0, 2),
               rng.randrange(1, n + 4), rng.randrange(1, n + 4), cones)
        report = validate_sp(d)
        if report.structure and report.residues and report.cone_sum:
            hits_sp += 1
            assert report.genus_integral, d

        two_n = 2 * rng.randrange(2, 14)
        divs = [m for m in range(2, two_n + 1) if two_n % m == 0]
        cones = [(rng.randrange(1, m + 2), m)
                 for m in rng.choices(divs, k=rng.randrange(1, 4))]
        e = se(rng.randrange(2, two_n), two_n, rng.randrange(0, 2),
               rng.randrange(1, two_n), cones)
        report = validate_se(e)
        if report.structure and report.residues and report.cone_sum:
            hits_se += 1
            assert report.genus_integral, e
    # the sweep must actually exercise the implication
    assert hits_sp > 100 and hits_se > 100
