import json
import random

import pytest

from twistfrac import (
    ConePair,
    IntegralityError,
    SeDataSet,
    SpDataSet,
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
from twistfrac.datasets import se_genus_if_valid, sp_genus_if_valid


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
