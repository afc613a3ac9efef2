from math import gcd

import pytest

from twistfrac import (
    ConePair,
    Filters,
    NotApplicableError,
    SeDataSet,
    SpDataSet,
    enumerate_se,
    enumerate_sp,
    family_se_max,
    family_se_min,
    family_sp_4g,
    family_sp_top,
    genus,
    is_essential,
    se_power_decompose,
    sp_power_compose,
    sp_root_decompose,
    validate,
    validate_se,
)


def sp(l, n, g0, a, b, cones):
    return SpDataSet(l, n, g0, a, b, tuple(ConePair(k, m) for k, m in cones))


def se(l, two_n, g0, a, cones):
    return SeDataSet(l, two_n, g0, a, tuple(ConePair(k, m) for k, m in cones))


# -------------------------------------------------- root decomposition (SP)

def test_sp_root_decompose_known_example():
    d = sp(2, 9, 0, 1, 1, [(7, 9)])
    assert sp_root_decompose(d) == sp(1, 9, 0, 2, 2, [(5, 9)])


def test_sp_root_decompose_second_example():
    d = sp(5, 9, 0, 1, 7, [(1, 9)])
    assert sp_root_decompose(d) == sp(1, 9, 0, 5, 8, [(5, 9)])


def test_sp_root_decompose_identity_on_roots():
    root = sp(1, 9, 0, 2, 2, [(5, 9)])
    assert sp_root_decompose(root) == root


def test_sp_root_decompose_requires_coprime_exponent():
    with pytest.raises(NotApplicableError):
        sp_root_decompose(sp(4, 12, 0, 5, 11, [(2, 3)]))


def test_sp_root_decompose_requires_valid_input():
    with pytest.raises(NotApplicableError):
        sp_root_decompose(sp(1, 4, 0, 1, 3, [(1, 2)]))


def test_sp_root_decompose_preserves_structure():
    for g in range(1, 7):
        for d in enumerate_sp(g):
            if gcd(d.l, d.n) != 1:
                continue
            root = sp_root_decompose(d)
            report = validate(root)
            assert report.valid and report.genus == g
            assert root.l == 1 and root.n == d.n and root.g0 == d.g0
            assert sorted(c.order for c in root.cones) == sorted(
                c.order for c in d.cones)


# ------------------------------------------------------- power composition

def test_sp_power_compose_inverts_the_example():
    root = sp(1, 9, 0, 2, 2, [(5, 9)])
    assert sp_power_compose(root, 2) == sp(2, 9, 0, 1, 1, [(7, 9)])


def test_sp_power_compose_identity():
    root = sp(1, 9, 0, 2, 2, [(5, 9)])
    assert sp_power_compose(root, 1) == root


def test_sp_power_compose_rejects_non_units():
    root = sp(1, 9, 0, 2, 2, [(5, 9)])
    with pytest.raises(NotApplicableError):
        sp_power_compose(root, 3)
    with pytest.raises(NotApplicableError):
        sp_power_compose(root, 0)
    with pytest.raises(NotApplicableError):
        sp_power_compose(sp(2, 9, 0, 1, 1, [(7, 9)]), 2)  # not a root


def test_sp_power_compose_rejects_an_invalid_root():
    # fails conditions (ii)-(iv)
    with pytest.raises(NotApplicableError, match="not a valid side-preserving data set"):
        sp_power_compose(sp(1, 9, 0, 2, 3, [(5, 9)]), 2)


def test_sp_round_trips():
    for g in range(1, 7):
        roots = [d for d in enumerate_sp(g) if d.l == 1]
        units = lambda n: [u for u in range(1, n) if gcd(u, n) == 1]
        for root in roots:
            for l in units(root.n):
                powered = sp_power_compose(root, l)
                assert sp_root_decompose(powered) == root
        for d in enumerate_sp(g):
            if gcd(d.l, d.n) == 1:
                assert sp_power_compose(sp_root_decompose(d), d.l) == d


# ------------------------------------------------- power decomposition (SE)

def test_se_power_decompose_adjusted_example():
    result = se_power_decompose(se(6, 10, 0, 2, [(3, 10), (3, 10)]), 2)
    assert result.status == "adjusted"
    assert result.result == se(3, 10, 0, 4, [(1, 10), (1, 10)])
    assert result.adjustments == ((1, 6, 1), (2, 6, 1))


def test_se_power_decompose_second_adjusted_example():
    result = se_power_decompose(se(8, 10, 0, 4, [(1, 10), (1, 10)]), 2)
    assert result.status == "adjusted"
    assert result.result is not None
    assert result.result.exponent == (4, 10)
    assert result.result.a == 3
    assert result.result == se(4, 10, 0, 3, [(7, 10), (7, 10)])
    assert result.result in enumerate_se(4, Filters(essential_only=True))


def test_se_power_decompose_exact_example():
    result = se_power_decompose(se(9, 10, 0, 3, [(1, 10), (3, 10)]), 3)
    assert result.status == "exact"
    assert result.adjustments == ()
    assert result.result == se(3, 10, 0, 4, [(3, 10), (9, 10)])
    assert result.result in enumerate_se(4, Filters(essential_only=True))


def test_se_power_decompose_preconditions():
    d = se(6, 10, 0, 2, [(3, 10), (3, 10)])
    with pytest.raises(NotApplicableError):
        se_power_decompose(d, 1)  # r must exceed 1
    with pytest.raises(NotApplicableError):
        se_power_decompose(d, 4)  # r must divide l
    with pytest.raises(NotApplicableError):
        se_power_decompose(d, 6)  # l/r = 1 has no side-exchanging root
    with pytest.raises(NotApplicableError):
        se_power_decompose(se(10, 12, 0, 5, [(1, 4), (11, 12)]), 2)  # gcd(l, n) = 2
    with pytest.raises(NotApplicableError):
        se_power_decompose(se(6, 10, 0, 3, [(3, 10), (3, 10)]), 2)  # invalid input


def test_se_power_decompose_results_validate():
    for g in range(1, 7):
        for d in enumerate_se(g):
            n = d.two_n // 2
            if gcd(d.l, n) != 1:
                continue
            for r in range(2, d.l + 1):
                if d.l % r or d.l // r < 2:
                    continue
                result = se_power_decompose(d, r)
                assert result.status in ("exact", "adjusted")
                report = validate_se(result.result)
                assert report.valid and report.genus == g
                assert result.result.exponent == (d.l // r, d.two_n)
                if result.status == "exact":
                    assert result.adjustments == ()


# ----------------------------------------------------------------- families

def test_family_instances_match_known_tuples():
    assert family_sp_top(4)[0] == sp(8, 9, 0, 1, 4, [(4, 9)])
    assert family_sp_top(4)[1] == sp(8, 9, 0, 7, 7, [(4, 9)])
    assert family_sp_top(1)[0] == sp(2, 3, 0, 1, 1, [(1, 3)])
    assert family_sp_4g(4) == [sp(8, 16, 0, 1, 7, [(1, 2)]),
                               sp(8, 16, 0, 9, 15, [(1, 2)])]
    assert family_sp_4g(2)[0] == sp(4, 8, 0, 1, 3, [(1, 2)])
    assert family_se_max(4) == se(17, 18, 0, 7, [(1, 2), (13, 18)])
    assert family_se_max(1) == se(5, 6, 0, 1, [(1, 2), (1, 6)])
    assert family_se_max(2) == se(9, 10, 0, 3, [(1, 2), (9, 10)])
    assert family_se_min(4) == se(2, 10, 0, 1, [(9, 10), (9, 10)])
    assert family_se_min(1) == se(2, 4, 0, 1, [(3, 4), (3, 4)])
    assert family_se_min(2) == se(2, 6, 0, 1, [(5, 6), (5, 6)])


def test_families_valid_essential_with_boundary_orders():
    for g in range(1, 31):
        top = family_sp_top(g)
        wide = family_sp_4g(g)
        se_hi = family_se_max(g)
        se_lo = family_se_min(g)
        for d in top + wide + [se_hi, se_lo]:
            report = validate(d)
            assert report.valid and report.genus == g and is_essential(d)
        assert all(d.n == 2 * g + 1 for d in top)
        assert all(d.n == 4 * g for d in wide)
        assert se_hi.two_n == 4 * g + 2
        assert se_lo.two_n == 2 * g + 2


def test_families_appear_in_enumeration():
    for g in range(1, 9):
        sp_sets = set(enumerate_sp(g))
        se_sets = set(enumerate_se(g))
        for d in family_sp_top(g) + family_sp_4g(g):
            assert d in sp_sets
        assert family_se_max(g) in se_sets
        assert family_se_min(g) in se_sets


def test_family_sp_top_sets_coincide_only_at_genus_1():
    first, second = family_sp_top(1)
    assert first == second
    for g in range(2, 201):
        first, second = family_sp_top(g)
        assert first != second
    for g in range(1, 11):
        listed = enumerate_sp(g, Filters(exponent=(2 * g, 2 * g + 1)))
        assert all(d in listed for d in family_sp_top(g))


def test_families_reject_bad_genus():
    for build in (family_sp_top, family_sp_4g, family_se_max, family_se_min):
        with pytest.raises(ValueError):
            build(0)


def test_genus_of_family_outputs():
    assert genus(family_se_max(2)) == 2
    assert genus(family_sp_top(7)[0]) == 7
