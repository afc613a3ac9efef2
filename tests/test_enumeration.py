from math import gcd

import pytest

from twistfrac import (
    ConePair,
    Filters,
    OracleBoundError,
    SeDataSet,
    SpDataSet,
    SpectraRow,
    canonicalize,
    enumerate_oracle,
    enumerate_se,
    enumerate_sp,
    genus,
    is_essential,
    spectra,
    sp_root_decompose,
    validate,
)
from twistfrac.enumeration import iter_se, iter_sp
from reference_data import SE_ESSENTIAL_G4, SP_ESSENTIAL_G4

ESSENTIAL = Filters(essential_only=True)


def test_sp_genus4_essential_matches_reference():
    assert enumerate_sp(4, ESSENTIAL) == sorted(SP_ESSENTIAL_G4,
                                                key=SpDataSet.sort_key)


def test_se_genus4_essential_matches_reference():
    assert enumerate_se(4, ESSENTIAL) == sorted(SE_ESSENTIAL_G4,
                                                key=SeDataSet.sort_key)


def test_sp_exponent_filter_single_set():
    got = enumerate_sp(4, Filters(essential_only=True, exponent=(4, 12)))
    assert got == [SpDataSet(4, 12, 0, 5, 11, (ConePair(2, 3),))]


def test_sp_exponent_filter_four_sets():
    got = enumerate_sp(4, Filters(essential_only=True, exponent=(8, 16)))
    assert [(d.a, d.b) for d in got] == [(1, 7), (3, 5), (9, 15), (11, 13)]
    assert all(d.cones == (ConePair(1, 2),) for d in got)


def test_se_exponent_filters():
    got = enumerate_se(4, Filters(essential_only=True, exponent=(2, 10)))
    assert got == [
        SeDataSet(2, 10, 0, 1, (ConePair(1, 10), ConePair(7, 10))),
        SeDataSet(2, 10, 0, 1, (ConePair(9, 10), ConePair(9, 10))),
    ]
    got = enumerate_se(4, Filters(essential_only=True, exponent=(5, 18)))
    assert got == [SeDataSet(5, 18, 0, 4, (ConePair(1, 2), ConePair(1, 18)))]


def test_exponent_counts_at_genus4():
    sp = enumerate_sp(4, ESSENTIAL)
    se = enumerate_se(4, ESSENTIAL)
    assert len(sp) == 26 and len({d.exponent for d in sp}) == 13
    assert len(se) == 33 and len({d.exponent for d in se}) == 22


@pytest.mark.parametrize("g", range(1, 15))
def test_emitted_sets_are_valid_canonical_sorted_unique(g):
    for sets in (enumerate_sp(g), enumerate_se(g)):
        assert len(set(sets)) == len(sets)
        assert sets == sorted(sets, key=lambda d: d.sort_key())
        for d in sets:
            report = validate(d)
            assert report.valid and report.genus == g
            assert genus(d) == g
            assert canonicalize(d) == d


def test_unfiltered_enumeration_contains_filtered():
    # The enumerators prune to exactly the sets `Filters.accepts` keeps.
    for g in range(1, 9):
        for enumerate_kind in (enumerate_sp, enumerate_se):
            full = enumerate_kind(g)
            middle = full[len(full) // 2]
            grid = [ESSENTIAL]
            grid += [Filters(g0=g0) for g0 in range(3)]
            grid += [Filters(cone_count=count) for count in range(5)]
            grid += [Filters(exponent=e) for e in sorted({d.exponent for d in full})]
            grid.append(Filters(essential_only=is_essential(middle),
                                exponent=middle.exponent, g0=middle.g0,
                                cone_count=len(middle.cones)))
            for f in grid:
                assert enumerate_kind(g, f) == [d for d in full if f.accepts(d)], (g, f)
            assert enumerate_kind(g, grid[-1])  # the combination keeps `middle`


def test_essential_sp_order_floor():
    for g in range(1, 9):
        for d in enumerate_sp(g, ESSENTIAL):
            assert d.n >= 2 * g + 1


def test_sp_root_closure():
    # Coprime-exponent sets are powers of roots of the same genus.
    for g in range(1, 9):
        everything = set(enumerate_sp(g))
        for d in everything:
            if gcd(d.l, d.n) == 1:
                root = sp_root_decompose(d)
                assert root.exponent == (1, d.n)
                assert root in everything


def test_oracle_equivalence_small_genus():
    for g in (1, 2, 3, 4):
        assert enumerate_oracle(g, "sp") == enumerate_sp(g)
        assert enumerate_oracle(g, "se") == enumerate_se(g)


def test_oracle_contains_hand_checked_set():
    found = enumerate_oracle(1, "se")
    expected = SeDataSet(5, 6, 0, 1, (ConePair(1, 2), ConePair(1, 6)))
    assert expected in found


def test_oracle_refuses_large_genus():
    with pytest.raises(OracleBoundError):
        enumerate_oracle(9, "sp")
    assert enumerate_oracle(9, "sp", max_genus=9) == enumerate_sp(9)


def test_oracle_rejects_bad_kind():
    with pytest.raises(ValueError):
        enumerate_oracle(2, "both")


def test_enumeration_rejects_bad_genus():
    with pytest.raises(ValueError):
        enumerate_sp(0)
    with pytest.raises(ValueError):
        enumerate_se(-1)
    # the streaming forms refuse when called, not at their first chunk
    with pytest.raises(ValueError):
        iter_sp(0)
    with pytest.raises(ValueError):
        iter_se(0)


def test_filters_validate_their_fields():
    with pytest.raises(ValueError):
        Filters(exponent=(3, 1))


def test_spectra_genus4():
    row = spectra(4)
    assert (row.genus_plus_one, row.e_sp, row.n_sp) == (5, 13, 26)
    assert (row.e_se, row.n_se) == (22, 33)


def test_spectra_counts_are_consistent():
    for g in range(1, 11):
        row = spectra(g)
        assert row.genus_plus_one == g + 1
        assert 0 <= row.e_sp <= row.n_sp
        assert 0 <= row.e_se <= row.n_se


def test_genus_helper_matches_enumeration():
    for d in enumerate_sp(3) + enumerate_se(3):
        assert genus(d) == 3


@pytest.mark.parametrize("g", range(1, 41))
def test_spectra_counter_matches_enumeration(g):
    sp = enumerate_sp(g, ESSENTIAL)
    se = enumerate_se(g, ESSENTIAL)
    assert spectra(g) == SpectraRow(g + 1, len({d.exponent for d in sp}),
                                    len({d.exponent for d in se}),
                                    len(sp), len(se))


def test_spectra_stays_healthy_past_the_reference_range():
    # smoke the larger-order search paths the reference table stops short of
    for g in (31, 40):
        row = spectra(g)
        assert row.n_sp > 0 and row.n_se > 0
        assert row.e_sp <= row.n_sp and row.e_se <= row.n_se
