from collections import Counter
from itertools import chain, combinations_with_replacement, product
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
from twistfrac import enumeration
from twistfrac.arith import cone_signatures, divisors, units_mod
from twistfrac.enumeration import (
    _assignments,
    _odd_cofactors,
    _run_counts,
    _twist_counts,
    class_counts,
    se_blocks,
    sp_blocks,
)
from conftest import flat_keys
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
            # conflicting filters: each must still prune, none may override another
            grid += [Filters(essential_only=True, cone_count=count) for count in range(5)]
            grid.append(Filters(essential_only=True, g0=1))
            grid += [Filters(g0=g0, cone_count=count)
                     for g0 in range(3) for count in range(5)]
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


@pytest.mark.parametrize("kind", ["sp", "se"])
def test_oracle_calls_the_adapters_the_bench_counts(kind, monkeypatch):
    # the bench counts kernel calls by rebinding these names in the module
    import twistfrac.enumeration as enumeration

    expected, calls = enumerate_oracle(3, kind), {"sp": 0, "se": 0}
    for name in calls:
        def counting(*args, name=name, adapter=getattr(enumeration, f"{name}_genus_if_valid")):
            calls[name] += 1
            return adapter(*args)

        monkeypatch.setattr(enumeration, f"{name}_genus_if_valid", counting)
    assert enumerate_oracle(3, kind) == expected
    assert calls[kind] > 0 and calls["se" if kind == "sp" else "sp"] == 0


def test_oracle_contains_hand_checked_set():
    found = enumerate_oracle(1, "se")
    expected = SeDataSet(5, 6, 0, 1, (ConePair(1, 2), ConePair(1, 6)))
    assert expected in found


def test_oracle_refuses_large_genus():
    with pytest.raises(OracleBoundError, match="genus <= 24, got 25"):
        enumerate_oracle(25, "sp")
    with pytest.raises(OracleBoundError, match="genus <= 2, got 3"):
        enumerate_oracle(3, "se", max_genus=2)


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
        sp_blocks(0)
    with pytest.raises(ValueError):
        se_blocks(0)


@pytest.mark.parametrize("g", range(1, 11))
def test_keys_are_the_sort_keys_of_the_sets(g):
    for filters in (Filters(), ESSENTIAL, Filters(g0=1), Filters(cone_count=3),
                    Filters(exponent=(2, 4))):
        sp_sets = enumerate_sp(g, filters)
        se_sets = enumerate_se(g, filters)
        assert flat_keys(sp_blocks(g, filters)) == [d.sort_key() for d in sp_sets]
        assert flat_keys(se_blocks(g, filters)) == [d.sort_key() for d in se_sets]
        assert all(len(d.sort_key()) == 6 for d in sp_sets)
        assert all(len(d.sort_key()) == 5 for d in se_sets)


BLOCK_FILTERS = (Filters(), Filters(g0=1), Filters(cone_count=3), Filters(exponent=(2, 18)))


def _residual(head):
    """The residue sum -(a+b) or -2a that the cones of a block's sets must make."""
    order, _, _, a, *b = head
    return (-(a + (b[0] if b else a))) % order


@pytest.mark.parametrize("g", [1, 2, 5, 8, 12])
def test_heads_are_unique_and_ascending_within_an_order(g):
    for filters in BLOCK_FILTERS:
        for blocks in chain(sp_blocks(g, filters), se_blocks(g, filters)):
            heads = [head for head, _ in blocks]
            assert all(first < second for first, second in zip(heads, heads[1:]))
            assert len({head[0] for head in heads}) <= 1
            assert all(cones for _, cones in blocks)


@pytest.mark.parametrize("g", [1, 2, 5, 8, 12])
def test_heads_of_one_order_g0_and_residual_share_one_list(g):
    shared = 0
    for filters in BLOCK_FILTERS:
        for blocks in chain(sp_blocks(g, filters), se_blocks(g, filters)):
            lists = {}  # (order, g0, residual) -> ids of its heads' lists
            for head, cones in blocks:
                lists.setdefault((head[0], head[2], _residual(head)), set()).add(id(cones))
            assert all(len(ids) == 1 for ids in lists.values())
            # and no two groups share a list
            assert len(set().union(*lists.values())) == len(lists)
            shared += len(blocks) > len(lists)
    assert shared > 0  # some list serves several heads


def _signature_union(order, g0, residual, g, side_exchanging):
    """The sorted union of the `_assignments` buckets at `residual` over the
    signatures of one order and g0, solved here from the genus identity."""
    if side_exchanging:
        target = 2 * (g + order // 2) - 2 * g0 * order
    else:
        target = 2 * (g - g0 * order)
    union = []
    for sig in cone_signatures(order, target) if target > 0 else ():
        if side_exchanging and not (g0 or _odd_cofactors(order, sig)):
            continue  # over a sphere, sets generate only through an odd cofactor
        union.extend(_assignments(order, [sig], {residual}).get(residual, ()))
    return sorted(union)


def test_each_list_is_the_sorted_union_of_its_signatures_buckets():
    merged = 0
    for g in (1, 2, 5, 8, 12):
        for blocks in chain(sp_blocks(g), se_blocks(g)):
            for head, cones in blocks:
                order, _, g0, *residues = head
                union = _signature_union(order, g0, _residual(head), g, len(residues) == 1)
                assert cones == union
                merged += len({tuple(m for m, _ in c) for c in cones}) > 1
    assert merged > 0  # some lists join several signatures


def _brute_assignments(ambient, signature):
    """Every unit twist tuple over the cones, kept when its twists do not
    decrease within equal orders, and filed under its residue sum."""
    buckets = {}
    units = [[k for k in range(1, m) if gcd(k, m) == 1] for m in signature]
    for twists in product(*units):
        cones = tuple(zip(signature, twists))
        if any(m1 == m2 and k1 > k2 for (m1, k1), (m2, k2) in zip(cones, cones[1:])):
            continue
        residual = sum(ambient // m * k for m, k in cones) % ambient
        buckets.setdefault(residual, []).append(cones)
    return buckets


def test_assignments_match_brute_force():
    checked = 0
    for ambient in range(2, 31):
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 3):
                got = _assignments(ambient, [signature], range(ambient))
                assert got == _brute_assignments(ambient, signature)
                assert all(len(set(bucket)) == len(bucket) for bucket in got.values())
                checked += 1
        assert _assignments(ambient, [()], range(ambient)) == {0: [()]}
        assert _assignments(ambient, [], range(ambient)) == {}
    assert checked > 400  # 469 signatures, 29 of them empty


def test_assignments_file_only_the_residuals_asked_for():
    for ambient in range(2, 31):
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 3):
                every = _assignments(ambient, [signature], range(ambient))
                for residuals in (set(), {0}, set(range(0, ambient, 2)), set(range(ambient))):
                    # no empty list for a residual asked for but not reached
                    assert _assignments(ambient, [signature], residuals) == {
                        r: cones for r, cones in every.items() if r in residuals}


def test_run_counts_are_the_twist_sums_of_the_runs():
    # long runs too: an order-7 run of 12 cones is 6,188 multisets
    for order in range(2, 41):
        for count in range(13 if order < 8 else 5):
            runs = combinations_with_replacement(units_mod(order), count)
            assert _run_counts(order, count) == Counter(sum(run) % order for run in runs)


def test_twist_counts_are_the_brute_force_bucket_sizes():
    checked = 0
    for ambient in range(2, 31):
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 3):
                buckets = _brute_assignments(ambient, signature)
                assert _twist_counts(ambient, signature) == {
                    r: len(bucket) for r, bucket in buckets.items()}
                checked += 1
        assert _twist_counts(ambient, ()) == {0: 1}
    assert checked > 400


def _class_tally(chunks):
    """Sets per (order, l, g0, cone count), tallied from listed blocks."""
    tally = Counter()
    for blocks in chunks:
        for (order, l, g0, *_), cones in blocks:
            tally.update([(order, l, g0, len(c)) for c in cones])
    return dict(tally)


@pytest.mark.parametrize("g", range(1, 21))
def test_class_counts_equal_the_listing_tally(g):
    assert class_counts(g, "sp") == _class_tally(sp_blocks(g))
    assert class_counts(g, "se") == _class_tally(se_blocks(g))


def test_class_counts_refuse_a_bad_kind_or_genus():
    with pytest.raises(ValueError):
        class_counts(3, "all")
    with pytest.raises(ValueError):
        class_counts(0, "sp")


def test_assignment_residuals_have_the_parity_of_odd_cofactors():
    # at even order every residue sum of a signature's assignments is as
    # odd as its count of odd cofactors ...
    checked = 0
    for ambient in range(2, 41, 2):
        parts = [m for m in divisors(ambient) if m > 1]
        for size in range(5):
            for signature in combinations_with_replacement(parts, size):
                parity = _odd_cofactors(ambient, signature) % 2
                assert all(r % 2 == parity
                           for r in _assignments(ambient, [signature], range(ambient)))
                checked += 1
        # ... and that count is even for every signature of an even weight,
        # so no solved signature can be skipped for parity
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 4):
                assert _odd_cofactors(ambient, signature) % 2 == 0
    assert checked > 2000


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


def _essential_sp_counts_by_pairs(g):
    """Reference: walk every unit pair (a, b) of every essential order n."""
    exponents = set()
    count = 0
    for n in range(2 * g + 1, 4 * g + 1):
        c = n - 2 * g
        if n % c == 0:
            m = n // c
            inverse = {u: pow(u, -1, n) for u in range(1, n) if gcd(u, n) == 1}
            for a, a_inv in inverse.items():
                # the cone twist solves ck = -(a+b) mod n, so c divides a+b
                for b in range(a + (-2 * a) % c, n, c):
                    b_inv = inverse.get(b)
                    if b_inv is not None and gcd((-(a + b)) % n // c, m) == 1:
                        count += 1
                        exponents.add(((a_inv + b_inv) % n, n))
    return len(exponents), count


def _essential_se_counts_by_units(g):
    """Reference: solve every generating two-cone signature once per unit a mod n."""
    exponents = set()
    count = 0
    for two_n in range(4, 4 * g + 3, 2):
        n = two_n // 2
        for m1, m2 in cone_signatures(two_n, 2 * g + two_n, 2):  # g0 = 0
            if not _odd_cofactors(two_n, (m1, m2)):
                continue
            c1, c2 = two_n // m1, two_n // m2
            for a in units_mod(n):
                solutions = 0
                for k1 in units_mod(m1):
                    remainder = (-2 * a - c1 * k1) % two_n
                    k2 = remainder // c2
                    if (remainder % c2 == 0 and gcd(k2, m2) == 1
                            and (m1 != m2 or k1 <= k2)):
                        solutions += 1
                # the exponents l in [2, 2n-1] with l*a = 2 (mod n)
                ls = [l for l in range(2, two_n) if (l * a - 2) % n == 0]
                count += solutions * len(ls)
                exponents.update((l, two_n) for l in ls if solutions)
    return len(exponents), count


# every fourth genus, plus the cap and the genera with the most essential orders
@pytest.mark.parametrize("g", sorted(set(range(41, 129, 4)) | {96, 105, 120, 126, 128}))
def test_spectra_side_preserving_counts_past_the_enumerator(g):
    # despite its name, it holds the side-exchanging columns too
    row = spectra(g)
    assert (row.e_sp, row.n_sp) == _essential_sp_counts_by_pairs(g)
    assert (row.e_se, row.n_se) == _essential_se_counts_by_units(g)


def test_two_cone_counts_do_not_depend_on_the_unit():
    # a unit u = a (mod n) of Z/2n scales the canonical assignments with
    # residual -2 one-to-one onto those with residual -2a
    checked = 0
    for two_n in range(4, 65, 2):
        n = two_n // 2
        for target in range(two_n + 2, 2 * two_n, 2):  # genus 1, 2, ... at g0 = 0
            for signature in cone_signatures(two_n, target, 2):
                if len(signature) != 2 or not _odd_cofactors(two_n, signature):
                    continue
                assignments = _assignments(two_n, [signature], range(two_n))
                counts = {len(assignments.get(-2 * a % two_n, ())) for a in units_mod(n)}
                assert len(counts) == 1, (two_n, signature, counts)
                checked += 1
    assert checked > 100  # 105 signatures


def test_spectra_needs_no_signature_walk(monkeypatch):
    expected = [spectra(g) for g in (1, 4, 19, 40)]

    def fail(*args, **kwargs):
        raise AssertionError("spectra walked the cone signatures")

    for name in ("cone_signatures", "_signatures", "Filters"):
        monkeypatch.setattr(enumeration, name, fail)
    assert [spectra(g) for g in (1, 4, 19, 40)] == expected


def test_spectra_stays_healthy_past_the_reference_range():
    # smoke the larger-order search paths the reference table stops short of
    for g in (31, 40):
        row = spectra(g)
        assert row.n_sp > 0 and row.n_se > 0
        assert row.e_sp <= row.n_sp and row.e_se <= row.n_se
