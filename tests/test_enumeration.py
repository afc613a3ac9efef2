import gc
import random
from collections import Counter
from itertools import chain, combinations_with_replacement, product
from math import gcd, prod

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
from twistfrac.arith import cone_signatures, divisors, prime_factors, units_mod
from twistfrac.enumeration import (
    _assignments,
    _cone_counts,
    _odd_cofactors,
    _run_counts,
    _se_exponent_counts,
    _se_exponents,
    _units,
    block_sets,
    blocks,
    class_counts,
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


def _filter_grid(exponents):
    """Each filter alone, the exponent filter at each of `exponents`, and conflicting pairs."""
    grid = [ESSENTIAL]
    grid += [Filters(g0=g0) for g0 in range(3)]
    grid += [Filters(cone_count=count) for count in range(5)]
    grid += [Filters(exponent=e) for e in sorted(exponents)]
    # conflicting filters: each must still prune, none may override another
    grid += [Filters(essential_only=True, cone_count=count) for count in range(5)]
    grid.append(Filters(essential_only=True, g0=1))
    grid += [Filters(g0=g0, cone_count=count) for g0 in range(3) for count in range(5)]
    return grid


def test_unfiltered_enumeration_contains_filtered():
    # The enumerators prune to exactly the sets `Filters.accepts` keeps.
    for g in range(1, 9):
        for enumerate_kind in (enumerate_sp, enumerate_se):
            full = enumerate_kind(g)
            middle = full[len(full) // 2]
            grid = _filter_grid({d.exponent for d in full})
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


@pytest.mark.parametrize("g, kind, error, text", [
    (0, "sp", ValueError, "genus must be >= 1, got 0"),
    (2, "both", ValueError, "kind must be 'sp' or 'se', got 'both'"),
    (25, "both", ValueError, "kind must be 'sp' or 'se', got 'both'"),  # the kind comes first
    (25, "sp", OracleBoundError, "oracle enumeration is bounded to genus <= 24, got 25"),
])
def test_oracle_refuses_with_exact_texts(g, kind, error, text):
    with pytest.raises(ValueError) as caught:
        enumerate_oracle(g, kind)
    assert type(caught.value) is error and str(caught.value) == text


def test_enumeration_rejects_bad_genus():
    with pytest.raises(ValueError):
        enumerate_sp(0)
    with pytest.raises(ValueError):
        enumerate_se(-1)
    # the streaming form refuses when called, not at its first chunk
    for kind in ("sp", "se"):
        with pytest.raises(ValueError, match=r"^genus must be >= 1, got 0$"):
            blocks(0, kind)


def test_blocks_and_class_counts_refuse_a_bad_kind_when_called():
    with pytest.raises(ValueError, match=r"^kind must be 'sp' or 'se', got 'both'$"):
        blocks(3, "both")
    with pytest.raises(ValueError, match=r"^kind must be 'sp' or 'se', got 'both'$"):
        class_counts(3, "both")


@pytest.mark.parametrize("g", range(1, 11))
def test_keys_are_the_sort_keys_of_the_sets(g):
    for filters in (Filters(), ESSENTIAL, Filters(g0=1), Filters(cone_count=3),
                    Filters(exponent=(2, 4))):
        sp_sets = enumerate_sp(g, filters)
        se_sets = enumerate_se(g, filters)
        assert flat_keys(blocks(g, "sp", filters)) == [d.sort_key() for d in sp_sets]
        assert flat_keys(blocks(g, "se", filters)) == [d.sort_key() for d in se_sets]
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
        for chunk in chain(blocks(g, "sp", filters), blocks(g, "se", filters)):
            heads = [head for head, _ in chunk]
            assert all(first < second for first, second in zip(heads, heads[1:]))
            assert len({head[0] for head in heads}) <= 1
            assert all(cones for _, cones in chunk)


def _kept_orders(g, kind, f):
    """The orders of genus g at which some g0 has a cone signature the filters `f` keep."""
    se = kind == "se"
    kept = []
    for order in enumeration._orders(g, kind):
        targets = range(2 * g + se * order, 0, -2 * order)  # 2(g - g0 n), 2(g + n) - 4 g0 n
        if any((f.exponent is None or f.exponent[1] == order)
               and f.g0 in (None, g0) and f.cone_count in (None, len(sig))
               and (not f.essential_only or (g0 == 0 and len(sig) == 1 + se))
               and (not se or g0 or _odd_cofactors(order, sig))  # a sphere needs an odd cofactor
               for g0, target in enumerate(targets) for sig in cone_signatures(order, target)):
            kept.append(order)
    return kept


@pytest.mark.parametrize("g", range(1, 9))
def test_heads_are_solved_once_per_order_with_groups(g, monkeypatch):
    solved = []  # the order of each _heads call
    heads = enumeration._heads
    monkeypatch.setattr(enumeration, "_heads", lambda kind, order, wanted=None:
                        solved.append(order) or heads(kind, order, wanted))
    for kind in ("sp", "se"):
        for filters in (ESSENTIAL,) + BLOCK_FILTERS:
            solved.clear()
            list(blocks(g, kind, filters))
            assert solved == _kept_orders(g, kind, filters)
        solved.clear()
        class_counts(g, kind)
        assert solved == _kept_orders(g, kind, Filters())


@pytest.mark.parametrize("g", [1, 2, 5, 8, 12])
def test_heads_of_one_order_g0_and_residual_share_one_list(g):
    shared = 0
    for filters in BLOCK_FILTERS:
        for chunk in chain(blocks(g, "sp", filters), blocks(g, "se", filters)):
            lists = {}  # (order, g0, residual) -> ids of its heads' lists
            for head, cones in chunk:
                lists.setdefault((head[0], head[2], _residual(head)), set()).add(id(cones))
            assert all(len(ids) == 1 for ids in lists.values())
            # and no two groups share a list
            assert len(set().union(*lists.values())) == len(lists)
            shared += len(chunk) > len(lists)
    assert shared > 0  # some list serves several heads


@pytest.mark.parametrize("g", [1, 2, 5, 8, 12])
def test_equal_cone_pairs_are_one_object(g):
    repeats = 0
    for kind in ("sp", "se"):
        # within one order, each (order, twist) pair is one tuple ...
        for chunk in blocks(g, kind):
            pairs = {}
            for _, cones in chunk:
                for pair in chain.from_iterable(cones):
                    assert pairs.setdefault(pair, pair) is pair
                    repeats += 1
            repeats -= len(pairs)
        # ... and a listing's data sets share one ConePair per cone
        cone_pairs = {}
        for d in block_sets(kind, blocks(g, kind)):
            for cone in d.cones:
                assert cone_pairs.setdefault(cone, cone) is cone
    assert repeats > 0  # some pairs serve several cones


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
        union.extend(_assignments(order, [sig], {residual}, {}).get(residual, ()))
    return sorted(union)


def test_each_list_is_the_sorted_union_of_its_signatures_buckets():
    merged = 0
    for g in (1, 2, 5, 8, 12):
        for chunk in chain(blocks(g, "sp"), blocks(g, "se")):
            for head, cones in chunk:
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
                got = _assignments(ambient, [signature], range(ambient), {})
                assert got == _brute_assignments(ambient, signature)
                assert all(len(set(bucket)) == len(bucket) for bucket in got.values())
                checked += 1
        assert _assignments(ambient, [()], range(ambient), {}) == {0: [()]}
        assert _assignments(ambient, [], range(ambient), {}) == {}
    assert checked > 400  # 469 signatures, 29 of them empty


def test_assignments_file_only_the_residuals_asked_for():
    for ambient in range(2, 31):
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 3):
                every = _assignments(ambient, [signature], range(ambient), {})
                for residuals in (set(), {0}, set(range(0, ambient, 2)), set(range(ambient))):
                    # no empty list for a residual asked for but not reached
                    assert _assignments(ambient, [signature], residuals, {}) == {
                        r: cones for r, cones in every.items() if r in residuals}


def test_run_counts_are_the_twist_sums_of_the_runs():
    # long runs too: an order-7 run of 12 cones is 6,188 multisets
    for order in range(2, 41):
        for count in range(13 if order < 8 else 5):
            runs = combinations_with_replacement(units_mod(order), count)
            assert _run_counts(order, count) == Counter(sum(run) % order for run in runs)


def test_twist_counts_are_the_brute_force_bucket_sizes():
    # every signature of a target, with no cap on cone count, counted by
    # cone count, residual and odd cofactor; one memo serves each ambient
    checked = 0
    for ambient in range(2, 31):
        memo = {}
        for target in range(0, 3 * ambient, 2):
            expected = Counter()
            for signature in cone_signatures(ambient, target):
                odd = _odd_cofactors(ambient, signature) > 0
                for residual, bucket in _brute_assignments(ambient, signature).items():
                    expected[len(signature), residual, odd] += len(bucket)
                checked += 1
            assert _cone_counts(ambient, target, memo) == dict(expected), (ambient, target)
    assert checked > 600  # 676 signatures, 29 of them empty


def _class_tally(chunks):
    """Sets per (order, l, g0, cone count), tallied from listed blocks."""
    tally = Counter()
    for chunk in chunks:
        for (order, l, g0, *_), cones in chunk:
            tally.update([(order, l, g0, len(c)) for c in cones])
    return dict(tally)


@pytest.mark.parametrize("g", range(1, 21))
def test_class_counts_equal_the_listing_tally(g):
    assert class_counts(g, "sp") == _class_tally(blocks(g, "sp"))
    assert class_counts(g, "se") == _class_tally(blocks(g, "se"))


@pytest.mark.parametrize("g", range(1, 17))
def test_filtered_counts_equal_the_filtered_listing_tally(g):
    for kind in ("sp", "se"):
        counts = class_counts(g, kind)
        for f in _filter_grid({(l, order) for order, l, _, _ in counts}):
            kept = {key: sets for key, sets in counts.items() if f.admits(kind, *key)}
            assert kept == _class_tally(blocks(g, kind, f)), (kind, f)


# Fixed before any slice was read: the seed of the draw and the largest
# slice listed, so that no draw lists more than that many sets.
SLICE_SEED, SLICE_MAX_SETS = 1, 20_000


@pytest.mark.parametrize("kind", ["sp", "se"])
@pytest.mark.parametrize("g", [32, 64, 128])
def test_sampled_exponent_slices_equal_class_counts_past_the_oracle(g, kind):
    counts = class_counts(g, kind)
    slices = Counter()  # (order, l) -> sets
    for (order, l, _, _), sets in counts.items():
        slices[order, l] += sets
    small = sorted(exponent for exponent, sets in slices.items() if sets <= SLICE_MAX_SETS)
    for order, l in random.Random(SLICE_SEED).sample(small, 4):
        expected = {key: sets for key, sets in counts.items() if key[:2] == (order, l)}
        assert _class_tally(blocks(g, kind, Filters(exponent=(l, order)))) == expected, (order, l)


def test_essential_slice_of_class_counts_equals_spectra():
    # the closed forms of `spectra` share no code with the count walk
    for g in range(1, 49):
        columns = []
        for kind in ("sp", "se"):
            kept = {key: sets for key, sets in class_counts(g, kind).items()
                    if ESSENTIAL.admits(kind, *key)}
            columns += [len({key[:2] for key in kept}), sum(kept.values())]
        e_sp, n_sp, e_se, n_se = columns
        assert spectra(g) == SpectraRow(g + 1, e_sp, e_se, n_sp, n_se), g


def test_class_counts_walk_no_listing_signature(monkeypatch):
    # the listing tally, taken before the listing's walk is forbidden
    expected = {(g, kind): _class_tally(blocks(g, kind))
                for g in range(1, 13) for kind in ("sp", "se")}

    def fail(*args, **kwargs):
        raise AssertionError("class_counts walked the listing's signatures")

    for name in ("cone_signatures", "_assignments", "_order_blocks"):
        monkeypatch.setattr(enumeration, name, fail)
    assert {key: class_counts(*key) for key in expected} == expected


def test_walks_leave_no_reference_cycle():
    # a walk that refers to itself keeps its memo or found set alive until
    # a full collection
    gc.collect()
    gc.disable()
    try:
        cone_signatures(60, 90)
        assert gc.collect() == 0
        for kind in ("sp", "se"):
            list(blocks(24, kind))
            assert gc.collect() == 0
            class_counts(24, kind)
            assert gc.collect() == 0
    finally:
        gc.enable()


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
                           for r in _assignments(ambient, [signature], range(ambient), {}))
                checked += 1
        # ... and that count is even for every signature of an even weight,
        # so no solved signature can be skipped for parity
        for target in range(0, 3 * ambient, 2):
            for signature in cone_signatures(ambient, target, 4):
                assert _odd_cofactors(ambient, signature) % 2 == 0
    assert checked > 2000


def test_filters_validate_their_fields():
    for exponent in ((3, 1), (4,), (1, 2, 3)):  # an order below 2, or not an (l, order) pair
        with pytest.raises(ValueError):
            Filters(exponent=exponent)


def test_a_list_exponent_is_the_tuple_exponent():
    as_list, as_tuple = Filters(exponent=[4, 12]), Filters(exponent=(4, 12))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    sets = enumerate_sp(4, as_list)
    assert sets and sets == enumerate_sp(4, as_tuple)
    assert sets == [d for d in enumerate_sp(4) if as_list.accepts(d)]


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
                assignments = _assignments(two_n, [signature], range(two_n), {})
                counts = {len(assignments.get(-2 * a % two_n, ())) for a in units_mod(n)}
                assert len(counts) == 1, (two_n, signature, counts)
                checked += 1
    assert checked > 100  # 105 signatures


def _essential_sp_counts_by_sums(g):
    """Reference: the side-preserving closed form summed per sum t and per residue a."""
    exponents = count = 0
    for c in divisors(2 * g):
        n = 2 * g + c
        sums = {c * s for s in _units(n // c)}
        primes = prime_factors(n)
        ordered = sum(prod([p ** (k - 1) * (p - 1 - (t % p != 0)) for p, k in primes])
                      for t in sums)
        count += (ordered + sum(2 * a % n in sums for a in _units(n))) // 2
        exponents += len(sums)
    return exponents, count


def _essential_se_counts_by_exponent_lists(g):
    """Reference: the side-exchanging count with each order's exponents listed per unit a."""
    exponents = count = 0
    for two_n in range(2 * g + 2, 4 * g + 3, 2):
        n = two_n // 2
        solutions = 0
        for c2 in divisors(two_n):
            c1 = two_n - 2 * g - c2
            if c2 % 2 == 0 or c1 < c2 or two_n % c1:
                continue
            m1, m2 = two_n // c1, two_n // c2
            for k1 in _units(m1):
                remainder = (-2 - c1 * k1) % two_n
                if remainder % c2:
                    continue
                k2 = remainder // c2
                if gcd(k2, m2) == 1 and (m1 != m2 or k1 <= k2):
                    solutions += 1
        if solutions:
            ls = [l for a in _units(n) for l in _se_exponents(a, n)]
            count += solutions * len(ls)
            exponents += len(set(ls))
    return exponents, count


def test_spectra_equals_the_per_unit_forms_up_to_the_cap():
    for g in range(1, enumeration.SPECTRA_MAX_GENUS + 1):
        e_sp, n_sp = _essential_sp_counts_by_sums(g)
        e_se, n_se = _essential_se_counts_by_exponent_lists(g)
        assert spectra(g) == SpectraRow(g + 1, e_sp, e_se, n_sp, n_se), g


def test_se_exponent_counts_match_the_listed_exponents():
    # every order 2n <= 4 * 128 + 2 that spectra reaches
    for n in range(2, 2 * enumeration.SPECTRA_MAX_GENUS + 2):
        ls = [l for a in units_mod(n) for l in _se_exponents(a, n)]
        assert _se_exponent_counts(n) == (len(ls), len(set(ls))), n


def test_spectra_lists_no_side_exchanging_exponent(monkeypatch):
    genera = (1, 2, 4, 19, 40, 127, 128)
    expected = [spectra(g) for g in genera]

    def fail(*args, **kwargs):
        raise AssertionError("spectra listed the exponents of a unit")

    monkeypatch.setattr(enumeration, "_se_exponents", fail)
    assert [spectra(g) for g in genera] == expected


def test_spectra_needs_no_signature_walk(monkeypatch):
    expected = [spectra(g) for g in (1, 4, 19, 40)]

    def fail(*args, **kwargs):
        raise AssertionError("spectra walked the cone signatures")

    for name in ("cone_signatures", "_order_blocks", "Filters"):
        monkeypatch.setattr(enumeration, name, fail)
    assert [spectra(g) for g in (1, 4, 19, 40)] == expected


def test_spectra_stays_healthy_past_the_reference_range():
    # smoke the larger-order search paths the reference table stops short of
    for g in (31, 40):
        row = spectra(g)
        assert row.n_sp > 0 and row.n_se > 0
        assert row.e_sp <= row.n_sp and row.e_se <= row.n_se
