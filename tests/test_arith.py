from itertools import combinations_with_replacement
from math import inf

import pytest

from twistfrac import NotInvertibleError, cone_signatures, divisors, mod_inverse, units_mod
from twistfrac.arith import _cone_parts, cone_weight, prime_factors


def test_divisors_basics():
    assert divisors(1) == [1]
    assert divisors(9) == [1, 3, 9]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-4)


def test_units_mod_basics():
    assert units_mod(9) == {1, 2, 4, 5, 7, 8}
    assert units_mod(2) == {1}
    assert units_mod(10) == {1, 3, 7, 9}


def test_units_mod_rejects_small_modulus():
    with pytest.raises(ValueError):
        units_mod(1)
    with pytest.raises(ValueError):
        units_mod(0)


def _phi_by_factorization(n: int) -> int:
    # independent Euler phi: trial-divide and apply the product formula
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            result -= result // p
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


@pytest.mark.parametrize("n", list(range(2, 200)))
def test_units_mod_has_phi_elements(n):
    assert len(units_mod(n)) == _phi_by_factorization(n)


def _prime_factors_by_trial_division(n):
    """Independent reference: divide out 2, 3, 4, ... up to the square root."""
    counts = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return sorted(counts.items())


def test_prime_factors_match_trial_division():
    for n in range(1, 2000):
        assert prime_factors(n) == _prime_factors_by_trial_division(n), n
    assert prime_factors(2 ** 10 * 3 ** 4 * 97) == [(2, 10), (3, 4), (97, 1)]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_mod_inverse_basics():
    assert mod_inverse(2, 9) == 5
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(1, 2) == 1
    with pytest.raises(NotInvertibleError):
        mod_inverse(4, 10)


def test_mod_inverse_refuses_a_modulus_below_2():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="needs modulus >= 2"):
            mod_inverse(0, n)


def test_mod_inverse_everywhere():
    for n in range(2, 60):
        for a in units_mod(n):
            inv = mod_inverse(a, n)
            assert 1 <= inv <= n - 1
            assert a * inv % n == 1


def test_cone_signatures_examples():
    assert cone_signatures(9, 8) == {(9,)}
    assert cone_signatures(16, 8) == {(2,)}
    for order in (2, 7, 12, 30):
        assert cone_signatures(order, 0) == {()}


def test_cone_signatures_max_count():
    # order 6: weights are 3 (m=2), 4 (m=3), 5 (m=6)
    assert cone_signatures(6, 6) == {(2, 2)}
    assert cone_signatures(6, 6, max_count=1) == set()
    assert cone_signatures(6, 7) == {(2, 3)}
    assert cone_signatures(6, 7, max_count=2) == {(2, 3)}


def test_cone_signatures_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cone_signatures(1, 4)
    with pytest.raises(ValueError):
        cone_signatures(6, -1)


def _signatures_by_bucketing(order: int, max_target: int) -> dict[int, set]:
    """Independent oracle: generate every multiset once, bucket by weight."""
    parts = [m for m in divisors(order) if m > 1]
    min_weight = min(cone_weight(order, m) for m in parts)
    buckets: dict[int, set] = {t: set() for t in range(max_target + 1)}
    size = 0
    while size * min_weight <= max_target:
        for combo in combinations_with_replacement(parts, size):
            weight = sum(cone_weight(order, m) for m in combo)
            if weight <= max_target:
                buckets[weight].add(combo)
        size += 1
    return buckets


@pytest.mark.parametrize("order", list(range(2, 41)))
def test_cone_signatures_match_brute_force(order):
    buckets = _signatures_by_bucketing(order, 80)
    for target in range(0, 81):
        assert cone_signatures(order, target) == buckets[target], (order, target)


def test_cone_signatures_structural_invariants():
    for order in (6, 12, 18, 28):
        for target in range(0, 41):
            for sig in cone_signatures(order, target):
                assert list(sig) == sorted(sig)
                assert all(m > 1 and order % m == 0 for m in sig)
                assert sum(cone_weight(order, m) for m in sig) == target


@pytest.mark.parametrize("order", (60, 84, 100, 116, 120))
def test_cone_signatures_match_brute_force_at_large_orders(order):
    # the spectra search reaches orders past the small grid; spot-check
    buckets = _signatures_by_bucketing(order, 2 * order)
    for target in range(0, 2 * order + 1):
        assert cone_signatures(order, target) == buckets[target], (order, target)


def test_cone_signatures_of_at_most_two_cones_at_every_spectra_order():
    # spectra solves two-cone signatures at every even order 2n <= 4*128 + 2
    for order in range(2, 4 * 128 + 3, 2):
        parts = [m for m in divisors(order) if m > 1]
        by_target = {0: {()}}
        for sig in [(m,) for m in parts] + list(combinations_with_replacement(parts, 2)):
            by_target.setdefault(sum(cone_weight(order, m) for m in sig), set()).add(sig)
        for target in range(0, 2 * order + 3):
            assert cone_signatures(order, target, 2) == by_target.get(target, set()), (
                order, target)


@pytest.mark.parametrize("order", range(2, 61))
def test_cone_signatures_cap_filters_uncapped(order):
    for target in range(0, 2 * order + 1):
        uncapped = cone_signatures(order, target)
        for max_count in range(4):
            assert cone_signatures(order, target, max_count) == {
                s for s in uncapped if len(s) <= max_count}


def test_cone_parts_table():
    for order in range(2, 201):
        parts = _cone_parts(order)
        assert [m for m, *_ in parts] == [m for m in divisors(order) if m > 1]
        weights = [weight for _, _, weight, _, _ in parts]
        assert weights == [(order // m) * (m - 1) for m, *_ in parts]
        assert all(first < second for first, second in zip(weights, weights[1:]))
        for (m, cofactor, _, odd, following), later in zip(parts, weights[1:] + [inf]):
            assert cofactor == order // m and following == later
            assert odd is (cofactor % 2 == 1)
