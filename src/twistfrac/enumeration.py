"""Exhaustive enumeration of valid canonical data sets of a given genus.

Two independent engines produce the same sets:

* `enumerate_sp` / `enumerate_se` prune hard: the order loop is capped by
  the proven bounds (n <= 4g side-preserving, 2n <= 4g+2 side-exchanging),
  cone signatures are solved from the genus identity, the exponent l is
  solved from the twist relation, and the final cone twist is solved from
  the residue sum.  Only tuples that are valid by construction are built.

* `enumerate_oracle` prunes nothing it can avoid: it walks every order in
  the same hard range, every admissible quotient genus, every divisor
  multiset within the weight-derived size cap, every unit residue tuple
  and every exponent, keeping whatever validates at the requested genus.
  It is deliberately slow and refuses genus above its bound.

Output contract shared by both: canonical data sets only, no duplicates,
sorted by (order, l, g0, residues, cones).  The pruned engine works one
order at a time: it collects plain tuples that sort like the data sets,
sorts them, and builds the data sets of that order only then.  Orders are
visited ascending, so the chunks concatenate into the sorted listing and
`iter_sp` / `iter_se` can stream it.

`spectra` lists nothing: it counts the essential sets from residue loops
that mirror the pruned engine with one or two cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, product
from math import gcd

from .arith import cone_signatures, divisors, units_mod
from .datasets import (
    ConePair,
    DataSet,
    SeDataSet,
    SpDataSet,
    is_essential,
    se_genus_if_valid,
    sp_genus_if_valid,
)

# The naive engine is quadratic-ish in everything; keep it on a leash.
ORACLE_MAX_GENUS = 8

# Cap for the spectra table; the count above this is still exact, only slower
# (genus 1..128 takes about 1.5 s in all).
SPECTRA_MAX_GENUS = 128


class OracleBoundError(ValueError):
    """Raised when the naive enumerator is asked for a genus above its bound."""


@dataclass(frozen=True)
class Filters:
    """Enumeration filters.

    `exponent` is an unreduced (l, order) pair, where order means n for
    side-preserving sets and 2n for side-exchanging ones.  `accepts` is
    the meaning of the filters; the enumerators prune to the same sets.
    """

    essential_only: bool = False
    exponent: tuple[int, int] | None = None
    g0: int | None = None
    cone_count: int | None = None

    def __post_init__(self):
        if self.exponent is not None and self.exponent[1] < 2:
            raise ValueError(f"exponent order must be >= 2, got {self.exponent[1]}")

    def accepts(self, d: DataSet) -> bool:
        """Whether the data set `d` passes every filter."""
        return ((not self.essential_only or is_essential(d))
                and (self.exponent is None or d.exponent == self.exponent)
                and (self.g0 is None or d.g0 == self.g0)
                and (self.cone_count is None or len(d.cones) == self.cone_count))


@dataclass(frozen=True)
class SpectraRow:
    """Exponent/class counts of essential fractional powers at one genus."""

    genus_plus_one: int
    e_sp: int
    e_se: int
    n_sp: int
    n_se: int


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The units of Z/n, ascending; computed once per modulus."""
    return tuple(sorted(units_mod(n)))


def _runs(signature) -> list[tuple[int, int]]:
    """Split an ascending cone signature into (order, count) runs of equal order."""
    return [(order, len(list(group))) for order, group in groupby(signature)]


def _se_exponents(a: int, n: int) -> tuple[int, ...]:
    """The exponents l in [2, 2n-1] of a side-exchanging set with residue a.

    The twist relation 2 = l*a (mod n) fixes l mod n.
    """
    base = 2 * pow(a, -1, n) % n
    return tuple(l for l in (base, base + n) if 2 <= l <= 2 * n - 1)


def _k_assignments(ambient: int, signature, residual: int):
    """Canonical twist assignments for the cones of one signature.

    Yields ascending tuples of (order, twist) pairs, so a tuple is its own
    sort key; each twist is a unit in its order, and

        sum (ambient/order) * twist = residual  (mod ambient).

    All cones but the last are enumerated (non-decreasing within runs of
    equal order); the last twist is solved from the congruence, which
    pins each canonical assignment exactly once.
    """
    if not signature:
        if residual % ambient == 0:
            yield ()
        return

    runs = _runs(signature)
    last_order, last_count = runs[-1]
    prefix_runs = runs[:-1]
    if last_count > 1:
        prefix_runs.append((last_order, last_count - 1))

    prefix_choices = [
        combinations_with_replacement(_units(order), count)
        for order, count in prefix_runs
    ]
    cofactor = ambient // last_order

    for combo in product(*prefix_choices):
        partial_sum = 0
        flat: list[tuple[int, int]] = []
        for (order, _), twists in zip(prefix_runs, combo):
            step = ambient // order
            for k in twists:
                partial_sum += step * k
                flat.append((order, k))
        remainder = (residual - partial_sum) % ambient
        if remainder % cofactor:
            continue
        k_last = remainder // cofactor
        if gcd(k_last, last_order) != 1:
            continue
        if last_count > 1 and k_last < flat[-1][1]:
            continue
        yield tuple(flat) + ((last_order, k_last),)


def _sp_order_rows(g: int, f: Filters, n: int) -> list[tuple]:
    """Rows (l, g0, a, b, cones) of the side-preserving sets of genus g, order n.

    `cones` is the (order, twist) tuple from `_k_assignments`, so the rows
    sort like `SpDataSet.sort_key` within the order; they are returned
    sorted.
    """
    rows: list[tuple] = []
    if f.exponent is not None and f.exponent[1] != n:
        return rows
    units = _units(n)
    inverse = {u: pow(u, -1, n) for u in units}
    for g0 in range(g // n + 1):
        if f.g0 is not None and g0 != f.g0:
            continue
        if f.essential_only and g0 > 0:
            break
        target = 2 * (g - g0 * n)
        if target <= 0:
            continue  # a valid set has at least one cone
        max_count = 1 if f.essential_only else f.cone_count
        # target > 0, so every signature has 1..max_count cones
        for sig in cone_signatures(n, target, max_count):
            if f.cone_count is not None and len(sig) != f.cone_count:
                continue
            # many pairs (a, b) share a residual -(a+b): solve each once
            assignments: dict[int, list] = {}
            for i, a in enumerate(units):
                for b in units[i:]:
                    # twist relation a+b = l*a*b fixes the exponent
                    l = (a + b) * inverse[a] * inverse[b] % n
                    if l == 0:
                        continue
                    if f.exponent is not None and l != f.exponent[0]:
                        continue
                    residual = (-(a + b)) % n
                    cones_list = assignments.get(residual)
                    if cones_list is None:
                        cones_list = assignments[residual] = list(
                            _k_assignments(n, sig, residual))
                    for cones in cones_list:
                        rows.append((l, g0, a, b, cones))
    rows.sort()
    return rows


def _se_order_rows(g: int, f: Filters, two_n: int) -> list[tuple]:
    """Rows (l, g0, a, cones) of the side-exchanging sets of genus g, order 2n.

    As `_sp_order_rows`: sorted like `SeDataSet.sort_key` within the order.
    """
    rows: list[tuple] = []
    if f.exponent is not None and f.exponent[1] != two_n:
        return rows
    n = two_n // 2
    units_n = _units(n)
    for g0 in range((g + n) // (2 * n) + 1):
        if f.g0 is not None and g0 != f.g0:
            continue
        if f.essential_only and g0 > 0:
            break
        target = 2 * (g + n) - 4 * g0 * n  # = sum (2n/m)(m-1)
        if target <= 0:
            continue
        max_count = 2 if f.essential_only else f.cone_count
        for sig in cone_signatures(two_n, target, max_count):
            if f.essential_only and len(sig) != 2:
                continue
            if f.cone_count is not None and len(sig) != f.cone_count:
                continue
            if g0 == 0 and all((two_n // m) % 2 == 0 for m in sig):
                # Every residue the tuple records lies in the index-two
                # subgroup: nothing generates, no assignment can be valid.
                continue
            for a in units_n:
                exponents = [l for l in _se_exponents(a, n)
                             if f.exponent is None or l == f.exponent[0]]
                if not exponents:
                    continue
                residual = (-2 * a) % two_n
                for cones in _k_assignments(two_n, sig, residual):
                    for l in exponents:
                        rows.append((l, g0, a, cones))
    rows.sort()
    return rows


def _cone_pairs(cache: dict, cones) -> tuple[ConePair, ...]:
    """The ConePair tuple of (order, twist) pairs, shared by equal `cones`."""
    pairs = cache.get(cones)
    if pairs is None:
        pairs = cache[cones] = tuple([ConePair(k, m) for m, k in cones])
    return pairs


def _sp_sets(n: int, rows: list[tuple]) -> list[SpDataSet]:
    """The data sets of sorted `_sp_order_rows` rows, freeing rows as it goes."""
    cache: dict = {}
    rows.reverse()
    out = []
    while rows:
        l, g0, a, b, cones = rows.pop()
        out.append(SpDataSet(l, n, g0, a, b, _cone_pairs(cache, cones)))
    return out


def _se_sets(two_n: int, rows: list[tuple]) -> list[SeDataSet]:
    """The data sets of sorted `_se_order_rows` rows, freeing rows as it goes."""
    cache: dict = {}
    rows.reverse()
    out = []
    while rows:
        l, g0, a, cones = rows.pop()
        out.append(SeDataSet(l, two_n, g0, a, _cone_pairs(cache, cones)))
    return out


def _checked_filters(g: int, filters: Filters | None) -> Filters:
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    return filters if filters is not None else Filters()


def iter_sp(g: int, filters: Filters | None = None):
    """`enumerate_sp` one order at a time: an iterator of sorted lists."""
    f = _checked_filters(g, filters)
    return (_sp_sets(n, _sp_order_rows(g, f, n)) for n in range(2, 4 * g + 1))


def iter_se(g: int, filters: Filters | None = None):
    """`enumerate_se` one order at a time: an iterator of sorted lists."""
    f = _checked_filters(g, filters)
    return (_se_sets(two_n, _se_order_rows(g, f, two_n))
            for two_n in range(4, 4 * g + 3, 2))


def enumerate_sp(g: int, filters: Filters | None = None) -> list[SpDataSet]:
    """All valid canonical side-preserving data sets of genus g, sorted."""
    return list(chain.from_iterable(iter_sp(g, filters)))


def enumerate_se(g: int, filters: Filters | None = None) -> list[SeDataSet]:
    """All valid canonical side-exchanging data sets of genus g, sorted."""
    return list(chain.from_iterable(iter_se(g, filters)))


def _oracle_sp(g: int) -> list[SpDataSet]:
    out = []
    for n in range(2, 4 * g + 1):
        units = _units(n)
        pair_choices = [(a, b) for i, a in enumerate(units) for b in units[i:]]
        parts = [m for m in divisors(n) if m > 1]
        size_cap = (2 * g) // max(1, n // 2)  # every cone weighs >= n/2 >= 1
        for g0 in range(g // n + 1):
            for size in range(size_cap + 1):
                for sig in combinations_with_replacement(parts, size):
                    for cones in _oracle_twists(sig):
                        for l in range(1, n):
                            for a, b in pair_choices:
                                if sp_genus_if_valid(l, n, g0, a, b, cones) == g:
                                    out.append(SpDataSet(
                                        l, n, g0, a, b,
                                        tuple(ConePair(k, m) for k, m in cones)))
    return out


def _oracle_se(g: int) -> list[SeDataSet]:
    out = []
    for two_n in range(4, 4 * g + 3, 2):
        n = two_n // 2
        units_n = _units(n)
        parts = [m for m in divisors(two_n) if m > 1]
        size_cap = (2 * (g + n)) // max(1, n)  # every cone weighs >= n/2
        for g0 in range((g + n) // (2 * n) + 1):
            for size in range(size_cap + 1):
                for sig in combinations_with_replacement(parts, size):
                    for cones in _oracle_twists(sig):
                        for l in range(2, two_n):
                            for a in units_n:
                                if se_genus_if_valid(l, two_n, g0, a, cones) == g:
                                    out.append(SeDataSet(
                                        l, two_n, g0, a,
                                        tuple(ConePair(k, m) for k, m in cones)))
    return out


def _oracle_twists(signature):
    """Every canonical unit-twist assignment for a signature, unfiltered."""
    runs = _runs(signature)
    run_choices = [
        combinations_with_replacement(_units(order), count)
        for order, count in runs
    ]
    for combo in product(*run_choices):
        flat: list[tuple[int, int]] = []
        for (order, _), twists in zip(runs, combo):
            flat.extend((k, order) for k in twists)
        yield tuple(flat)


def enumerate_oracle(g: int, kind: str,
                     max_genus: int = ORACLE_MAX_GENUS) -> list:
    """Naive re-enumeration for cross-checking; refuses large genus."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if g > max_genus:
        raise OracleBoundError(
            f"oracle enumeration is bounded to genus <= {max_genus}, got {g}")
    if kind == "sp":
        out = _oracle_sp(g)
        out.sort(key=SpDataSet.sort_key)
    elif kind == "se":
        out = _oracle_se(g)
        out.sort(key=SeDataSet.sort_key)
    else:
        raise ValueError(f"kind must be 'sp' or 'se', got {kind!r}")
    return out


def _essential_sp_counts(g: int) -> tuple[int, int]:
    """(exponents, sets) of the essential side-preserving sets of genus g.

    Essential means g0 = 0 and one cone m of weight (n/m)(m-1) = 2g, that
    is n - c = 2g with c = n/m: the cone exists iff c = n - 2g >= 1
    divides n, and m = n/c >= 2 holds for every n <= 4g.  The cone twist
    solves ck = r with r = -(a+b) mod n, so it exists iff c divides r,
    i.e. b = -a (mod c), and is then k = r/c, a unit iff gcd(r/c, m) = 1.
    """
    exponents = set()
    count = 0
    for n in range(2 * g + 1, 4 * g + 1):
        c = n - 2 * g
        if n % c == 0:
            m = n // c
            inverse = {u: pow(u, -1, n) for u in _units(n)}
            for a, a_inv in inverse.items():
                for b in range(a + (-2 * a) % c, n, c):
                    b_inv = inverse.get(b)
                    # l = 0 would mean b = -a, so r = 0 and k = 0 fails here
                    if b_inv is not None and gcd((-(a + b)) % n // c, m) == 1:
                        count += 1
                        exponents.add(((a_inv + b_inv) % n, n))
    return len(exponents), count


def _essential_se_counts(g: int) -> tuple[int, int]:
    """(exponents, sets) of the essential side-exchanging sets of genus g.

    Essential means g0 = 0 and two cones m1 <= m2.  For each unit a mod n
    the twist k1 runs over the units mod m1 and k2 is solved from
    (2n/m1)k1 + (2n/m2)k2 = -2a (mod 2n); each admissible exponent l
    makes one set per solution.
    """
    exponents = set()
    count = 0
    for two_n in range(4, 4 * g + 3, 2):
        n = two_n // 2
        for sig in cone_signatures(two_n, 2 * (g + n), 2):
            if len(sig) != 2 or all((two_n // m) % 2 == 0 for m in sig):
                continue  # see the generation prune in _se_order_rows
            m1, m2 = sig
            c1, c2 = two_n // m1, two_n // m2
            for a in _units(n):
                residual = (-2 * a) % two_n
                solutions = 0
                for k1 in _units(m1):
                    remainder = (residual - c1 * k1) % two_n
                    if remainder % c2:
                        continue
                    k2 = remainder // c2
                    if gcd(k2, m2) == 1 and (m1 != m2 or k1 <= k2):
                        solutions += 1
                if solutions:
                    ls = _se_exponents(a, n)
                    count += solutions * len(ls)
                    exponents.update((l, two_n) for l in ls)
    return len(exponents), count


def spectra(g: int) -> SpectraRow:
    """Exponent and class counts of the essential data sets of genus g.

    The counts come from residue loops, not from listing the sets.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    e_sp, n_sp = _essential_sp_counts(g)
    e_se, n_se = _essential_se_counts(g)
    return SpectraRow(genus_plus_one=g + 1, e_sp=e_sp, e_se=e_se,
                      n_sp=n_sp, n_se=n_se)
