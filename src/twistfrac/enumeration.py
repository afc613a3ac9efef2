"""Exhaustive enumeration of valid canonical data sets of a given genus.

Two independent engines produce the same sets:

* `enumerate_sp` / `enumerate_se` prune hard: orders are capped by the
  proven bounds (n <= 4g side-preserving, 2n <= 4g+2 side-exchanging),
  one filtered signature walk (`_signatures`) solves the cone signatures
  from the genus identity, l is solved from the twist relation, and the
  twist assignments of all the signatures of one (order, g0) are listed
  once into one residue table (`_assignments`), so condition (iv) is a
  lookup.  Only valid tuples are built.

* `enumerate_oracle` walks every order N in the same hard range, every
  admissible quotient genus and every divisor multiset within the
  weight-derived size cap.  One walk serves both kinds, bounded by
  2g + extra = 2 g0 N + sum (N/m)(m-1): the extra weight is N for a
  side-exchanging set, whose two capped points make one orbit, and 0 for
  a side-preserving one.  It reads the genus of each such signature
  from the validity kernel and skips the signature unless it is the
  requested genus; the skip is exact, because the genus depends on the
  order, g0 and the cone orders alone.  Only then does it walk every
  unit twist tuple and residue.  For each it reads the flags that do not
  read l (all but the twist relation and the range of l) from one kernel
  call and skips every exponent unless they hold; this skip is exact for
  the same reason.  Every exponent left goes through the validator, and
  the oracle keeps whatever it accepts.  It shares no solver with the
  pruned engine and refuses genus above its bound.

Output contract shared by both: canonical data sets only, no duplicates,
sorted by (order, l, g0, residues, cones).  The pruned engine works one
order at a time, in blocks: a block is a head, a set's sort key without
its cones, (n, l, g0, a, b) or (2n, l, g0, a), and the ascending list of
the cones tuples that complete it.  The heads of one (order, g0) with one
residual share one list object, so an order builds one tuple per head,
not per set, and sorts its heads alone (they are unique).  Orders are
visited ascending, so `sp_blocks` / `se_blocks` stream the sorted
listing, one block list per order, without building a data set; only
`enumerate_sp` / `enumerate_se` build them.

`spectra` lists nothing: it reads the essential signatures off cofactor
divisors and counts their sets without the signature walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, product
from math import gcd, prod
from operator import itemgetter

from .arith import cone_signatures, divisors, prime_factors, units_mod
from .datasets import (
    ConePair,
    DataSet,
    SeDataSet,
    SpDataSet,
    ValidationReport,
    _check_genus,
    _se_report,
    _sp_report,
    is_essential,
    se_genus_if_valid,
    sp_genus_if_valid,
)

# The naive engine is quadratic-ish in everything; keep it on a leash
# (genus 24 takes about 3 s, side-preserving).
ORACLE_MAX_GENUS = 24

# Cap for the spectra table; the count above this is still exact, only slower
# (genus 1..128 takes about 0.1 s in process).
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


def _odd_cofactors(ambient: int, signature) -> int:
    """How many cone orders m of the signature have odd cofactor ambient/m.

    A side-exchanging set with g0 = 0 generates only if this is nonzero.
    At even `ambient` each such m is even and its unit twist odd, so every
    assignment's residue sum has the parity of this count.  That prunes
    nothing: the cone weight sum (ambient/m)(m-1) has the same parity, and
    every solved signature's weight is even, as is every residual read.
    """
    return sum((ambient // m) % 2 for m in signature)


def _assignments(ambient: int, signatures: list) -> dict[int, list[tuple]]:
    """Canonical twist assignments for the cones of the signatures, by residual.

    Maps each residual r to the ascending tuples of (order, twist) pairs,
    so a tuple is its own sort key; each tuple is a signature's orders with
    a unit twist each, twists non-decreasing within runs of equal order, and

        sum (ambient/order) * twist = r  (mod ambient).

    One pass per signature lists every canonical assignment once and files
    it under its residual, so every residue pair with the same residual
    shares the work.  One signature files its tuples ascending; the tuples
    of several interleave (they differ, as their signatures do), so then
    each list is sorted.
    """
    by_residual: dict[int, list[tuple]] = {}
    for signature in signatures:
        partial = [(0, ())]  # (residue sum, cones) of the runs so far, ascending
        for order, count in _runs(signature):
            step = ambient // order
            choices = [(step * sum(twists), tuple([(order, k) for k in twists]))
                       for twists in combinations_with_replacement(_units(order), count)]
            partial = [(total + more, cones + run)
                       for total, cones in partial for more, run in choices]
        for total, cones in partial:
            by_residual.setdefault(total % ambient, []).append(cones)
    if len(signatures) > 1:
        for cones in by_residual.values():
            cones.sort()
    return by_residual


def _signatures(f: Filters, order: int, targets: range, essential_cones: int):
    """The (g0, signature) pairs of one order that the filters `f` keep.

    `targets[g0]` is the cone weight sum (order/m)(m-1) the genus asks of
    quotient genus g0; valid sets have cones, so a target <= 0 yields none.
    Essential sets have g0 = 0 and exactly `essential_cones` cones.
    """
    if f.exponent is not None and f.exponent[1] != order:
        return
    count = essential_cones if f.essential_only else f.cone_count
    if f.cone_count not in (None, count):
        return  # essential sets have another cone count
    for g0, target in enumerate(targets[:1] if f.essential_only else targets):
        if target <= 0 or (f.g0 is not None and g0 != f.g0):
            continue
        for sig in cone_signatures(order, target, count):
            if count is None or len(sig) == count:
                yield g0, sig


def _sp_order_blocks(g: int, f: Filters, n: int) -> list[tuple]:
    """Sorted blocks ((n, l, g0, a, b), cones) of the SP sets of genus g and order n.

    `cones` lists the ascending (order, twist) tuples of `_assignments`
    that complete the head, so head + (c,) is a set's `SpDataSet.sort_key()`
    for each c in it.  Every pair (a, b) reads the list of its residual
    -(a+b) at its g0, which all heads with that residual share.
    """
    blocks: list[tuple] = []
    units, inverse = _units(n), {}
    targets = range(2 * g, -1, -2 * n)  # 2(g - g0 n), g0 = 0, 1, ...
    for g0, signatures in groupby(_signatures(f, n, targets, 1), key=itemgetter(0)):
        # built at the first signature: an order the filters exclude needs none
        inverse = inverse or {u: pow(u, -1, n) for u in units}
        by_residual = _assignments(n, [sig for _, sig in signatures])
        for i, a in enumerate(units):
            for b in units[i:]:
                # twist relation a+b = l*a*b fixes the exponent
                l = (a + b) * inverse[a] * inverse[b] % n
                if l == 0 or (f.exponent is not None and l != f.exponent[0]):
                    continue
                cones = by_residual.get((-(a + b)) % n)
                if cones:
                    blocks.append(((n, l, g0, a, b), cones))
    blocks.sort(key=itemgetter(0))
    return blocks


def _se_order_blocks(g: int, f: Filters, two_n: int) -> list[tuple]:
    """Sorted blocks ((two_n, l, g0, a), cones) of the SE sets of genus g and order 2n.

    As `_sp_order_blocks`: every a reads the list of its residual -2a, one
    block per exponent l.
    """
    blocks: list[tuple] = []
    n = two_n // 2
    targets = range(2 * g + two_n, -1, -2 * two_n)  # 2(g + n) - 4 g0 n, g0 = 0, 1, ...
    for g0, signatures in groupby(_signatures(f, two_n, targets, 2), key=itemgetter(0)):
        # over a sphere, sets generate only through an odd cofactor
        by_residual = _assignments(two_n, [sig for _, sig in signatures
                                           if g0 or _odd_cofactors(two_n, sig)])
        for a in _units(n):
            cones = by_residual.get((-2 * a) % two_n)
            if cones:
                blocks.extend([((two_n, l, g0, a), cones) for l in _se_exponents(a, n)
                               if f.exponent is None or l == f.exponent[0]])
    blocks.sort(key=itemgetter(0))
    return blocks


def _sets(cls, blocks: list[tuple]) -> list:
    """The `cls` data sets of one order's sorted blocks."""
    pairs_of: dict = {}  # id of a shared cones list -> its ConePair tuples
    out = []
    for (order, l, *residues), cones in blocks:
        pairs = pairs_of.get(id(cones))
        if pairs is None:
            pairs = pairs_of[id(cones)] = [tuple([ConePair(k, m) for m, k in c])
                                           for c in cones]
        out.extend([cls(l, order, *residues, p) for p in pairs])
    return out


def sp_blocks(g: int, filters: Filters | None = None):
    """The blocks of `enumerate_sp`'s sets, one sorted list per order, lazily."""
    _check_genus(g)
    f = filters or Filters()
    return (_sp_order_blocks(g, f, n) for n in range(2, 4 * g + 1))


def se_blocks(g: int, filters: Filters | None = None):
    """The blocks of `enumerate_se`'s sets, one sorted list per order, lazily."""
    _check_genus(g)
    f = filters or Filters()
    return (_se_order_blocks(g, f, two_n) for two_n in range(4, 4 * g + 3, 2))


def enumerate_sp(g: int, filters: Filters | None = None) -> list[SpDataSet]:
    """All valid canonical side-preserving data sets of genus g, sorted."""
    return list(chain.from_iterable(
        _sets(SpDataSet, blocks) for blocks in sp_blocks(g, filters)))


def enumerate_se(g: int, filters: Filters | None = None) -> list[SeDataSet]:
    """All valid canonical side-exchanging data sets of genus g, sorted."""
    return list(chain.from_iterable(
        _sets(SeDataSet, blocks) for blocks in se_blocks(g, filters)))


def _l_free_flags_hold(report: ValidationReport) -> bool:
    """Whether every flag of `report` that does not read the exponent l holds.

    Only the twist relation and the range of l read l, so one kernel call
    at any l settles these flags for every l.
    """
    return (report.structure and report.residues and report.cone_sum
            and report.genus_integral and report.genus_positive and report.generating)


def _oracle(g: int, kind: str) -> list:
    """`enumerate_oracle`'s sets, unsorted; it reads its kernels by name at each call."""
    if kind == "sp":  # residues (a, b), a <= b, mod n; exponents from 1
        cls, report, genus_if_valid, l_min = SpDataSet, _sp_report, sp_genus_if_valid, 1
        orders, width, fold, extra = range(2, 4 * g + 1), 2, 1, 0
    else:  # residue a mod n at order 2n; exponents from 2
        cls, report, genus_if_valid, l_min = SeDataSet, _se_report, se_genus_if_valid, 2
        orders, width, fold, extra = range(4, 4 * g + 3, 2), 1, 2, 1
    out = []
    for order in orders:
        choices = list(combinations_with_replacement(_units(order // fold), width))
        parts = [m for m in divisors(order) if m > 1]
        weight_cap = 2 * g + extra * order  # = 2 g0 N + sum (N/m)(m-1) at N = order
        for g0 in range(weight_cap // (2 * order) + 1):
            # every cone weighs (order/m)(m-1) >= order/2 >= 1
            for size in range(weight_cap // (order // 2) + 1):
                for sig in combinations_with_replacement(parts, size):
                    # the genus reads only the order, g0 and the cone orders
                    if report(l_min, order, g0, *choices[0], [(1, m) for m in sig]).genus != g:
                        continue
                    for cones in _oracle_twists(sig):
                        for residues in choices:
                            if not _l_free_flags_hold(report(l_min, order, g0, *residues, cones)):
                                continue
                            for l in range(l_min, order):
                                if genus_if_valid(l, order, g0, *residues, cones) == g:
                                    out.append(cls(l, order, g0, *residues, cones))
    return out


def _oracle_twists(signature):
    """Every canonical unit-twist assignment for a signature, unfiltered."""
    runs = _runs(signature)
    run_choices = [
        combinations_with_replacement(_units(order), count)
        for order, count in runs
    ]
    for combo in product(*run_choices):
        flat: list[ConePair] = []
        for (order, _), twists in zip(runs, combo):
            flat.extend(ConePair(k, order) for k in twists)
        yield tuple(flat)


def enumerate_oracle(g: int, kind: str,
                     max_genus: int = ORACLE_MAX_GENUS) -> list:
    """Naive re-enumeration for cross-checking; refuses large genus."""
    _check_genus(g)
    if g > max_genus:
        raise OracleBoundError(
            f"oracle enumeration is bounded to genus <= {max_genus}, got {g}")
    if kind not in ("sp", "se"):
        raise ValueError(f"kind must be 'sp' or 'se', got {kind!r}")
    return sorted(_oracle(g, kind), key=lambda d: d.sort_key())


def _essential_sp_counts(g: int) -> tuple[int, int]:
    """(exponents, sets) of the essential side-preserving sets of genus g.

    Essential means g0 = 0 and one cone m of weight (n/m)(m-1) = 2g, that
    is n - c = 2g with c = n/m: the cone exists iff c divides n = 2g + c,
    that is iff c divides 2g, and then m = n/c >= 2.  The cone twist
    k solves ck = -(a+b) mod n, so the sets are the unordered unit pairs
    with a + b in c*U(m).  The ordered ones with a + b = t number
    prod_{p^k || n} p^(k-1) (p - 1 - [p does not divide t]) (Harvey 1966);
    adding the pairs a = b and halving counts the unordered ones.  The
    exponents 1/a + 1/b = (a+b)/(ab) fill c*U(m): c has the parity of n,
    so no t is odd at even n, the one case where the formula vanishes.
    """
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


def _essential_se_counts(g: int) -> tuple[int, int]:
    """(exponents, sets) of the essential side-exchanging sets of genus g.

    Essential means g0 = 0 and two cones m1 <= m2 of weight 2n - c_i,
    c_i = 2n/m_i, so c1 + c2 = 2n - 2g with c2 <= c1 dividing 2n (then
    c1 < 2n, so m1 >= 2); both have one parity, and the sets generate iff
    both are odd.  The twists solve c1 k1 + c2 k2 = -2a (mod 2n) for a unit a
    mod n; a unit u = a (mod n) of Z/2n scales the canonical solutions for
    -2 one-to-one onto them, so each signature is solved once, and each
    exponent l of each a makes one set per solution.
    """
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


def spectra(g: int) -> SpectraRow:
    """Exponent and class counts of the essential data sets of genus g.

    The counts come from cofactor divisors, not from listing sets.
    """
    _check_genus(g)
    e_sp, n_sp = _essential_sp_counts(g)
    e_se, n_se = _essential_se_counts(g)
    return SpectraRow(genus_plus_one=g + 1, e_sp=e_sp, e_se=e_se,
                      n_sp=n_sp, n_se=n_se)
