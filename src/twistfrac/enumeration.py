"""Exhaustive enumeration of valid canonical data sets of a given genus.

Two independent engines produce the same sets:

* `enumerate_sp` / `enumerate_se` prune hard: orders are capped by the
  proven bounds (n <= 4g side-preserving, 2n <= 4g+2 side-exchanging,
  `_orders`, which also checks the arguments).  Each order is one join
  in `_order_blocks`: the cone signatures of each quotient genus g0 come
  from the genus identity, one filtered `cone_signatures` call per g0
  target (`_targets`), and `_heads` solves l from the twist relation once
  per order and gives each head the residual its cones must sum to; no
  head reads g0.  At each g0 the twist assignments of all its signatures
  are listed once into one residue table (`_assignments`), only at the
  residuals some head reads, so condition (iv) is a lookup.  Only valid
  tuples are built.  Each order keeps one table of runs while it is
  listed (`_run_choices`): one (m, k) pair per unit twist k of each cone
  order m, and the (residue sum, cones) choices of each run of `count`
  cones of order m, built once per (m, count) from those pairs.  Every
  signature of the order reads its runs there, so every cones tuple of
  the order points to the shared pairs; the table is dropped when the
  order ends.

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
residual share one list object, so an order builds one tuple per head
that gets cones, not per set, and sorts its heads alone (they are
unique).  Orders are visited ascending, so `blocks` streams the sorted
listing of either kind, one block list per order, without building a
data set; only `block_sets` builds them, for `enumerate_sp` /
`enumerate_se`, with one ConePair per (order, twist) pair.

`class_counts` folds the same heads over counts, from a walk that builds
no signature: `_cone_counts` counts each g0's assignments by cone count,
residual and odd cofactor in one memoised recursion per order, dropped
when the order ends.  It walks the part table `arith._cone_parts` run by
run, as `cone_signatures` does.  So it gives the sets of each
(order, l, g0, cone count) class without building one; `laws.audit`
reads it.  `spectra` lists nothing either: it reads the essential
signatures off cofactor divisors and counts their sets without the
signature walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import gcd, prod
from operator import itemgetter

from .arith import _cone_parts, cone_signatures, divisors, prime_factors, units_mod
from .datasets import (
    ConePair,
    DataSet,
    SeDataSet,
    SpDataSet,
    ValidationReport,
    _check_genus,
    _essential,
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


def _run_choices(ambient: int, order: int, count: int, table: dict) -> list[tuple]:
    """(residue sum, cones) of each canonical twist run of `count` cones of one order.

    `table` belongs to one ambient order, and this fills it: under `order`
    it keeps one (order, twist) pair per unit twist, and under (order,
    count) the run's choices, so each is built once per ambient order and
    every cones tuple made from them points to the same pairs.  The twists
    are `combinations_with_replacement` of the units, so they do not
    decrease and the cones tuples come ascending.
    """
    choices = table.get((order, count))
    if choices is None:
        units = _units(order)
        pairs = table.get(order) or table.setdefault(order, [(order, k) for k in units])
        step = ambient // order
        choices = table[order, count] = [
            (step * sum(twists), run) for twists, run in zip(
                combinations_with_replacement(units, count),
                combinations_with_replacement(pairs, count))]
    return choices


def _assignments(ambient: int, signatures: list, residuals, table: dict) -> dict[int, list[tuple]]:
    """Canonical twist assignments for the cones of the signatures, by residual.

    Maps each residual r in `residuals` that some assignment reaches to the
    ascending tuples of (order, twist) pairs, so a tuple is its own sort
    key; each tuple is a signature's orders with a unit twist each, twists
    non-decreasing within runs of equal order, and

        sum (ambient/order) * twist = r  (mod ambient).

    The runs come from `table`, the ambient order's table of
    `_run_choices`, so signatures that share a run share its choices, and
    every tuple listed holds the table's pairs.  One pass per signature
    lists each canonical assignment once and files it under its residual,
    so every residue pair with the same residual shares the work.  The last
    run's choices are grouped by residue, so a prefix is completed only by
    the runs that reach a residual asked for, and no residual gets an empty
    list.  One signature files its tuples ascending; the tuples of several
    interleave (they differ, as their signatures do), so then each list is
    sorted.
    """
    by_residual: dict[int, list[tuple]] = {}
    for signature in signatures:
        *runs, last = ([_run_choices(ambient, order, count, table)
                        for order, count in _runs(signature)] or [[(0, ())]])
        partial = [(0, ())]  # (residue sum, cones) of the runs so far, ascending
        for choices in runs:
            partial = [(total + more, cones + run)
                       for total, cones in partial for more, run in choices]
        ends: dict[int, list[tuple]] = {}  # the last run's choices by residue, ascending
        for more, run in last:
            ends.setdefault(more % ambient, []).append(run)
        for total, cones in partial:
            for more, runs_of_more in ends.items():
                residual = (total + more) % ambient
                if residual in residuals:
                    by_residual.setdefault(residual, []).extend(
                        [cones + run for run in runs_of_more])
    if len(signatures) > 1:
        for cones in by_residual.values():
            cones.sort()
    return by_residual


@lru_cache(maxsize=None)
def _run_counts(order: int, count: int) -> dict[int, int]:
    """How many canonical twist runs of `count` cones of one order have each twist sum mod order.

    A canonical run is a multiset of units.  Adding the units one at a
    time, ways[j][s] counts the multisets of j of the units so far with
    sum s (mod order); a unit u adds ways[j - 1] shifted by u to ways[j],
    for j ascending, so u may repeat.
    """
    ways = [[1] + [0] * (order - 1)] + [[0] * order for _ in range(count)]
    for u in _units(order):
        for j in range(1, count + 1):
            previous = ways[j - 1]
            ways[j] = [w + v for w, v in zip(ways[j], previous[-u:] + previous[:-u])]
    return {s: w for s, w in enumerate(ways[count]) if w}


def _cone_counts(order: int, left: int, memo: dict, start: int = 0) -> dict[tuple, int]:
    """What `_assignments` lists for every signature of weight `left`, counted.

    Maps (cone count, residual, has an odd cofactor order/m) to the number
    of canonical twist assignments of the signatures made of the parts of
    `_cone_parts` from `start` on.  It walks as `cone_signatures` does:
    it picks the next cone order m used and its run of cones, whose twist
    sums `_run_counts` counts, scaled by order/m, and walks a weight left
    over only when it is 0 or at least the next part's weight.  `memo`
    belongs to one order and keeps each suffix's counts by (start part,
    weight left).
    """
    if not left:
        return {(0, 0, False): 1}
    parts = _cone_parts(order)
    counts: dict[tuple, int] = {}
    for i in range(start, len(parts)):
        m, step, weight, odd, following = parts[i]
        if weight > left:
            break  # the weights rise
        for count in range(1, left // weight + 1):
            rest = left - count * weight
            if rest and following > rest:
                continue  # no part left is light enough
            suffix = memo.get((i + 1, rest))
            if suffix is None:
                suffix = memo[i + 1, rest] = _cone_counts(order, rest, memo, i + 1)
            for s, ways in _run_counts(m, count).items() if suffix else ():
                for (cones, residual, suffix_odd), sets in suffix.items():
                    key = (cones + count, (residual + step * s) % order, suffix_odd or odd)
                    counts[key] = counts.get(key, 0) + sets * ways
    return counts


def _orders(g: int, kind: str) -> range:
    """The orders of the `kind` sets of genus g: n <= 4g (SP), 2n <= 4g + 2 (SE).

    The one argument check of `blocks`, `class_counts` and
    `enumerate_oracle`: it refuses a genus below 1 and a kind other than
    "sp" or "se".
    """
    _check_genus(g)
    if kind == "sp":
        return range(2, 4 * g + 1)
    if kind == "se":
        return range(4, 4 * g + 3, 2)
    raise ValueError(f"kind must be 'sp' or 'se', got {kind!r}")


def _targets(g: int, kind: str, order: int) -> range:
    """The cone weight sum (order/m)(m-1) that genus g asks of each quotient genus g0 = 0, 1, ...

    It is 2(g - g0 n) for SP and 2(g + n) - 4 g0 n for SE.  Valid sets
    have cones, so the targets stop above 0.
    """
    return range(2 * g + (order if kind == "se" else 0), 0, -2 * order)


def _heads(kind: str, f: Filters, order: int) -> list[tuple]:
    """(l, residues, residual) of each head of one order that the exponent filter keeps.

    A head is a set's sort key without its cones, (order, l, g0, *residues),
    and its sets are its completions by the twist assignments of the
    residual.  SP: residues (a, b) for unit pairs a <= b, l fixed by the
    twist relation a+b = l*a*b, residual -(a+b).  SE: residue (a,) for each
    exponent l of a unit a mod n, residual -2a.  None of it reads g0, so
    one list serves every g0 of the order.
    """
    wanted = None if f.exponent is None else f.exponent[0]
    heads = []
    if kind == "sp":
        units = _units(order)
        inverse = [pow(u, -1, order) for u in units]
        for i, a in enumerate(units):
            for b, inverse_b in zip(units[i:], inverse[i:]):
                l = (a + b) * inverse[i] * inverse_b % order
                if l and (wanted is None or l == wanted):
                    heads.append((l, (a, b), -(a + b) % order))
    else:
        n = order // 2
        for a in _units(n):
            heads.extend([(l, (a,), -2 * a % order) for l in _se_exponents(a, n)
                          if wanted is None or l == wanted])
    return heads


def _order_blocks(g: int, f: Filters, kind: str, order: int) -> list[tuple]:
    """Sorted blocks (head, cones) of the `kind` sets of genus g and `order`.

    At each g0 the signatures of its target that the filters `f` keep are
    listed; over a sphere, SE sets generate only through an odd cofactor.
    `cones` lists the ascending (order, twist) tuples of `_assignments`
    that complete the head, so head + (c,) is a set's sort_key() for each
    c in it.  The order's heads and their residuals are solved at its first
    g0 with a signature; at each g0 only those residuals are listed, every
    head with one residual shares its list, and a head tuple is built only
    for a head that gets cones.
    """
    out: list[tuple] = []
    table: dict = {}  # the order's (order, twist) pairs and runs, for every g0
    heads = None
    count = 2 if f.essential_only else f.cone_count  # essential sets have at most two cones
    for g0, target in enumerate(_targets(g, kind, order)):
        if f.g0 not in (None, g0) or (f.essential_only and g0):
            continue  # essential sets lie over a sphere
        signatures = [sig for sig in cone_signatures(order, target, count)
                      if f.cone_count in (None, len(sig))
                      and (not f.essential_only or _essential(g0, len(sig), kind == "se"))
                      and (kind == "sp" or g0 or _odd_cofactors(order, sig))]
        if not signatures:
            continue
        if heads is None:
            heads = _heads(kind, f, order)
            residuals = {residual for *_, residual in heads}
        by_residual = _assignments(order, signatures, residuals, table)
        for l, residues, residual in heads:
            cones = by_residual.get(residual)
            if cones:
                out.append(((order, l, g0, *residues), cones))
    out.sort(key=itemgetter(0))
    return out


def class_counts(g: int, kind: str) -> dict[tuple, int]:
    """The number of `kind` sets of genus g in each (order, l, g0, cone count) class.

    The same heads as the listing, folded over the counts of `_cone_counts`,
    whose memo serves every g0 of an order: each head adds the count of its
    residual at each cone count.  Over a sphere, SE counts only assignments
    with an odd cofactor, as `_order_blocks` keeps.  No set or signature is
    built, and no class maps to 0.
    """
    classes: dict[tuple, int] = {}
    for order in _orders(g, kind):
        memo: dict = {}  # the order's suffix counts
        heads = None
        for g0, target in enumerate(_targets(g, kind, order)):
            by_residual: dict[int, dict] = {}  # residual -> cone count -> sets
            for (cones, residual, odd), sets in _cone_counts(order, target, memo).items():
                if kind == "sp" or g0 or odd:
                    by_count = by_residual.setdefault(residual, {})
                    by_count[cones] = by_count.get(cones, 0) + sets
            if not by_residual:
                continue
            if heads is None:
                heads = _heads(kind, Filters(), order)
            for l, _, residual in heads:
                for cones, sets in by_residual.get(residual, {}).items():
                    key = (order, l, g0, cones)
                    classes[key] = classes.get(key, 0) + sets
    return classes


class _Blocks:
    """A sequence of one sorted list of blocks per order, each built when it is asked for."""

    def __init__(self, g: int, kind: str, f: Filters):
        self.orders, self.args = _orders(g, kind), (g, f, kind)
        if f.exponent is not None:  # the exponent's order alone, if the genus has it
            self.orders = [f.exponent[1]] if f.exponent[1] in self.orders else []

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, index: int) -> list[tuple]:
        return _order_blocks(*self.args, self.orders[index])


def blocks(g: int, kind: str, filters: Filters | None = None) -> _Blocks:
    """The blocks of the `kind` sets of genus g, one sorted list per order, lazily.

    An exponent filter keeps its order's list alone, or none.  Any order's
    list can be asked for, in any order, and is built anew each time.  Bad
    arguments are refused at the call, not at the first list.
    """
    return _Blocks(g, kind, filters or Filters())


def block_sets(kind: str, chunks) -> list:
    """The `kind` data sets of `chunks`, lists of blocks as `blocks` yields.

    Sets with equal cones share their ConePair objects: each (order, twist)
    pair makes one ConePair, and the heads that share a cones list share
    its tuples of them.
    """
    cls = SpDataSet if kind == "sp" else SeDataSet
    cone_pairs: dict = {}  # (order, twist) -> its ConePair
    out = []
    for chunk in chunks:
        # id of a shared cones list -> its ConePair tuples; kept per chunk,
        # as a freed list's id may be reused
        pairs_of: dict = {}
        for (order, l, *residues), cones in chunk:
            pairs = pairs_of.get(id(cones))
            if pairs is None:
                pairs = pairs_of[id(cones)] = [
                    tuple([cone_pairs.get(p) or cone_pairs.setdefault(p, ConePair(p[1], p[0]))
                           for p in c])
                    for c in cones]
            out.extend([cls(l, order, *residues, p) for p in pairs])
    return out


def enumerate_sp(g: int, filters: Filters | None = None) -> list[SpDataSet]:
    """All valid canonical side-preserving data sets of genus g, sorted."""
    return block_sets("sp", blocks(g, "sp", filters))


def enumerate_se(g: int, filters: Filters | None = None) -> list[SeDataSet]:
    """All valid canonical side-exchanging data sets of genus g, sorted."""
    return block_sets("se", blocks(g, "se", filters))


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
        width, fold, extra = 2, 1, 0
    else:  # residue a mod n at order 2n; exponents from 2
        cls, report, genus_if_valid, l_min = SeDataSet, _se_report, se_genus_if_valid, 2
        width, fold, extra = 1, 2, 1
    out = []
    for order in _orders(g, kind):
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
    _orders(g, kind)  # refuses a bad genus or kind
    if g > max_genus:
        raise OracleBoundError(
            f"oracle enumeration is bounded to genus <= {max_genus}, got {g}")
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
