"""Structural maps between data sets, and the four explicit families.

A side-preserving set with gcd(l, n) = 1 is the l-th power of a degree-n
root: scaling its residues by l (and setting l = 1) lands on the root's
data set, and scaling by the inverse undoes it.  The side-exchanging
analogue divides the exponent by a divisor r and scales the residues by
r; there the cone products can leave the unit group, in which case the
unique unit lift congruent modulo half the cone order is taken and the
substitution is logged as an adjustment.

The four family constructors witness the extreme orders: side-preserving
at n = 2g+1 and n = 4g, side-exchanging at 2n = 4g+2 and 2n = 2g+2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import mod_inverse
from .datasets import (
    ConePair,
    SeDataSet,
    SpDataSet,
    _check_genus,
    canonicalize_se,
    canonicalize_sp,
    validate_se,
    validate_sp,
)


class NotApplicableError(ValueError):
    """Raised when a decomposition's preconditions do not hold."""


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a side-exchanging power decomposition.

    status is "exact" (plain residue scaling), "adjusted" (some cone
    product needed its unit lift; see `adjustments`) or "failed" (the
    adjusted tuple does not validate: a guard, as a unit lift always exists
    but no proof here shows that it keeps the residue sum; none fails up to
    genus 16).  Each adjustment is (1-based cone index, raw product, chosen
    residue).
    """

    status: str
    result: SeDataSet | None
    adjustments: tuple[tuple[int, int, int], ...] = ()


def sp_root_decompose(d: SpDataSet) -> SpDataSet:
    """The degree-n root whose l-th power is the given set.

    Requires gcd(l, n) = 1.  Scales a, b and every cone twist by l and
    sets the exponent to 1/n; the result is canonical, valid, and has the
    same genus.
    """
    if not validate_sp(d).valid:
        raise NotApplicableError("input is not a valid side-preserving data set")
    if gcd(d.l, d.n) != 1:
        raise NotApplicableError(f"gcd(l, n) = {gcd(d.l, d.n)}, need 1")
    return _scaled_sp(d, 1, d.l)


def sp_power_compose(root: SpDataSet, l: int) -> SpDataSet:
    """The l-th power of a degree-n root; inverse of sp_root_decompose."""
    if not validate_sp(root).valid:
        raise NotApplicableError("input is not a valid side-preserving data set")
    if root.l != 1:
        raise NotApplicableError(f"root must have exponent 1/n, got {root.l}/{root.n}")
    if not 1 <= l <= root.n - 1 or gcd(l, root.n) != 1:
        raise NotApplicableError(f"power {l} is not a unit exponent for n = {root.n}")
    return _scaled_sp(root, l, mod_inverse(l, root.n))


def _scaled_sp(d: SpDataSet, l: int, u: int) -> SpDataSet:
    """The canonical set of exponent l/n with a, b and every cone twist of `d` scaled by u."""
    cones = tuple(ConePair(u * c.twist % c.order, c.order) for c in d.cones)
    return canonicalize_sp(SpDataSet(l, d.n, d.g0, u * d.a % d.n, u * d.b % d.n, cones))


def se_power_decompose(d: SeDataSet, r: int) -> DecompositionResult:
    """Write the set as the r-th power of a side-exchanging set.

    Requires r > 1 dividing l with l/r >= 2 (exponent-1 side-exchanging
    powers of even order do not exist) and gcd(l, n) = 1.  The candidate
    scales a and the cone twists by r; a cone product that is not a unit
    is replaced by the unique unit residue congruent to it modulo half the
    order.
    """
    if not validate_se(d).valid:
        raise NotApplicableError("input is not a valid side-exchanging data set")
    n = d.two_n // 2
    if r <= 1:
        raise NotApplicableError(f"divisor r must exceed 1, got {r}")
    if d.l % r:
        raise NotApplicableError(f"r = {r} does not divide l = {d.l}")
    if d.l // r < 2:
        raise NotApplicableError(f"l/r = {d.l // r} is below the exponent floor 2")
    if gcd(d.l, n) != 1:
        raise NotApplicableError(f"gcd(l, n) = {gcd(d.l, n)}, need 1")

    adjustments: list[tuple[int, int, int]] = []
    cones: list[ConePair] = []
    for index, c in enumerate(d.cones, start=1):
        raw = r * c.twist % c.order
        if gcd(raw, c.order) == 1:
            cones.append(ConePair(raw, c.order))
            continue
        # Not a unit: the order shares a factor with r, which is prime to n,
        # so r is even, n odd, the order 2 mod 4 and its half odd and prime
        # to r.  Of the two residues congruent to raw mod half, the odd one
        # is the unit.
        half = c.order // 2
        low = raw % half
        lift = low if low % 2 else low + half
        adjustments.append((index, raw, lift))
        cones.append(ConePair(lift, c.order))

    candidate = canonicalize_se(
        SeDataSet(d.l // r, d.two_n, d.g0, r * d.a % n, tuple(cones)))
    if not validate_se(candidate).valid:
        # An adjustment can flip the residue sum by n; nothing to repair.
        return DecompositionResult("failed", None, tuple(adjustments))
    status = "adjusted" if adjustments else "exact"
    return DecompositionResult(status, candidate, tuple(adjustments))


def family_sp_top(g: int) -> list[SpDataSet]:
    """Two side-preserving sets of exponent 2g/(2g+1) at genus g, equal at g = 1."""
    _check_genus(g)
    n = 2 * g + 1
    first = SpDataSet(2 * g, n, 0, 1, g, (ConePair(g, n),))
    second = SpDataSet(2 * g, n, 0, 2 * g - 1, 2 * g - 1, (ConePair(4 % n, n),))
    return [canonicalize_sp(first), canonicalize_sp(second)]


def family_sp_4g(g: int) -> list[SpDataSet]:
    """The two side-preserving sets of exponent 2g/4g at genus g."""
    _check_genus(g)
    n = 4 * g
    first = SpDataSet(2 * g, n, 0, 1, 2 * g - 1, (ConePair(1, 2),))
    second = SpDataSet(2 * g, n, 0, 2 * g + 1, 4 * g - 1, (ConePair(1, 2),))
    return [canonicalize_sp(first), canonicalize_sp(second)]


def family_se_max(g: int) -> SeDataSet:
    """The side-exchanging set of exponent (4g+1)/(4g+2) at genus g."""
    _check_genus(g)
    two_n = 4 * g + 2
    cones = (ConePair(1, 2), ConePair((2 * g + 5) % two_n, two_n))
    return canonicalize_se(SeDataSet(4 * g + 1, two_n, 0, 2 * g - 1, cones))


def family_se_min(g: int) -> SeDataSet:
    """The side-exchanging set of exponent 2/(2g+2) at genus g."""
    _check_genus(g)
    two_n = 2 * g + 2
    cone = ConePair(2 * g + 1, two_n)
    return canonicalize_se(SeDataSet(2, two_n, 0, 1, (cone, cone)))
