"""Exact integer arithmetic: divisors, unit groups, and the cone-order solver.

Everything here is pure and deterministic.  The one nontrivial piece is
:func:`cone_signatures`, which inverts the weight sum

    sum_i (order / m_i) * (m_i - 1) = target

over multisets of divisors ``m_i > 1`` of ``order``.  That sum is the
branching contribution of the cone points in the genus identities, so the
solver is what turns "find all quotient orbifolds of a given genus" into a
finite search.
"""

from __future__ import annotations

from math import gcd, isqrt

# A cone signature is the multiset of cone-point orders, kept as an
# ascending tuple so equal multisets compare equal.
ConeSignature = tuple[int, ...]


class NotInvertibleError(ValueError):
    """Raised when asked to invert a residue that is not a unit."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors() needs n >= 1, got {n}")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """The pairs (p, k), p prime ascending, with p**k exactly dividing n >= 1."""
    factors = []
    for p in divisors(n)[1:]:
        k = 0
        while n % p == 0:  # only a prime divides what the smaller ones leave
            n, k = n // p, k + 1
        if k:
            factors.append((p, k))
    return factors


def units_mod(n: int) -> set[int]:
    """The units of Z/n: residues r in [1, n-1] with gcd(r, n) = 1."""
    if n < 2:
        raise ValueError(f"units_mod() needs modulus >= 2, got {n}")
    return {r for r in range(1, n) if gcd(r, n) == 1}


def mod_inverse(a: int, n: int) -> int:
    """The inverse of a mod n, in [1, n-1]."""
    if n < 2:
        raise ValueError(f"mod_inverse() needs modulus >= 2, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible mod {n}") from None


def cone_weight(order: int, m: int) -> int:
    """Weight (order/m)*(m-1) a cone of order m contributes mod `order`."""
    return (order // m) * (m - 1)


def cone_signatures(
    order: int, target: int, max_count: int | None = None
) -> set[ConeSignature]:
    """All multisets of divisors m > 1 of `order` whose weights sum to `target`.

    Each part m weighs (order/m)*(m-1) >= order/2, rising with m, so a
    signature has at most 2*target/order parts.  Parts are chosen in
    ascending order; each level solves the remaining weight as one last
    part and recurses only into parts that leave room for one no lighter.
    Returns {()} exactly when target = 0.  `max_count`, when given, also
    caps the multiset size.
    """
    if order < 2:
        raise ValueError(f"cone_signatures() needs order >= 2, got {order}")
    if target < 0:
        raise ValueError(f"cone_signatures() needs target >= 0, got {target}")

    parts = [(m, cone_weight(order, m)) for m in divisors(order)[1:]]  # ascending in both
    limit = min(2 * target // order, target if max_count is None else max_count)

    found: set[ConeSignature] = {()} if target == 0 else set()
    chosen: list[int] = []

    def extend(start: int, remaining: int) -> None:
        rest = order - remaining  # a last part m weighs order - order/m
        last = order // rest if 0 < rest and order % rest == 0 else 0
        if last >= parts[start][0] and len(chosen) < limit:
            found.add((*chosen, last))
        if len(chosen) + 2 > limit:
            return
        for idx in range(start, len(parts)):
            m, w = parts[idx]
            if 2 * w > remaining:
                break  # the weights rise: no later part leaves room either
            chosen.append(m)
            extend(idx, remaining - w)  # idx again: parts may repeat
            chosen.pop()

    extend(0, target)
    return found
