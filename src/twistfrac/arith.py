"""Exact integer arithmetic: divisors, unit groups, and the cone-order solver.

Everything here is pure and deterministic.  The one nontrivial piece is
:func:`cone_signatures`, which inverts the weight sum

    sum_i (order / m_i) * (m_i - 1) = target

over multisets of divisors ``m_i > 1`` of ``order``.  That sum is the
branching contribution of the cone points in the genus identities, so the
solver is what turns "find all quotient orbifolds of a given genus" into a
finite search.  It walks `_cone_parts`, each order's table of parts and
weights, one run of equal parts at a time; the count engine,
`enumeration._cone_counts`, walks the same table the same way.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, inf, isqrt

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


@lru_cache(maxsize=None)
def _cone_parts(order: int) -> tuple[tuple, ...]:
    """(m, order/m, weight, odd order/m, the next part's weight) per cone order m > 1 of `order`.

    The parts ascend, and so do their weights (order/m)(m-1); past the
    last part the next weight is inf.
    """
    ms = divisors(order)[1:]
    weights = [cone_weight(order, m) for m in ms]
    return tuple((m, order // m, weight, order // m % 2 == 1, following)
                 for m, weight, following in zip(ms, weights, weights[1:] + [inf]))


def cone_signatures(
    order: int, target: int, max_count: int | None = None
) -> set[ConeSignature]:
    """All multisets of divisors m > 1 of `order` whose weights sum to `target`.

    Each part m weighs (order/m)*(m-1) >= order/2, rising with m.  The walk
    picks the next cone order used from `_cone_parts` and its run of equal
    cones; a weight left over is walked into only when it is 0 or at least
    the next part's weight.  Returns {()} exactly when target = 0.
    `max_count`, when given, also caps the multiset size.
    """
    if order < 2:
        raise ValueError(f"cone_signatures() needs order >= 2, got {order}")
    if target < 0:
        raise ValueError(f"cone_signatures() needs target >= 0, got {target}")

    parts = _cone_parts(order)
    room = target if max_count is None else max_count  # every part weighs >= 1
    found: set[ConeSignature] = set()
    stack = [((), 0, target)]  # (orders chosen, next part, weight left)
    while stack:
        chosen, start, left = stack.pop()
        if not left:
            found.add(chosen)
            continue
        for i in range(start, len(parts)):
            m, _, weight, _, following = parts[i]
            if weight > left:
                break  # the weights rise
            for count in range(1, min(left // weight, room - len(chosen)) + 1):
                rest = left - count * weight
                if not rest or following <= rest:
                    stack.append((chosen + (m,) * count, i + 1, rest))
    return found
