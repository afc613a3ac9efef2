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

    Each part m weighs (order/m)*(m-1) >= order/2, so a signature has at
    most 2*target/order parts; the recursion is bounded by that and by the
    remaining target, with no other caps.  Returns {()} exactly when
    target = 0.  `max_count`, when given, additionally caps the multiset
    size.
    """
    if order < 2:
        raise ValueError(f"cone_signatures() needs order >= 2, got {order}")
    if target < 0:
        raise ValueError(f"cone_signatures() needs target >= 0, got {target}")

    parts = [(m, cone_weight(order, m)) for m in divisors(order) if m > 1]
    limit = 2 * target // order
    if max_count is not None:
        limit = min(limit, max_count)

    found: set[ConeSignature] = set()
    chosen: list[int] = []

    def extend(start: int, remaining: int) -> None:
        if remaining == 0:
            found.add(tuple(chosen))
            return
        if len(chosen) >= limit:
            return
        for idx in range(start, len(parts)):
            m, w = parts[idx]
            if w > remaining:
                continue
            chosen.append(m)
            extend(idx, remaining - w)  # idx again: parts may repeat
            chosen.pop()

    extend(0, target)
    return found
