"""Machine-checkable bound and parity laws for valid data sets.

Every law here is a theorem about valid data sets, so a violation over an
enumerated range means an implementation bug, not new mathematics; the
audit runner is wired into the test suite for exactly that reason.  All
inequalities are evaluated in exact integer arithmetic (cross-multiplied,
never floating point) because several of them are tight on real sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from .datasets import SeDataSet, SpDataSet, genus_se, genus_sp, is_essential
from .enumeration import enumerate_se, enumerate_sp


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    witness: Union[SpDataSet, SeDataSet, None] = None


def _report(law: str, holds: bool, d) -> LawReport:
    return LawReport(law, holds, None if holds else d)


def check_sp_laws(d: SpDataSet) -> list[LawReport]:
    """Evaluate every side-preserving law on one valid data set."""
    g = genus_sp(d)
    n, l, g0, m = d.n, d.l, d.g0, len(d.cones)
    return [
        _report("sp:odd-l-odd-n", n % 2 == 1 if l % 2 == 1 else True, d),
        _report("sp:coprime-order-cap",
                n <= 2 * g + 1 if gcd(l, n) == 1 else True, d),
        _report("sp:order-window",
                2 * g + m <= n * (2 * g0 + m) and n * (4 * g0 + m) <= 4 * g, d),
        _report("sp:order-le-4g", n <= 4 * g, d),
        _report("sp:handles-force-small-order", n < g if g0 >= 1 else True, d),
        _report("sp:large-order-single-cone", m == 1 if n > 2 * g else True, d),
        _report("sp:essential-order-floor",
                n >= 2 * g + 1 if is_essential(d) else True, d),
    ]


def check_se_laws(d: SeDataSet) -> list[LawReport]:
    """Evaluate every side-exchanging law on one valid data set."""
    g = genus_se(d)
    two_n, l, g0, m = d.two_n, d.l, d.g0, len(d.cones)
    n = two_n // 2

    denominator = 2 * g0 + m - 1
    if denominator <= 0:
        # Valid sets always have a positive denominator (one cone forces
        # g0 >= 1); reaching this means the input is ill-formed.
        order_floor = False
    else:
        order_floor = two_n * denominator >= 2 * g + m

    return [
        _report("se:odd-l-odd-n", n % 2 == 1 if l % 2 == 1 else True, d),
        _report("se:order-floor", order_floor, d),
        _report("se:wiman-order-cap", two_n <= 4 * g + 2, d),
        _report("se:sphere-needs-two-cones", m >= 2 if g0 == 0 else True, d),
        # The order floor 2n >= 2g+2 is the m = 2 case of se:order-floor;
        # with g0 = 0 and three or more cones the floor genuinely drops
        # (witness: ((2, 4), 0, 1; (1, 2), (1, 4), (3, 4)) at genus 2),
        # so the law is scoped to essential sets.
        _report("se:essential-order-floor",
                two_n >= 2 * g + 2 if is_essential(d) else True, d),
    ]


@dataclass(frozen=True)
class AuditResult:
    genus: int
    kind: str
    checked: int
    violations: tuple[LawReport, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit(g: int, kind: str) -> AuditResult:
    """Run the matching law checker over the full enumeration at genus g."""
    if kind == "sp":
        sets = enumerate_sp(g)
        checker = check_sp_laws
    elif kind == "se":
        sets = enumerate_se(g)
        checker = check_se_laws
    else:
        raise ValueError(f"kind must be 'sp' or 'se', got {kind!r}")
    violations = [r for d in sets for r in checker(d) if not r.holds]
    return AuditResult(g, kind, len(sets), tuple(violations))
