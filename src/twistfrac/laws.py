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

from .datasets import DataSet, SeDataSet, SpDataSet, _essential, genus_se, genus_sp
from .enumeration import Filters, class_counts, enumerate_se, enumerate_sp


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    witness: DataSet | None = None


def check_sp_laws(d: SpDataSet) -> list[LawReport]:
    """Evaluate every side-preserving law on one valid data set."""
    return _reports(_sp_laws(d.n, d.l, d.g0, len(d.cones), genus_sp(d)), d)


def check_se_laws(d: SeDataSet) -> list[LawReport]:
    """Evaluate every side-exchanging law on one valid data set."""
    return _reports(_se_laws(d.two_n, d.l, d.g0, len(d.cones), genus_se(d)), d)


def _reports(verdicts, d: DataSet) -> list[LawReport]:
    """A report per (law, holds) verdict; a violated law carries `d` as its witness."""
    return [LawReport(law, holds, None if holds else d) for law, holds in verdicts]


def _sp_laws(n: int, l: int, g0: int, m: int, g: int) -> list[tuple[str, bool]]:
    """(law, holds) for each SP law at order n, l, g0, cone count m, genus g."""
    return [
        ("sp:odd-l-odd-n", n % 2 == 1 if l % 2 == 1 else True),
        ("sp:coprime-order-cap",
         n <= 2 * g + 1 if gcd(l, n) == 1 else True),
        ("sp:order-window",
         2 * g + m <= n * (2 * g0 + m) and n * (4 * g0 + m) <= 4 * g),
        ("sp:order-le-4g", n <= 4 * g),
        ("sp:handles-force-small-order", 5 * n <= 4 * g if g0 >= 1 else True),
        ("sp:large-order-single-cone", m == 1 if n > 2 * g else True),
        ("sp:essential-order-floor",
         n >= 2 * g + 1 if _essential(g0, m, False) else True),
    ]


def _se_laws(two_n: int, l: int, g0: int, m: int, g: int) -> list[tuple[str, bool]]:
    """(law, holds) for each SE law at order 2n, l, g0, cone count m, genus g."""
    n, denominator = two_n // 2, 2 * g0 + m - 1
    # valid sets have a positive denominator: one cone forces g0 >= 1
    order_floor = denominator > 0 and two_n * denominator >= 2 * g + m
    return [
        ("se:odd-l-odd-n", n % 2 == 1 if l % 2 == 1 else True),
        ("se:order-floor", order_floor),
        ("se:wiman-order-cap", two_n <= 4 * g + 2),
        ("se:sphere-needs-two-cones", m >= 2 if g0 == 0 else True),
        # The order floor 2n >= 2g+2 is the m = 2 case of se:order-floor;
        # with g0 = 0 and three or more cones the floor genuinely drops
        # (witness: ((2, 4), 0, 1; (1, 2), (1, 4), (3, 4)) at genus 2),
        # so the law is scoped to essential sets.
        ("se:essential-order-floor",
         two_n >= 2 * g + 2 if _essential(g0, m, True) else True),
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
    """Run the matching laws over the full enumeration at genus g.

    The laws read a set's order, l, g0 and cone count alone, so each
    (order, l, g0, cone count) class of `class_counts` is checked once, and
    `checked` is the sum of its counts: a clean audit lists no set.  Only an
    (order, l, g0) group with a failing class is listed and checked set by
    set, in listing order, for its witnesses.
    """
    counts = class_counts(g, kind)  # refuses a kind other than "sp" or "se"
    laws, listing, checker = ((_sp_laws, enumerate_sp, check_sp_laws) if kind == "sp"
                              else (_se_laws, enumerate_se, check_se_laws))
    failing = {(order, l, g0) for order, l, g0, m in counts
               if not all(holds for _, holds in laws(order, l, g0, m, g))}
    violations = [r for order, l, g0 in sorted(failing)
                  for d in listing(g, Filters(exponent=(l, order), g0=g0))
                  for r in checker(d) if not r.holds]
    return AuditResult(g, kind, sum(counts.values()), tuple(violations))
