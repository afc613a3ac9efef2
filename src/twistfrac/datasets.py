"""Data sets classifying fractional powers of a Dehn twist.

A mapping class h with h^n = (twist)^l is a *fractional power* of exponent
l/n (kept unreduced).  Up to conjugacy these are classified by integer
tuples recording the rotation data of a cyclic action on an auxiliary
surface:

* side-preserving, order n:   ((l, n), g0, (a, b); (k1, m1), ..., (kr, mr))
* side-exchanging, order 2n:  ((l, 2n), g0, a;     (k1, m1), ..., (kr, mr))

where g0 is the quotient genus, a and b are rotation residues at the
distinguished fixed points (a single residue mod n in the side-exchanging
case), and each cone pair (k, m) is a rotation residue k modulo a cone
order m.

Validity of a side-preserving tuple means:

  (i)    n > 1, g0 >= 0, every cone order m > 1 and m | n;
  (ii)   gcd(a, n) = gcd(b, n) = 1 and gcd(k, m) = 1 for every cone;
  (iii)  a + b = l*a*b (mod n);
  (iv)   a + b + sum (n/m)*k = 0 (mod n);
  plus 1 <= l <= n-1, integrality of the genus, and genus >= 1.

For a side-exchanging tuple, with n = two_n/2:

  (i)    two_n even >= 4, g0 >= 0, every cone order m > 1 and m | 2n;
  (ii)   gcd(a, n) = 1 and gcd(k, m) = 1 for every cone;
  (iii)  l*a = 2 (mod n);
  (iv)   2a + sum (2n/m)*k = 0 (mod 2n);
  plus 2 <= l <= 2n-1, genus integrality, genus >= 1, and, when g0 = 0,
  a generation condition: gcd(2a, the cone terms (2n/m)*k, 2n) = 1.

The generation condition says the recorded rotation residues generate the
full cyclic group of order 2n.  With g0 = 0 there are no handle generators
to make up the deficit, so a tuple failing it only describes a
disconnected cyclic cover and corresponds to no action at all.  Given
(ii) and (iv) it reduces to a parity statement: some cone order must have
odd cofactor 2n/m.  Quotient genus g0 >= 1 always generates.

The genus of a valid tuple (the genus of the auxiliary surface carrying
the cyclic action; the classified mapping class lives one genus higher):

  side-preserving:  g = g0*n + (1/2) * sum (n/m)*(m-1)
  side-exchanging:  g = n*(2*g0 - 1) + sum (n/m)*(m-1)

Two tuples are the same data set when they differ by swapping a and b
(side-preserving only) or reordering cone pairs; canonical form sorts
a <= b and the cones ascending by (order, twist).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import NamedTuple, Union


class IntegralityError(ValueError):
    """Raised when a data set has no integral genus: its cone weight is odd,
    or it fails condition (i), for instance by a cone order not dividing n."""


class ConePair(NamedTuple):
    twist: int
    order: int


def _cone_key(c: ConePair) -> tuple[int, int]:
    return (c.order, c.twist)


@dataclass(frozen=True)
class SpDataSet:
    """Side-preserving data set ((l, n), g0, (a, b); cones)."""

    l: int
    n: int
    g0: int
    a: int
    b: int
    cones: tuple[ConePair, ...]

    @property
    def exponent(self) -> tuple[int, int]:
        return (self.l, self.n)

    def sort_key(self):
        return (self.n, self.l, self.g0, self.a, self.b,
                tuple(_cone_key(c) for c in self.cones))

    def __str__(self) -> str:
        cones = ", ".join(f"({c.twist}, {c.order})" for c in self.cones)
        return f"(({self.l}, {self.n}), {self.g0}, ({self.a}, {self.b}); {cones})"


@dataclass(frozen=True)
class SeDataSet:
    """Side-exchanging data set ((l, 2n), g0, a; cones)."""

    l: int
    two_n: int
    g0: int
    a: int
    cones: tuple[ConePair, ...]

    @property
    def n(self) -> int:
        return self.two_n // 2

    @property
    def exponent(self) -> tuple[int, int]:
        return (self.l, self.two_n)

    def sort_key(self):
        return (self.two_n, self.l, self.g0, self.a,
                tuple(_cone_key(c) for c in self.cones))

    def __str__(self) -> str:
        cones = ", ".join(f"({c.twist}, {c.order})" for c in self.cones)
        return f"(({self.l}, {self.two_n}), {self.g0}, {self.a}; {cones})"


DataSet = Union[SpDataSet, SeDataSet]

# Flag label used in reports and CLI output for each validity condition.
CONDITION_LABELS = {
    "structure": "condition (i)",
    "residues": "condition (ii)",
    "twist_relation": "condition (iii)",
    "cone_sum": "condition (iv)",
    "l_in_range": "range of l",
    "genus_integral": "genus integrality",
    "genus_positive": "genus positivity",
    "generating": "generation",
}


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition verdicts for one candidate tuple.

    `genus` is the computed genus when it is integral, else None.
    `generating` is only a real constraint for side-exchanging tuples
    with g0 = 0; it is True everywhere else so that `valid` is always
    the conjunction of all flags.
    """

    structure: bool
    residues: bool
    twist_relation: bool
    cone_sum: bool
    l_in_range: bool
    genus_integral: bool
    genus_positive: bool
    generating: bool
    genus: int | None

    @property
    def valid(self) -> bool:
        return (self.structure and self.residues and self.twist_relation
                and self.cone_sum and self.l_in_range and self.genus_integral
                and self.genus_positive and self.generating)

    @property
    def verdict(self) -> str:
        return "valid" if self.valid else "invalid"

    def failed(self) -> list[str]:
        """Labels of the failed conditions, in report order."""
        out = []
        for field, label in CONDITION_LABELS.items():
            if not getattr(self, field):
                out.append(label)
        return out


def validate_sp(d: SpDataSet) -> ValidationReport:
    """Check every side-preserving validity condition; never raises.

    The verdict only depends on the residue classes of a, b and the cone
    twists, so representatives may be given in any form.
    """
    n = d.n
    structure = (
        n >= 2 and d.g0 >= 0
        and all(c.order >= 2 and n % c.order == 0 for c in d.cones)
    )
    l_in_range = n >= 2 and 1 <= d.l <= n - 1
    if not structure:
        return ValidationReport(structure, False, False, False, l_in_range,
                                False, False, False, None)

    residues = gcd(d.a, n) == 1 and gcd(d.b, n) == 1 and all(
        gcd(c.twist, c.order) == 1 for c in d.cones)
    twist_relation = (d.a + d.b - d.l * d.a * d.b) % n == 0
    cone_sum = (d.a + d.b + sum((n // c.order) * c.twist for c in d.cones)) % n == 0

    weight = sum((n // c.order) * (c.order - 1) for c in d.cones)
    genus_integral = weight % 2 == 0
    genus = d.g0 * n + weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1

    return ValidationReport(structure, residues, twist_relation, cone_sum,
                            l_in_range, genus_integral, genus_positive,
                            True, genus)


def validate_se(d: SeDataSet) -> ValidationReport:
    """Check every side-exchanging validity condition; never raises."""
    two_n = d.two_n
    n = two_n // 2
    structure = (
        two_n >= 4 and two_n % 2 == 0 and d.g0 >= 0
        and all(c.order >= 2 and two_n % c.order == 0 for c in d.cones)
    )
    l_in_range = two_n >= 4 and 2 <= d.l <= two_n - 1
    if not structure:
        return ValidationReport(structure, False, False, False, l_in_range,
                                False, False, False, None)

    residues = gcd(d.a, n) == 1 and all(
        gcd(c.twist, c.order) == 1 for c in d.cones)
    twist_relation = (d.l * d.a - 2) % n == 0
    cone_sum = (2 * d.a + sum((two_n // c.order) * c.twist for c in d.cones)) % two_n == 0

    if d.g0 >= 1:
        generating = True
    else:
        span = gcd(2 * d.a, two_n)
        for c in d.cones:
            span = gcd(span, (two_n // c.order) * c.twist)
        generating = span == 1

    half_weight = sum((two_n // c.order) * (c.order - 1) for c in d.cones)
    genus_integral = half_weight % 2 == 0
    genus = n * (2 * d.g0 - 1) + half_weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1

    return ValidationReport(structure, residues, twist_relation, cone_sum,
                            l_in_range, genus_integral, genus_positive,
                            generating, genus)


def validate(d: DataSet) -> ValidationReport:
    if isinstance(d, SpDataSet):
        return validate_sp(d)
    return validate_se(d)


def sp_genus_if_valid(l: int, n: int, g0: int, a: int, b: int, cones) -> int | None:
    """Short-circuiting form of validate_sp on plain integers.

    Returns the genus when every condition holds, else None.  `cones` is a
    sequence of (twist, order) pairs.  Agreement with validate_sp is
    property-tested; keep the two in lockstep.
    """
    if n < 2 or g0 < 0 or not 1 <= l <= n - 1:
        return None
    if gcd(a, n) != 1 or gcd(b, n) != 1:
        return None
    if (a + b - l * a * b) % n:
        return None
    total = a + b
    weight = 0
    for k, m in cones:
        if m < 2 or n % m or gcd(k, m) != 1:
            return None
        total += (n // m) * k
        weight += (n // m) * (m - 1)
    if total % n or weight % 2:
        return None
    g = g0 * n + weight // 2
    return g if g >= 1 else None


def se_genus_if_valid(l: int, two_n: int, g0: int, a: int, cones) -> int | None:
    """Short-circuiting form of validate_se on plain integers."""
    if two_n < 4 or two_n % 2 or g0 < 0 or not 2 <= l <= two_n - 1:
        return None
    n = two_n // 2
    if gcd(a, n) != 1 or (l * a - 2) % n:
        return None
    total = 2 * a
    weight2 = 0
    span = gcd(2 * a, two_n)
    for k, m in cones:
        if m < 2 or two_n % m or gcd(k, m) != 1:
            return None
        total += (two_n // m) * k
        span = gcd(span, (two_n // m) * k)
        weight2 += (two_n // m) * (m - 1)
    if total % two_n or weight2 % 2:
        return None
    if g0 == 0 and span != 1:
        return None
    g = n * (2 * g0 - 1) + weight2 // 2
    return g if g >= 1 else None


def genus_sp(d: SpDataSet) -> int:
    """Genus g0*n + (1/2) sum (n/m)*(m-1) of a side-preserving data set."""
    return _integral_genus(d, validate_sp(d))


def genus_se(d: SeDataSet) -> int:
    """Genus n*(2*g0 - 1) + sum (n/m)*(m-1) of a side-exchanging data set."""
    return _integral_genus(d, validate_se(d))


def _integral_genus(d: DataSet, report: ValidationReport) -> int:
    if report.genus is None:
        raise IntegralityError(f"no integral genus for {d}")
    return report.genus


def genus(d: DataSet) -> int:
    if isinstance(d, SpDataSet):
        return genus_sp(d)
    return genus_se(d)


def _reduce(value: int, modulus: int) -> int:
    return value % modulus if modulus >= 2 else value


def canonicalize_sp(d: SpDataSet) -> SpDataSet:
    """Least-positive residues, a <= b, cones ascending by (order, twist)."""
    a, b = sorted((_reduce(d.a, d.n), _reduce(d.b, d.n)))
    cones = tuple(sorted(
        (ConePair(_reduce(c.twist, c.order), c.order) for c in d.cones),
        key=_cone_key))
    return replace(d, a=a, b=b, cones=cones)


def canonicalize_se(d: SeDataSet) -> SeDataSet:
    """Least-positive residues, cones ascending by (order, twist)."""
    a = _reduce(d.a, d.two_n // 2)
    cones = tuple(sorted(
        (ConePair(_reduce(c.twist, c.order), c.order) for c in d.cones),
        key=_cone_key))
    return replace(d, a=a, cones=cones)


def canonicalize(d: DataSet) -> DataSet:
    if isinstance(d, SpDataSet):
        return canonicalize_sp(d)
    return canonicalize_se(d)


def is_essential(d: DataSet) -> bool:
    """Whether the quotient orbifold is a sphere with three cone points.

    Side-preserving actions contribute two distinguished cone points, so
    essential means g0 = 0 with one more cone; side-exchanging actions
    contribute one, so essential means g0 = 0 with two more.
    """
    if isinstance(d, SpDataSet):
        return d.g0 == 0 and len(d.cones) == 1
    return d.g0 == 0 and len(d.cones) == 2


def to_record(d: DataSet) -> dict:
    """Wire-format dict; cones are serialized in canonical order."""
    cones = [[c.twist, c.order] for c in sorted(d.cones, key=_cone_key)]
    if isinstance(d, SpDataSet):
        return {"kind": "SP", "l": d.l, "n": d.n, "g0": d.g0,
                "a": d.a, "b": d.b, "cones": cones}
    return {"kind": "SE", "l": d.l, "two_n": d.two_n, "g0": d.g0,
            "a": d.a, "cones": cones}


def record_line(d: DataSet) -> str:
    """`to_record(d)` as compact JSON, for a set whose cones are in canonical order.

    Equal to json.dumps(to_record(d), separators=(",", ":")) for every
    canonical set, without building the dict; unlike `to_record` it does
    not sort the cones.
    """
    cones = ",".join([f"[{k},{m}]" for k, m in d.cones])
    if isinstance(d, SpDataSet):
        return (f'{{"kind":"SP","l":{d.l},"n":{d.n},"g0":{d.g0},'
                f'"a":{d.a},"b":{d.b},"cones":[{cones}]}}')
    return (f'{{"kind":"SE","l":{d.l},"two_n":{d.two_n},"g0":{d.g0},'
            f'"a":{d.a},"cones":[{cones}]}}')


def _int_field(record: dict, key: str) -> int:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer")
    return value


def _cones_field(record: dict) -> tuple[ConePair, ...]:
    raw = record.get("cones")
    if not isinstance(raw, list):
        raise ValueError("field 'cones' must be a list of [twist, order] pairs")
    cones = []
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in entry)):
            raise ValueError(f"bad cone entry {entry!r}")
        cones.append(ConePair(entry[0], entry[1]))
    return tuple(cones)


def from_record(record: dict) -> DataSet:
    """Parse a wire-format dict back into a data set."""
    if not isinstance(record, dict):
        raise ValueError("record must be an object")
    kind = record.get("kind")
    if kind == "SP":
        return SpDataSet(_int_field(record, "l"), _int_field(record, "n"),
                         _int_field(record, "g0"), _int_field(record, "a"),
                         _int_field(record, "b"), _cones_field(record))
    if kind == "SE":
        return SeDataSet(_int_field(record, "l"), _int_field(record, "two_n"),
                         _int_field(record, "g0"), _int_field(record, "a"),
                         _cones_field(record))
    raise ValueError(f"record kind must be 'SP' or 'SE', got {kind!r}")
