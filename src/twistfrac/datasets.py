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

A data set's sort key is the one row layout that listings render from:
(n, l, g0, a, b, cones) side-preserving (6 entries), (two_n, l, g0, a,
cones) side-exchanging (5), with cones the (order, twist) pairs in the
set's own order.  The enumerator yields exactly these keys.

Records are accepted in two syntaxes: one JSON object per line in the
wire format, or the tuples above as text; listings also render CSV rows.
`SYNTAXES` holds how each of the three writes a set from its sort key, in
templates that read the key's head by its length; `key_line` writes one set.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass, replace
from functools import lru_cache
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
        return key_line(self.sort_key(), "text")


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
        return key_line(self.sort_key(), "text")


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
    `generating` constrains only side-exchanging tuples with g0 = 0, but a
    tuple of either kind failing condition (i) fails it, like every flag but `l_in_range`.
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
        return [label for field, label in CONDITION_LABELS.items()
                if not getattr(self, field)]


# Equal verdicts share one frozen report; the cache bounds how many stay alive.
_report = lru_cache(maxsize=4096, typed=True)(ValidationReport)


def validate_sp(d: SpDataSet) -> ValidationReport:
    """Check every side-preserving condition, on residues in any form; never raises."""
    return _sp_report(d.l, d.n, d.g0, d.a, d.b, d.cones)


def validate_se(d: SeDataSet) -> ValidationReport:
    """Check every side-exchanging validity condition; never raises."""
    return _se_report(d.l, d.two_n, d.g0, d.a, d.cones)


def _sp_report(l: int, n: int, g0: int, a: int, b: int, cones) -> ValidationReport:
    """The side-preserving validity kernel; `cones` holds (twist, order) pairs."""
    l_in_range = 1 <= l <= n - 1
    if n < 2 or g0 < 0:
        return _broken(l_in_range)
    residues = gcd(a, n) == 1 and gcd(b, n) == 1
    total = a + b
    weight = 0
    for k, m in cones:
        if m < 2 or n % m:
            return _broken(l_in_range)
        residues = residues and gcd(k, m) == 1
        q = n // m
        total += q * k
        weight += q * (m - 1)

    twist_relation = (a + b - l * a * b) % n == 0
    genus_integral = weight % 2 == 0
    genus = g0 * n + weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1
    return _report(True, residues, twist_relation, total % n == 0,
                   l_in_range, genus_integral, genus_positive, True, genus)


def _se_report(l: int, two_n: int, g0: int, a: int, cones) -> ValidationReport:
    """The side-exchanging validity kernel; `cones` holds (twist, order) pairs."""
    n = two_n // 2
    l_in_range = two_n >= 4 and 2 <= l <= two_n - 1
    if two_n < 4 or two_n % 2 or g0 < 0:
        return _broken(l_in_range)
    residues = gcd(a, n) == 1
    total = 2 * a
    half_weight = 0
    # gcd of 2a, the cone terms and 2n; only a sphere quotient (g0 = 0) needs it
    span = gcd(2 * a, two_n)
    for k, m in cones:
        if m < 2 or two_n % m:
            return _broken(l_in_range)
        residues = residues and gcd(k, m) == 1
        q = two_n // m
        total += q * k
        half_weight += q * (m - 1)
        span = gcd(span, q * k)

    twist_relation = (l * a - 2) % n == 0
    genus_integral = half_weight % 2 == 0
    genus = n * (2 * g0 - 1) + half_weight // 2 if genus_integral else None
    genus_positive = genus is not None and genus >= 1
    return _report(True, residues, twist_relation, total % two_n == 0,
                   l_in_range, genus_integral, genus_positive,
                   g0 >= 1 or span == 1, genus)


def _broken(l_in_range: bool) -> ValidationReport:
    """The report of a tuple failing condition (i): nothing else is checked."""
    return _report(False, False, False, False, l_in_range, False, False, False, None)


def validate(d: DataSet) -> ValidationReport:
    return validate_sp(d) if isinstance(d, SpDataSet) else validate_se(d)


def sp_genus_if_valid(l: int, n: int, g0: int, a: int, b: int, cones) -> int | None:
    """The genus when validate_sp finds (l, n, g0, a, b; cones) valid, else None."""
    report = _sp_report(l, n, g0, a, b, cones)
    return report.genus if report.valid else None


def se_genus_if_valid(l: int, two_n: int, g0: int, a: int, cones) -> int | None:
    """The genus when validate_se finds (l, two_n, g0, a; cones) valid, else None."""
    report = _se_report(l, two_n, g0, a, cones)
    return report.genus if report.valid else None


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
    return _integral_genus(d, validate(d))


def _check_genus(g: int) -> None:
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")


def _reduce(value: int, modulus: int) -> int:
    return value % modulus if modulus >= 2 else value


def _canonical_cones(cones) -> tuple[ConePair, ...]:
    """Least-positive twists, ascending by (order, twist)."""
    return tuple(sorted((ConePair(_reduce(c.twist, c.order), c.order) for c in cones),
                        key=_cone_key))


def canonicalize_sp(d: SpDataSet) -> SpDataSet:
    """Least-positive residues, a <= b, cones ascending by (order, twist)."""
    a, b = sorted((_reduce(d.a, d.n), _reduce(d.b, d.n)))
    return replace(d, a=a, b=b, cones=_canonical_cones(d.cones))


def canonicalize_se(d: SeDataSet) -> SeDataSet:
    """Least-positive residues, cones ascending by (order, twist)."""
    return replace(d, a=_reduce(d.a, d.two_n // 2), cones=_canonical_cones(d.cones))


def canonicalize(d: DataSet) -> DataSet:
    return canonicalize_sp(d) if isinstance(d, SpDataSet) else canonicalize_se(d)


def is_essential(d: DataSet) -> bool:
    """Whether the quotient orbifold is a sphere with three cone points."""
    return _essential(d.g0, len(d.cones), not isinstance(d, SpDataSet))


def _essential(g0: int, cone_count: int, side_exchanging: bool) -> bool:
    """`is_essential` on plain fields.  Side-preserving actions contribute two
    distinguished cone points, so essential means g0 = 0 with one more cone;
    side-exchanging actions contribute one, so g0 = 0 with two more."""
    return g0 == 0 and cone_count == 1 + side_exchanging


def to_record(d: DataSet) -> dict:
    """Wire-format dict; cones are serialized in canonical order."""
    cones = [[c.twist, c.order] for c in sorted(d.cones, key=_cone_key)]
    if isinstance(d, SpDataSet):
        return {"kind": "SP", "l": d.l, "n": d.n, "g0": d.g0,
                "a": d.a, "b": d.b, "cones": cones}
    return {"kind": "SE", "l": d.l, "two_n": d.two_n, "g0": d.g0,
            "a": d.a, "cones": cones}


# CSV cells as csv.writer(quoting=QUOTE_NONNUMERIC) writes them, under CSV_COLUMNS.
# No string cell (the kind, an empty b, the cones) holds a quote, a comma or a newline.
CSV_COLUMNS = '"kind","l","order","g0","a","b","cones"'


# How each record syntax writes a set from its sort key: the template of a head
# (the key without its cones, up to the first pair) by its length, 5 for SP
# (n, l, g0, a, b) and 4 for SE (2n, l, g0, a); the template of one (order,
# twist) pair; the separator between pairs; the closing after the last one.
# A json-lines line is json.dumps(to_record(d), separators=(",", ":")) for a
# canonical d with that key; unlike `to_record`, it keeps the key's cone order.
SYNTAXES = {
    "text": ({5: "(({1}, {0}), {2}, ({3}, {4}); ", 4: "(({1}, {0}), {2}, {3}; "},
             "({k}, {m})", ", ", ")"),
    "json-lines": ({5: '{{"kind":"SP","l":{1},"n":{0},"g0":{2},"a":{3},"b":{4},"cones":[',
                    4: '{{"kind":"SE","l":{1},"two_n":{0},"g0":{2},"a":{3},"cones":['},
                   "[{k},{m}]", ",", "]}"),
    "csv": ({5: '"SP",{1},{0},{2},{3},{4},"', 4: '"SE",{1},{0},{2},{3},"","'},
            "{k}:{m}", ";", '"'),
}


def key_line(key: tuple, fmt: str) -> str:
    """The set whose sort key is `key` in the syntax `fmt`, without a newline."""
    heads, template, separator, closing = SYNTAXES[fmt]
    cones = separator.join([template.format(k=k, m=m) for m, k in key[-1]])
    return heads[len(key) - 1].format(*key[:-1]) + cones + closing


class _ShortRepr(reprlib.Repr):
    def repr_int(self, x, level):
        # str() refuses ints past sys.get_int_max_str_digits() >= 640 digits
        return super().repr_int(x, level) if x.bit_length() <= 2000 else "<huge int>"


def _short_repr(value) -> str:
    """repr(value) for a one-line error message: depth-limited, at most 60 chars."""
    text = _ShortRepr().repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


# The field checks take an int or an int subclass, never a bool.  JSON gives
# plain ints, so `type(v) is int` answers first, and isinstance runs only for
# other types.

def _int_field(record: dict, key: str) -> int:
    value = record.get(key)
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"field {key!r} must be an integer")
    return value


def _cones_field(record: dict) -> tuple[tuple[int, int], ...]:
    raw = record.get("cones")
    if not isinstance(raw, list):
        raise ValueError("field 'cones' must be a list of [twist, order] pairs")
    cones = []
    for entry in raw:
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            k, m = entry
            if ((type(k) is int or isinstance(k, int) and not isinstance(k, bool))
                    and (type(m) is int or isinstance(m, int) and not isinstance(m, bool))):
                cones.append((k, m))
                continue
        raise ValueError(f"bad cone entry {_short_repr(entry)}")
    return tuple(cones)


def _record_fields(record: dict) -> tuple[str, tuple]:
    """The kind, 'sp' or 'se', of a wire-format dict and its fields in data-set order."""
    if not isinstance(record, dict):
        raise ValueError("record must be an object")
    kind = record.get("kind")
    if kind == "SP":
        return "sp", (_int_field(record, "l"), _int_field(record, "n"),
                      _int_field(record, "g0"), _int_field(record, "a"),
                      _int_field(record, "b"), _cones_field(record))
    if kind == "SE":
        return "se", (_int_field(record, "l"), _int_field(record, "two_n"),
                      _int_field(record, "g0"), _int_field(record, "a"),
                      _cones_field(record))
    raise ValueError(f"record kind must be 'SP' or 'SE', got {_short_repr(kind)}")


def _data_set(kind: str, fields: tuple) -> DataSet:
    *head, cones = fields
    cones = tuple([ConePair(k, m) for k, m in cones])
    return SpDataSet(*head, cones) if kind == "sp" else SeDataSet(*head, cones)


def from_record(record: dict) -> DataSet:
    """Parse a wire-format dict back into a data set."""
    return _data_set(*_record_fields(record))


# The whole grammar of the tuples above as text: ASCII integers, any whitespace
# around each token, at least one cone.  Groups: l, order, g0, then a and b
# of the SP shape or a of the SE shape, then the cone text.
_INT = r"\s*(-?[0-9]+)\s*"
_CONE = r"\s*\(\s*-?[0-9]+\s*,\s*-?[0-9]+\s*\)\s*"
_TUPLE_TEXT = re.compile(
    rf"\s*\(\s*\({_INT},{_INT}\)\s*,{_INT},(?:\s*\({_INT},{_INT}\)\s*|{_INT});"
    rf"({_CONE}(?:,{_CONE})*)\)\s*")
_CONE_PAIR = re.compile(r"(-?[0-9]+)\s*,\s*(-?[0-9]+)")


# Listings repeat cone texts (318 distinct among the 822 sets of genus 9), so
# each text of at most _CONE_MEMO_CHARS characters is turned into ints once
# while it stays among the memo's 4096 most recent texts.  The cap bounds
# what an entry retains, whatever the input: about 6.5 MiB for a full memo of
# the densest texts.  No cone text of the genus-24 listing is longer, and 1.7 %
# of the genus-32 listing's are.
_CONE_MEMO_CHARS = 128


def _cone_pairs(cone_text: str) -> tuple[tuple[int, int], ...]:
    """The (twist, order) int pairs of the cone group of a tuple text."""
    return tuple([(int(k), int(m)) for k, m in _CONE_PAIR.findall(cone_text)])


_cone_memo = lru_cache(maxsize=4096)(_cone_pairs)


def _tuple_fields(text: str) -> tuple[str, tuple]:
    """The kind and fields of the tuple text syntax; its shape decides SP vs SE.

    A cone group of at most _CONE_MEMO_CHARS characters is read through a
    bounded memo of cone text -> int pairs; a longer one, such as a cone int
    too long to convert, is parsed anew, and a failed parse is never cached."""
    mo = _TUPLE_TEXT.fullmatch(text)
    if mo is None:
        more = "..." if len(text) > 40 else ""
        raise ValueError(f"not a data set in tuple text: {text[:40]!r}{more}")
    *ints, cone_text = mo.groups()
    cones = (_cone_memo if len(cone_text) <= _CONE_MEMO_CHARS else _cone_pairs)(cone_text)
    ints = [int(v) for v in ints if v is not None]  # l, order, g0, then a, b or a
    return "sp" if len(ints) == 5 else "se", (*ints, cones)


_raw_decode = json.JSONDecoder().raw_decode


def _json_value(text: str):
    """json.loads(text) for a text that does not start with JSON whitespace.

    raw_decode skips json.loads's two whitespace scans.  A text with more
    after its value goes to json.loads, which accepts trailing whitespace or
    raises its own "Extra data" error, so the value or the exception's type
    and message are json.loads's."""
    value, end = _raw_decode(text)
    return value if end == len(text) else json.loads(text)


def _json_fields(text: str) -> tuple[str, tuple]:
    """The kind and fields of a JSON record text.

    Its decode runs three Python frames below `record_fields`, as json.loads,
    decode and raw_decode did, so on Pythons where the C scanner's nesting
    counts against the recursion limit it gives up at the same depth."""
    return _record_fields(_json_value(text))


def record_fields(line: str, kind: str | None = None) -> tuple[str, tuple]:
    """The kind and fields of a JSON or tuple text record, checked against `kind`:
    the arguments of `_sp_report` or `_se_report`, with no data set built.

    A JSON record is decoded as json.loads would (see `_json_value`); tuple
    text reads its cones through `_tuple_fields`'s bounded memo."""
    text = line.strip()
    shape, fields = _json_fields(text) if text.startswith("{") else _tuple_fields(text)
    if kind is not None and kind != shape:
        raise ValueError(f"record is {shape.upper()} but --kind {kind} was given")
    return shape, fields


def parse_record_line(line: str, kind: str | None = None) -> DataSet:
    """Parse one record given as JSON or tuple text; `kind` 'sp' or 'se' pins its kind."""
    return _data_set(*record_fields(line, kind))
