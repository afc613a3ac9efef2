"""The benchmark's workloads: CLI argument lists, generated inputs, output checks.

Each workload is a list of `Invocation`s, run one at a time (a closed loop
with one client) through `twistfrac.cli.main`.  `plan()` builds that list
from the workload name and seed; `tiny=True` gives the small version the
self-test runs.  Only `validate-mixed` has generated input; the other three
are fixed commands, and the seed only shuffles the order of the
`verify-sweep` invocations.

Output is checked three ways: the exit code, the sha256 of stdout (recorded
at the seed commit in `expected.json`, or computed independently for the
generated `validate-mixed` input), and a workload-specific check on the
counts or text the sink returns.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAMES = ("enumerate-full", "spectra-wide", "verify-sweep", "validate-mixed")

# Full-size enumerate --genus 32 --kind both listing.
ENUMERATE_FULL_COUNTS = {"lines": 104_955, "SP": 70_180, "SE": 34_775}

SP_TOKEN = '"kind":"SP"'
SE_TOKEN = '"kind":"SE"'
VALID_TOKEN = '"valid":true'

# validate-mixed draws records from the full enumeration at these genera
# and perturbs this share of them.
POOL_GENERA = range(4, 10)
INVALID_SHARE = 0.3


@dataclass
class Invocation:
    argv: list[str]
    exit_code: int = 0
    digest: str | None = None          # expected sha256 of stdout
    tokens: tuple[str, ...] = ()       # substrings the sink counts
    keep: bool = False                 # the child returns stdout text (small outputs only)
    check: Callable[[dict], list[str]] = lambda result: []
    items: Callable[[dict], int] = lambda result: result["lines"]

    def to_child(self) -> dict:
        return {"argv": self.argv, "tokens": list(self.tokens), "keep": self.keep}

    def problems(self, result: dict) -> list[str]:
        """Every way the child's result for this invocation is wrong."""
        if result.get("error"):
            return [f"raised: {result['error']}"]
        out = []
        if result["exit_code"] != self.exit_code:
            out.append(f"exit code {result['exit_code']}, expected {self.exit_code}")
        if self.digest is not None and result["sha256"] != self.digest:
            out.append(f"stdout sha256 {result['sha256']}, expected {self.digest}")
        return out + self.check(result)


def plan(name: str, seed: int, tiny: bool, outdir: Path) -> list[Invocation]:
    """The invocations of one pass of workload `name`."""
    digests = {} if tiny else json.loads((HERE / "expected.json").read_text())
    if name == "enumerate-full":
        invocations = [_enumerate_full(tiny)]
    elif name == "spectra-wide":
        invocations = [_spectra_wide(tiny)]
    elif name == "verify-sweep":
        invocations = _verify_sweep(tiny)
        random.Random(seed).shuffle(invocations)
    elif name == "validate-mixed":
        return [_validate_mixed(seed, tiny, outdir)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if not tiny:
        for inv in invocations:
            key = " ".join(inv.argv)
            inv.digest = digests.get(key, f"(no digest recorded for '{key}')")
    return invocations


# ------------------------------------------------------------ enumerate-full

def _enumerate_full(tiny: bool) -> Invocation:
    genus = 8 if tiny else 32

    def check(result):
        sp, se = result["tokens"][SP_TOKEN], result["tokens"][SE_TOKEN]
        got = {"lines": result["lines"], "SP": sp, "SE": se}
        if sp + se != result["lines"]:
            return [f"{result['lines']} lines but {sp} SP and {se} SE records"]
        if not tiny and got != ENUMERATE_FULL_COUNTS:
            return [f"counts {got}, expected {ENUMERATE_FULL_COUNTS}"]
        return []

    return Invocation(
        ["enumerate", "--genus", str(genus), "--kind", "both", "--format", "json-lines"],
        tokens=(SP_TOKEN, SE_TOKEN), check=check)


# -------------------------------------------------------------- spectra-wide

def spectra_reference() -> dict[int, tuple[int, int, int, int]]:
    """SPECTRA_REFERENCE from tests/reference_data.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "reference_data.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SPECTRA_REFERENCE"):
            return ast.literal_eval(node.value)
    raise LookupError("SPECTRA_REFERENCE not found in tests/reference_data.py")


def _spectra_wide(tiny: bool) -> Invocation:
    lo, hi = (19, 21) if tiny else (19, 64)
    reference = spectra_reference()

    def check(result):
        rows = list(csv.reader(result["text"].splitlines()))[1:]
        if [int(r[0]) for r in rows] != list(range(lo + 1, hi + 2)):
            return [f"rows for surface genus {[r[0] for r in rows]}, "
                    f"expected {lo + 1}..{hi + 1}"]
        return [f"surface genus {r[0]}: {r[1:]} differs from the reference "
                f"{reference[int(r[0])]}"
                for r in rows
                if int(r[0]) in reference and tuple(map(int, r[1:])) != reference[int(r[0])]]

    return Invocation(
        ["spectra", "--from", str(lo), "--to", str(hi), "--format", "csv"],
        keep=True, check=check, items=lambda result: result["lines"] - 1)


# -------------------------------------------------------------- verify-sweep

_AUDIT_LINE = re.compile(r"^genus \d+ s[pe]: (\d+) sets", re.MULTILINE)


def _audit_checked(result) -> int:
    return sum(int(n) for n in _AUDIT_LINE.findall(result["text"]))


def _verify_sweep(tiny: bool) -> list[Invocation]:
    oracle_top, audit_top = (3, 4) if tiny else (7, 16)
    invocations = [
        Invocation(["enumerate", "--oracle", "--kind", kind, "--genus", str(g),
                    "--format", "json-lines"])
        for g in range(1, oracle_top + 1) for kind in ("sp", "se")
    ]

    def check(result):
        if not result["text"].endswith("total violations: 0\n"):
            return ["audit did not print 'total violations: 0'"]
        return []

    invocations.append(Invocation(
        ["audit", "--from", "1", "--to", str(audit_top), "--kind", "both"],
        keep=True, check=check, items=_audit_checked))
    return invocations


# ------------------------------------------------------------ validate-mixed

def _tuple_text(d, a) -> str:
    cones = ", ".join(f"({k}, {m})" for k, m in d.cones)
    if hasattr(d, "b"):
        return f"(({d.l}, {d.n}), {d.g0}, ({a}, {d.b}); {cones})"
    return f"(({d.l}, {d.two_n}), {d.g0}, {a}; {cones})"


def _json_record(d, a) -> str:
    cones = [[k, m] for k, m in d.cones]
    if hasattr(d, "b"):
        record = {"kind": "SP", "l": d.l, "n": d.n, "g0": d.g0, "a": a, "b": d.b,
                  "cones": cones}
    else:
        record = {"kind": "SE", "l": d.l, "two_n": d.two_n, "g0": d.g0, "a": a,
                  "cones": cones}
    return json.dumps(record, separators=(",", ":"))


def _failed_after_bump(d, a) -> list[str]:
    """Failed-condition labels of a valid set `d` whose residue a became `a`.

    Restated from the validity conditions, independently of the package:
    a appears only in (ii), (iii), (iv) and, for side-exchanging sets with
    g0 = 0, generation; structure, the range of l and the genus are
    untouched, so they still hold.
    """
    if hasattr(d, "b"):
        n = d.n
        flags = {
            "condition (ii)": gcd(a, n) == 1,
            "condition (iii)": (a + d.b - d.l * a * d.b) % n == 0,
            "condition (iv)": (a + d.b + sum(n // m * k for k, m in d.cones)) % n == 0,
        }
    else:
        two_n = d.two_n
        n = two_n // 2
        span = gcd(2 * a, two_n)
        for k, m in d.cones:
            span = gcd(span, two_n // m * k)
        flags = {
            "condition (ii)": gcd(a, n) == 1,
            "condition (iii)": (d.l * a - 2) % n == 0,
            "condition (iv)": (2 * a + sum(two_n // m * k for k, m in d.cones)) % two_n == 0,
            "generation": d.g0 >= 1 or span == 1,
        }
    return [label for label, holds in flags.items() if not holds]


def validate_input(seed: int, count: int):
    """Record lines, expected `validate --format json-lines` output, valid count.

    Records are sampled from the package's own enumeration; a share of them
    has a replaced by a+1, which always breaks condition (iv).  Half the
    lines are JSON and half tuple text.  No line is unparseable: validate
    stops with exit 1 at the first one.
    """
    from twistfrac import enumerate_se, enumerate_sp

    pool = [(g, d) for g in POOL_GENERA for d in enumerate_sp(g) + enumerate_se(g)]
    rng = random.Random(seed)
    lines, expected, valid = [], [], 0
    for _ in range(count):
        g, d = rng.choice(pool)
        if rng.random() < INVALID_SHARE:
            a = d.a + 1
            failed = _failed_after_bump(d, a)
        else:
            a, failed = d.a, []
            valid += 1
        lines.append(_json_record(d, a) if rng.random() < 0.5 else _tuple_text(d, a))
        expected.append(json.dumps({"valid": not failed, "genus": g, "failed": failed},
                                   separators=(",", ":")))
    return lines, expected, valid


def _validate_mixed(seed: int, tiny: bool, outdir: Path) -> Invocation:
    lines, expected, valid = validate_input(seed, 2_000 if tiny else 100_000)
    path = outdir / f"validate-mixed.{'tiny-' if tiny else ''}input.txt"
    path.write_text("".join(line + "\n" for line in lines))
    digest = hashlib.sha256("".join(line + "\n" for line in expected).encode()).hexdigest()

    def check(result):
        got = result["tokens"][VALID_TOKEN]
        if got != valid:
            return [f"{got} valid reports, expected {valid}"]
        return []

    return Invocation(["validate", str(path), "--format", "json-lines"],
                      exit_code=2, digest=digest, tokens=(VALID_TOKEN,), check=check)
