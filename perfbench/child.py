"""One pass of a workload, in a process of its own.

    python3 perfbench/child.py                      # set up only
    python3 perfbench/child.py PLAN TRACE SPANS     # set up, then run PLAN

Set-up is importing `twistfrac` and building its argument parser; the
child then writes `ready` on stdout, so the parent can time it from process
start.  With a PLAN (a JSON list of invocations written by run.py) it runs
each invocation through `twistfrac.cli.main` into a `Sink` and writes one
JSON report line: per-invocation exit code, timings, byte, line and token
counts, stdout sha256, and the process's peak RSS, plus the times of
`reference_s()` run just before and after the plan.

With TRACE = 1 the child first wraps the package's public functions, under
the names the calling module imported them by, in spans and counters
(`Tracer`); the report then also carries per-layer totals, and the spans
are written to SPANS as JSON at the end.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# reference_s() runs this many times before and after the pass.
REFERENCE_REPEATS = 4


class Sink:
    """Stands in for stdout: counts and hashes what is written, stamps the first write."""

    def __init__(self, tokens=(), keep=False):
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.first = None
        self.tokens = dict.fromkeys(tokens, 0)
        self.kept = [] if keep else None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        data = text.encode()
        self.hash.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        for token in self.tokens:
            self.tokens[token] += text.count(token)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)


# Spans: (module the caller imported the name into, name, layer, tally).
# A tally (counter, function of the result) adds to a per-layer count.
SPANS = (
    ("enumeration", "cone_signatures", "arith.cone_signatures",
     ("arith.cone_signatures.results", len)),
    ("cli", "enumerate_sp", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("cli", "enumerate_se", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("enumeration", "enumerate_sp", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("enumeration", "enumerate_se", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("laws", "enumerate_sp", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("laws", "enumerate_se", "enumeration.enumerate", ("enumeration.enumerate.sets", len)),
    ("cli", "enumerate_oracle", "enumeration.oracle", ("enumeration.oracle.sets", len)),
    ("laws", "genus_sp", "datasets.genus", None),
    ("laws", "genus_se", "datasets.genus", None),
    ("cli", "to_record", "datasets.to_record", None),
    ("cli", "validate", "datasets.validate",
     ("datasets.validate.valid", lambda report: report.valid)),
    ("laws", "check_sp_laws", "laws.check",
     ("laws.violations", lambda reports: sum(not r.holds for r in reports))),
    ("laws", "check_se_laws", "laws.check",
     ("laws.violations", lambda reports: sum(not r.holds for r in reports))),
    ("cli", "parse_record_line", "cli.parse", None),
    ("cli", "render_listing", "cli.render", None),
)

# Boundaries crossed millions of times a pass get a count only; their time
# stays in the caller's span.  (module, name, counter)
COUNTS = (
    ("enumeration", "units_mod", "arith.units_mod.calls"),
    ("enumeration", "sp_genus_if_valid", "datasets.kernel.calls"),
    ("enumeration", "se_genus_if_valid", "datasets.kernel.calls"),
)

ROOT_SPAN = ("cli", "main", "cli.main")


class Tracer:
    """In-memory spans and counts at the boundaries between twistfrac's modules.

    A span is [name, start, end, parent index, invocation id]; the parent
    is the span open when it started, -1 for an invocation's root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.invocation = 0
        self.layer_of: dict[str, str] = {}

    def span(self, name: str, layer: str, fn, tally=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        self.layer_of[name] = layer

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result

        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def install(self, package):
        """Wrap every boundary in SPANS and COUNTS; return the traced cli.main."""
        for module_name, attr, layer, tally in SPANS:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            if attr == "render_listing":
                fn = self._counting_render_bytes(fn)
            setattr(module, attr, self.span(f"twistfrac.{module_name}.{attr}", layer, fn, tally))
        for module_name, attr, key in COUNTS:
            module = getattr(package, module_name)
            setattr(module, attr, self.counter(key, getattr(module, attr)))
        module_name, attr, layer = ROOT_SPAN
        return self.span(f"twistfrac.{module_name}.{attr}", layer,
                         getattr(getattr(package, module_name), attr))

    def _counting_render_bytes(self, render):
        counts = self.counts

        def render_listing(sets, fmt, out, *args, **kwargs):
            before = out.bytes
            result = render(sets, fmt, out, *args, **kwargs)
            counts["cli.render.bytes"] += out.bytes - before
            return result

        return render_listing

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        return [end - start - covered
                for (_, start, end, _, _), covered in zip(self.spans, inner)]

    def layers(self) -> dict[str, float]:
        """Per-layer call counts, self seconds and tallies, summed over the pass."""
        out = Counter(self.counts)
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            layer = self.layer_of[name]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
        return dict(out)


def reference_s() -> float:
    """Seconds for a fixed pure-Python job: how fast this host runs Python now.

    The job builds, serializes and sorts small records, as the workloads do.
    """
    start = perf_counter()
    table = {}
    for chunk in range(16):
        rows = []
        for i in range(chunk * 1000, chunk * 1000 + 1000):
            key = i * 7919 % 40_009
            table[key] = table.get(key % 1009, 0) + i
            rows.append(json.dumps({"l": i % 97, "n": [i, key], "cones": [[i % 7, 9], [key % 5, 3]]}))
        rows.sort()
    return perf_counter() - start


def run_plan(cli_main, plan, tracer):
    results = []
    for number, invocation in enumerate(plan):
        sink = Sink(invocation["tokens"], invocation["keep"])
        if tracer is not None:
            tracer.invocation = number
        error = None
        start = perf_counter()
        try:
            exit_code = cli_main(invocation["argv"], stdout=sink)
        except Exception:  # a crash fails this invocation, not the pass
            exit_code, error = None, traceback.format_exc()
        end = perf_counter()
        results.append({
            "exit_code": exit_code,
            "error": error,
            "wall_s": end - start,
            "first_output_s": (sink.first if sink.first is not None else end) - start,
            "bytes": sink.bytes,
            "lines": sink.lines,
            "tokens": sink.tokens,
            "sha256": sink.hash.hexdigest(),
            "text": None if sink.kept is None else "".join(sink.kept),
        })
    return results


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import twistfrac
    from twistfrac import cli

    cli.build_parser()
    protocol, sys.stdout = sys.stdout, sys.stderr  # keep stray prints off the protocol
    protocol.write("ready\n")
    protocol.flush()
    if not argv:
        return 0

    plan_path, trace, spans_path = argv
    plan = json.loads(Path(plan_path).read_text())
    tracer = Tracer() if trace == "1" else None
    cli_main = tracer.install(twistfrac) if tracer is not None else cli.main

    references = [reference_s() for _ in range(REFERENCE_REPEATS)]
    start = perf_counter()
    results = run_plan(cli_main, plan, tracer)
    wall_s = perf_counter() - start
    references += [reference_s() for _ in range(REFERENCE_REPEATS)]
    report = {
        "wall_s": wall_s,
        "reference_s": references,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "invocations": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        Path(spans_path).write_text(json.dumps(tracer.spans))
    protocol.write(json.dumps(report) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
