"""Self-test of the benchmark, on tiny versions of each workload.

    python3 perfbench/selftest.py

For each workload it runs one untraced and one traced pass, then checks that
every invocation passes its output checks, that tracing on and off give
identical stdout digests, that every child span lies inside its parent
within one invocation, and that the spans' self times add up to each
invocation's wall time.  Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from child import Tracer
from run import OUT, ROOT, check, spawn

SELF_TIME_SLACK_S = 0.002  # wrapper overhead between the timer and the root span


def span_problems(spans: list[list], walls: list[float]) -> list[str]:
    problems = []
    roots = [s for s in spans if s[3] < 0]
    if [s[4] for s in roots] != list(range(len(walls))):
        problems.append(f"root spans for invocations {[s[4] for s in roots]}, "
                        f"expected one for each of {len(walls)}")
    for name, start, end, parent, invocation in spans:
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_invocation = spans[parent]
        if not (p_start <= start <= end <= p_end and p_invocation == invocation):
            problems.append(f"span {name} [{start}, {end}] of invocation {invocation} lies "
                            f"outside its parent {p_name} [{p_start}, {p_end}]")
    tracer = Tracer()
    tracer.spans = spans
    totals = [0.0] * len(walls)
    for span, self_s in zip(spans, tracer.self_times()):
        totals[span[4]] += self_s
    for invocation, (total, wall) in enumerate(zip(totals, walls)):
        if not 0 <= wall - total <= SELF_TIME_SLACK_S:
            problems.append(f"invocation {invocation}: self times add up to {total:.6f} s, "
                            f"wall time is {wall:.6f} s")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + 600
    failed = False
    for name in workloads.NAMES:
        invocations = workloads.plan(name, seed=1, tiny=True, outdir=OUT)
        plan_path = OUT / f"{name}.tiny-plan.json"
        spans_path = OUT / f"{name}.tiny-spans.json"
        plan_path.write_text(json.dumps([inv.to_child() for inv in invocations]))
        reports = []
        for trace in ("0", "1"):
            _, report = spawn([str(plan_path), trace, str(spans_path)], deadline)
            reports.append(report)
        untraced, traced = reports

        problems = check(invocations, reports)[2]
        problems += [f"{' '.join(inv.argv)}: digest {a['sha256']} untraced, {b['sha256']} traced"
                     for inv, a, b in zip(invocations, untraced["invocations"],
                                          traced["invocations"])
                     if a["sha256"] != b["sha256"]]
        problems += span_problems(json.loads(spans_path.read_text()),
                                  [res["wall_s"] for res in traced["invocations"]])
        failed = failed or bool(problems)
        print(f"{name}: {'FAIL' if problems else 'ok'} ({len(invocations)} invocations)")
        for problem in problems[:5]:
            print(f"  {problem}")
        if len(problems) > 5:
            print(f"  ... and {len(problems) - 5} more")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
