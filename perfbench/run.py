"""Benchmark of whole twistfrac CLI runs, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload in turn

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads, their inputs and their output checks are in
workloads.py; the metric names and units are read from BENCHMARK.json.

The load is a closed loop with one client.  A run is a sequence of passes;
each pass is one fresh child process (child.py) that sets up and then runs
the workload's invocations one at a time.  Passes start while the next one
is predicted to end within S seconds (at least one, or one of each kind
with --trace 1).  Before the passes, set-up-only children are timed.

--trace 0 prints the end-to-end metrics, medians over passes:
  wall_s          time from the first invocation's start to the last one's end
  items_per_s     items (sets written, table rows, sets checked or records
                  validated) per second of wall_s
  first_output_s  summed over invocations, time from start to first stdout byte
  peak_rss_mib    peak resident memory of the pass's process
  setup_s         process start until twistfrac is imported and its parser built
Pass times are scaled to reference seconds by the host factor (see
REFERENCE_NOMINAL_S); the unscaled values are printed beside them.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, plus trace.overhead_s (traced minus untraced
wall_s).

Every invocation's exit code and output are checked; `failed` counts the
invocations that did not pass, and error_rate = failed / attempted.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5
# child.reference_s() takes about this long on a 2-core sandbox.  Pass
# times are reported in reference seconds: each pass's raw times are scaled
# by REFERENCE_NOMINAL_S / (median reference time measured around the
# pass), which takes out most of the host's drift in speed.  Set-up time
# does not follow the reference (it is mostly process start) and stays raw.
REFERENCE_NOMINAL_S = 0.075
RUN_LIMIT_S = 170  # a run, children included, must end well within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run: missing sources or a child that failed."""


def spawn(args: list[str], deadline: float):
    """Run child.py; return (set-up seconds, report or None)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            body = proc.stdout.read()
        finally:
            watchdog.cancel()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"child.py {' '.join(args)} failed (exit code {proc.returncode})")
    return setup_s, (json.loads(body) if args else None)


def run_passes(plan_path: Path, spans_path: Path, seconds: int, trace: bool):
    """Set-up probes, then passes until the next would end after `seconds`."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn([], deadline)  # byte-compiles the package, so later set-ups do not pay for it
    setups = [spawn([], deadline)[0] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        setup_s, report = spawn([str(plan_path), "1" if traced else "0", str(spans_path)],
                                deadline)
        setups.append(setup_s)
        report["traced"] = traced
        passes.append(report)
        elapsed = time.monotonic() - start
        if len(passes) >= 1 + trace and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return setups, passes


def check(invocations, passes):
    """Attempted and failed invocation counts, and the problems found."""
    attempted, failed, problems = 0, 0, []
    for report in passes:
        for invocation, result in zip(invocations, report["invocations"], strict=True):
            found = invocation.problems(result)
            attempted += 1
            failed += bool(found)
            problems += [f"{' '.join(invocation.argv)}: {p}" for p in found]
    return attempted, failed, problems


def pass_summary(invocations, report) -> dict:
    return {
        "traced": report["traced"],
        "wall_s": report["wall_s"],
        "items": sum(inv.items(res) for inv, res in zip(invocations, report["invocations"])
                     if not res["error"]),
        "first_output_s": sum(res["first_output_s"] for res in report["invocations"]),
        "peak_rss_mib": report["peak_rss_mib"],
        "host_factor": REFERENCE_NOMINAL_S / statistics.median(report["reference_s"]),
        "layers": report.get("layers"),
    }


def end_to_end(summaries, setups, scaled=True) -> dict[str, float]:
    untraced = [s for s in summaries if not s["traced"]]
    factors = [s["host_factor"] if scaled else 1.0 for s in untraced]
    return {
        "wall_s": statistics.median(s["wall_s"] * f for s, f in zip(untraced, factors)),
        "items_per_s": statistics.median(s["items"] / (s["wall_s"] * f)
                                         for s, f in zip(untraced, factors)),
        "first_output_s": statistics.median(s["first_output_s"] * f
                                            for s, f in zip(untraced, factors)),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in untraced),
        "setup_s": statistics.median(setups),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(summaries, names) -> dict[str, float]:
    traced = [s for s in summaries if s["traced"]]
    untraced = [s for s in summaries if not s["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(s["wall_s"] * s["host_factor"] for s in traced)
                            - statistics.median(s["wall_s"] * s["host_factor"] for s in untraced))
            continue
        samples = []
        for s in traced:
            layers = s["layers"]
            if name.endswith("_s"):
                samples.append(layers.get(name, 0) * s["host_factor"])
            elif name == "datasets.kernel.accept_ratio":
                samples.append(_ratio(layers.get("enumeration.oracle.sets", 0),
                                      layers.get("datasets.kernel.calls", 0)))
            elif name == "datasets.validate.valid_ratio":
                samples.append(_ratio(layers.get("datasets.validate.valid", 0),
                                      layers.get("datasets.validate.calls", 0)))
            else:
                samples.append(layers.get(name, 0))
        values[name] = statistics.median(samples)
    return values


def measure(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """One run of one workload: its checks and its metrics."""
    invocations = workloads.plan(name, seed, tiny=False, outdir=OUT)
    plan_path = OUT / f"{name}.plan.json"
    plan_path.write_text(json.dumps([inv.to_child() for inv in invocations]))
    setups, passes = run_passes(plan_path, OUT / f"{name}.spans.json", seconds, trace)
    attempted, failed, problems = check(invocations, passes)
    summaries = [pass_summary(invocations, report) for report in passes]
    if trace:
        metrics = per_layer(summaries, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(summaries, setups)
        unscaled = end_to_end(summaries, setups, scaled=False)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metrics": metrics, "unscaled": None if trace else unscaled,
        "setup_s": setups, "passes": summaries, "problems": problems,
        "sha256": [[" ".join(inv.argv), res["sha256"]]
                   for inv, res in zip(invocations, passes[0]["invocations"])],
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "unscaled": {} if trace else unscaled,
        "host_factor": statistics.median(s["host_factor"] for s in summaries),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    required = [ROOT / "BENCHMARK.json", ROOT / "src" / "twistfrac" / "cli.py",
                ROOT / "tests" / "reference_data.py"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"run from the root of a twistfrac checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = measure(name, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    metrics = {}
    for name, run in runs.items():
        for problem in run["problems"][:20]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        print(f"{name}: error_rate {run['failed'] / run['attempted']:.4f} "
              f"({run['failed']} of {run['attempted']} invocations)")
        print(f"{name}: host_factor {run['host_factor']:.4f} (reference seconds per second)")
        for key, metric in run["metrics"].items():
            raw = run["unscaled"].get(key)
            note = "" if raw is None or raw == metric["value"] else f" (unscaled {raw:.6g})"
            print(f"{name}: {key} {metric['value']:.6g} {metric['unit']}{note}")
            metrics[key if len(runs) == 1 else f"{name}.{key}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
