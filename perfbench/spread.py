#!/usr/bin/env python3
"""Run-to-run spread and regression comparison for the benchmark.

    python3 perfbench/spread.py --workload serve --runs 10 --save a.json
    python3 perfbench/spread.py --compare parent.json child.json
    python3 perfbench/spread.py --self-test

The first form runs perfbench/run.py once per seed (seeds 1..runs unless
--first-seed is given) and reports, for every end-to-end metric named in
BENCHMARK.json, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, flagging spreads wider than a third of the
metric's bound (setup_s is exempt: only its median is compared).

--compare checks, workload by workload, that each metric's median in the
second file is no worse than in the first by more than the metric's
bound. Wall times are compared only when both files carry the same host
fingerprint; otherwise the comparison is reported but not judged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_PREFIX = "perfbench-fingerprint "


def quartile_spread(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def within_bound(parent, child, bound, better):
    """True when child is no worse than parent by more than bound."""
    if better == "lower":
        return child <= parent * (1.0 + bound)
    return child >= parent * (1.0 - bound)


def self_test():
    """Crafted inputs with known answers; returns failure messages."""
    failures = []

    def expect(name, got, want):
        if abs(got - want) > 1e-12:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    med, q1, q3, spread = quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    expect("median of 1..10", med, 5.5)
    expect("q1 of 1..10", q1, 2.75)
    expect("q3 of 1..10", q3, 8.25)
    expect("spread of 1..10", spread, 1.0)
    med, q1, q3, _ = quartile_spread([10.0, 40.0, 20.0, 30.0])
    expect("median of 4", med, 25.0)
    expect("q1 of 4", q1, 12.5)
    expect("q3 of 4", q3, 37.5)
    cases = [
        ((100.0, 110.0, 0.1, "lower"), True),
        ((100.0, 110.5, 0.1, "lower"), False),
        ((100.0, 90.0, 0.1, "higher"), True),
        ((100.0, 89.5, 0.1, "higher"), False),
        ((100.0, 50.0, 0.0, "lower"), True),
        ((100.0, 150.0, 0.0, "higher"), True),
    ]
    for args, want in cases:
        if within_bound(*args) != want:
            failures.append(f"within_bound{args} != {want}")
    return failures


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run; returns (result dict, fingerprint dict)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}")
    fingerprint = {}
    for line in lines:
        if line.startswith(FINGERPRINT_PREFIX):
            fingerprint = json.loads(line[len(FINGERPRINT_PREFIX):])
    return json.loads(lines[-1]), fingerprint


def collect(workloads, seeds, seconds):
    out = {"fingerprint": None, "workloads": {}}
    for workload in workloads:
        series = out["workloads"].setdefault(workload, {})
        for seed in seeds:
            result, fingerprint = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect")
            out["fingerprint"] = fingerprint.get("hash")
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), file=sys.stderr)
    return out


def report(data, spec):
    ok = True
    for workload, series in data["workloads"].items():
        for metric in spec["end_to_end"]:
            values = series[metric["name"]]
            med, q1, q3, spread = quartile_spread(values)
            limit = metric["bound"] / 3.0
            flag = ""
            if metric["name"] != "setup_s" and spread > limit:
                flag = f"  WIDE (> bound/3 = {limit:.3f})"
                ok = False
            print(f"{workload:12s} {metric['name']:18s} median {med:12.6g}"
                  f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}"
                  f"{flag}")
    return ok


def compare(parent, child, spec):
    judged = (parent.get("fingerprint") is not None
              and parent.get("fingerprint") == child.get("fingerprint"))
    if not judged:
        print("fingerprints differ: report only")
    ok = True
    for workload, series in child["workloads"].items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = statistics.median(parent["workloads"][workload][name])
            after = statistics.median(series[name])
            good = within_bound(before, after, metric["bound"],
                                metric["better"])
            ok = ok and (good or not judged)
            print(f"{workload:12s} {name:18s} {before:12.6g} -> "
                  f"{after:12.6g}  {'ok' if good else 'WORSE'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        failures = self_test()
        print("\n".join(failures) or "self-test ok")
        return 1 if failures else 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        parent, child = (json.loads(Path(p).read_text())
                         for p in args.compare)
        return 0 if compare(parent, child, spec) else 1
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    data = collect(workloads, seeds, args.seconds or spec["run_seconds"])
    if args.save:
        Path(args.save).write_text(json.dumps(data, indent=1) + "\n")
    return 0 if report(data, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
