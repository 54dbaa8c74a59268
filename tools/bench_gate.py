#!/usr/bin/env python3
"""Gate a traced benchmark result's exact counts against the newest BENCH file.

    python3 tools/bench_gate.py .bench_out/result-serve-1-1.json
    python3 tools/bench_gate.py RESULT --bench BENCH_16.json

RESULT is what `perfbench/run.py --trace 1` writes to
.bench_out/result-<workload>-<seed>-1.json: {"fingerprint", "result"}.
The BENCH file is the newest BENCH_<n>.json at the repository root unless
--bench names one. Its "traced" entry holds one traced run in the same
{"fingerprint", "result"} form.

Every `aqfp.*_per_image.*` and `crossbar.allocs_per_sample.*` metric in
the BENCH traced run must be in RESULT with the same value. They depend
only on the code, never on the host's speed, so they are judged on any
host. The other traced metrics are printed next to the BENCH value and
never judged.

End-to-end wall times are judged by `perfbench/spread.py --compare`,
which checks that both files carry the same host fingerprint: write the
BENCH file's "spread"."change" entry to a file and compare it with a
`spread.py --save` output of the same host.

Exit status: 0 pass, 1 an exact count differs or is missing, 2 unreadable
input.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = re.compile(r"^(aqfp\.[^.]+_per_image\.|crossbar\.allocs_per_sample\.)")
BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def newest_bench(directory):
    """The BENCH_<n>.json with the largest n in directory, or None."""
    found = [(int(m.group(1)), p) for p in Path(directory).iterdir()
             if (m := BENCH_NAME.match(p.name))]
    return max(found)[1] if found else None


def metric_values(traced):
    """{name: value} of a {"fingerprint", "result"} record."""
    return {name: m["value"]
            for name, m in traced["result"]["metrics"].items()}


def gate(result, bench):
    """Judge result's exact counts against bench; (failures, report lines)."""
    failures, lines = [], []
    got = metric_values(result)
    want = metric_values(bench["traced"])
    for name in sorted(n for n in want if EXACT.match(n)):
        if name not in got:
            failures.append(f"{name}: missing (BENCH {want[name]:g})")
        elif got[name] != want[name]:
            failures.append(f"{name}: {got[name]:g} != BENCH "
                            f"{want[name]:g}")
        else:
            lines.append(f"exact  {name:50s} {got[name]:g}")
    for name in sorted(n for n in got if not EXACT.match(n)):
        if name in want:
            lines.append(f"report {name:50s} {want[name]:12.6g} -> "
                         f"{got[name]:12.6g}")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result")
    parser.add_argument("--bench")
    args = parser.parse_args(argv)
    try:
        bench_path = Path(args.bench) if args.bench else newest_bench(ROOT)
        if bench_path is None:
            raise OSError(f"no BENCH_<n>.json in {ROOT}")
        result = json.loads(Path(args.result).read_text())
        bench = json.loads(bench_path.read_text())
    except (OSError, ValueError) as err:
        print(f"bench_gate: {err}", file=sys.stderr)
        return 2
    failures, lines = gate(result, bench)
    print(f"bench_gate: {args.result} against {bench_path.name}")
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    print("bench_gate: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
