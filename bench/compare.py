"""Compare two sets of benchmark records, or show the spread of one set.

    python3 bench/compare.py SET            # spread of every metric across SET
    python3 bench/compare.py BASE CHANGED   # what changed from BASE to CHANGED

A set is a directory of the records `run.py` writes to `.bench_out/`
(copy that directory aside after each set of runs).

Spread is the distance between the first and third quartiles of a
metric's values across the set's runs, as a share of their median; it
is flagged when it exceeds the metric's bound in BENCHMARK.json.

Comparing: every count (a per-layer metric not in seconds, other than
trace.overhead_ratio) must be identical for the same workload and seed,
and a changed count is flagged. Timings are never compared run by run:
for each workload the median of each end-to-end metric in CHANGED is
checked against the median in BASE, and flagged when it is worse by more
than the metric's bound. A failed case in either set is flagged.

Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
TIMING_RATIOS = {"trace.overhead_ratio"}


def load(directory):
    """{(workload, trace): {seed: record}}"""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text())
        out[(record["workload"], record["trace"])][record["seed"]] = record
    return out


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records.values()]


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / median if median else 0.0


def failures(sets):
    flagged = []
    for key, records in sets.items():
        for seed, r in records.items():
            if r["result"]["failed"]:
                flagged.append(f"{key[0]} seed {seed} trace {key[1]}: "
                               f"{r['result']['failed']}/{r['result']['attempted']} cases failed")
    return flagged


def describe(sets):
    envs = {(r["python"], r["nproc"], r["commit"]) for records in sets.values()
            for r in records.values()}
    for python, nproc, commit in sorted(envs):
        print(f"  python {python}, nproc {nproc}, commit {commit}")


def show_spread(sets) -> list:
    flagged = failures(sets)
    for (workload, trace), records in sorted(sets.items()):
        if trace:
            continue
        print(f"{workload}: {len(records)} runs")
        for name, spec in E2E.items():
            xs = values(records, name)
            s = spread(xs)
            mark = ""
            if name != "setup_s" and s > spec["bound"]:
                mark = "  OVER BOUND"
                flagged.append(f"{workload} {name} spread {s:.3f} > bound {spec['bound']}")
            elif name != "setup_s" and s > spec["bound"] / 3:
                mark = "  over a third of the bound"
            print(f"  {name:14s} median {statistics.median(xs):12.4f} {spec['unit']:4s} "
                  f"spread {s:6.3f} (bound {spec['bound']}){mark}")
    return flagged


def compare(base, changed) -> list:
    flagged = failures(base) + failures(changed)
    for key in sorted(set(base) & set(changed)):
        workload, trace = key
        if trace:
            for seed in sorted(set(base[key]) & set(changed[key])):
                a = base[key][seed]["result"]["metrics"]
                b = changed[key][seed]["result"]["metrics"]
                for name in sorted(set(a) | set(b)):
                    if name in TIMING_RATIOS or a.get(name, {}).get("unit") == "s":
                        continue
                    va, vb = a.get(name, {}).get("value"), b.get(name, {}).get("value")
                    if va != vb:
                        flagged.append(f"{workload} seed {seed}: count {name} changed "
                                       f"{va} -> {vb}")
            continue
        print(f"{workload}: {len(base[key])} base runs, {len(changed[key])} changed runs")
        for name, spec in E2E.items():
            ma = statistics.median(values(base[key], name))
            mb = statistics.median(values(changed[key], name))
            delta = (mb - ma) / ma
            worse = delta if spec["better"] == "lower" else -delta
            mark = ""
            if worse > spec["bound"]:
                mark = "  WORSE THAN BOUND"
                flagged.append(f"{workload} {name} worse by {worse:.3f} > bound {spec['bound']}")
            print(f"  {name:14s} {ma:12.4f} -> {mb:12.4f} {spec['unit']:4s} "
                  f"({delta:+.3f}, bound {spec['bound']}){mark}")
    return flagged


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    for d, s in zip(argv, sets):
        print(f"{d}:")
        describe(s)
    flagged = show_spread(sets[0]) if len(sets) == 1 else compare(*sets)
    for line in flagged:
        print(f"FLAG {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
