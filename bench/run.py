"""Closed-loop benchmark of tmsatlab: one client, one case at a time.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. The workloads are in `workloads.py`, their pools and expected
answers in `expected/`, and what each metric should move in `spec.json`.

Set-up is timed several times and reported as its median. Passes over
the workload's cases then repeat, with a garbage collection before each
(untimed), until `--seconds` have passed and at least MIN_CASES cases
have run. Every answer is checked against the expected answers; a case
that raises or differs counts as failed (failed_share = failed /
attempted in the result line).

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` untraced and traced passes alternate, set-up is traced
once, and the last line carries the per-layer metrics: self time (`_s`)
and counts over one set-up plus one pass. Both modes write a record with
the Python version, CPU count and commit to `.bench_out/`, and the
traced mode writes its spans there too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
try:
    import tmsatlab
except ImportError:
    tmsatlab = None
if tmsatlab is None or Path(tmsatlab.__file__).resolve().parent != ROOT / "src" / "tmsatlab":
    sys.exit(f"error: no program source at {ROOT / 'src' / 'tmsatlab'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5        # at least this many timed set-ups ...
SETUP_MIN_SECONDS = 2.0  # ... over at least this much wall time, so a
                         # sub-millisecond set-up is not timed in one burst
MIN_CASES = 50          # enough for 10 samples beyond the 80th percentile
TAIL_PERCENTILE = 80
MAX_MEASURE_SECONDS = 120  # stop short of MIN_CASES rather than overrun

END_TO_END = {"job_s": "s", "case_p50_ms": "ms", "case_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mib": "MiB"}
COUNTS = {
    "machine.oracle_calls": "count", "machine.oracle_accept_share": "share",
    "machine.witness_transitions": "count",
    "reduction.reduce_calls": "count", "reduction.vars": "count",
    "reduction.clauses": "count",
    **{f"reduction.clauses.G{g}": "count" for g in range(1, 7)},
    "sat.solve_calls": "count", "sat.sat_share": "share", "sat.dimacs_bytes": "B",
    "parity.instances": "count", "parity.solved_instances": "count",
    "parity.sat_instances": "count", "parity.distinct_run_parts": "count",
    "parity.solves_per_distinct_run_part": "ratio", "parity.cost": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units(layers) -> dict:
    return {**{f"{layer}_s": "s" for layer in layers}, **COUNTS}


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(plan):
    """Median set-up time over several repeats, and the last set-up's state."""
    times = []
    start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - start < SETUP_MIN_SECONDS:
        state = None  # let the previous set-up's objects go before the next
        gc.collect()
        t0 = perf_counter()
        state = plan.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times), state


class Tally:
    """Case outcomes and times of one run."""

    def __init__(self):
        self.case_times = []
        self.pass_times = []
        self.attempted = 0
        self.failures = []
        self.answers = []

    def run_pass(self, cases, recorder=None):
        """Run one pass; returns its wall time."""
        t0 = perf_counter()
        for case in cases:
            c0 = perf_counter()
            try:
                if recorder is None:
                    answer = case.run()
                else:
                    with recorder.span("case"):
                        answer = case.run()
                problems = workloads.mismatches(answer, case.expected)
            except Exception:  # a crashing case is a failed case, not a crashed benchmark
                answer = None
                problems = [traceback.format_exc(limit=3)]
            if recorder is None:
                self.case_times.append(perf_counter() - c0)
            self.attempted += 1
            self.answers.append((case.label, answer))
            if problems:
                self.failures.append((case.label, problems))
        return perf_counter() - t0


def tail_percentile(n: int) -> int:
    """TAIL_PERCENTILE, or the highest percentile with 10 samples beyond
    it when a slow run ends with fewer than MIN_CASES cases."""
    if n >= MIN_CASES:
        return TAIL_PERCENTILE
    return max(1, 100 * (n - 10) // n) if n > 10 else 100


def case_quantiles(times):
    ms = sorted(t * 1000 for t in times)
    pct = tail_percentile(len(ms))
    tail = ms[-1] if pct == 100 or len(ms) < 2 else \
        statistics.quantiles(ms, n=100, method="inclusive")[pct - 1]
    return statistics.median(ms), tail, pct


def measure(plan, seconds: int, traced: bool):
    setup_s, state = timed_setup(plan)
    tally = Tally()
    recorder = setup_root = None
    traced_passes = []  # (root span index, counts of the pass)
    if traced:
        recorder = tracing.Recorder()
        gc.collect()
        with recorder.installed(), recorder.span("setup") as setup_root:
            plan.setup()
        setup_counts = +recorder.counts
    start = perf_counter()
    traced_times = []
    while True:
        gc.collect()
        tally.pass_times.append(tally.run_pass(plan.pass_cases(state)))
        if traced:
            gc.collect()
            before = recorder.counts.copy()
            with recorder.installed(), recorder.span("pass") as root:
                tally.run_pass(plan.pass_cases(state), recorder)
            traced_times.append(recorder.duration(root))
            traced_passes.append((root, recorder.counts - before))
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_SECONDS or (
                elapsed >= seconds and (traced or len(tally.case_times) >= MIN_CASES)):
            break
    result = {"setup_s": setup_s, "tally": tally}
    if traced:
        result.update(recorder=recorder, setup_root=setup_root, setup_counts=setup_counts,
                      traced_passes=traced_passes, traced_job_s=statistics.median(traced_times))
    return result


def per_layer_metrics(run) -> dict:
    recorder = run["recorder"]
    setup_self = recorder.self_times(run["setup_root"])
    pass_selfs = [recorder.self_times(root) for root, _ in run["traced_passes"]]
    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}_s"] = setup_self.get(layer, 0.0) + statistics.median(
            s.get(layer, 0.0) for s in pass_selfs)
    pass_counts = run["traced_passes"][0][1]
    counts = run["setup_counts"] + pass_counts
    values.update({name: counts[name] for name in COUNTS})
    values["machine.oracle_accept_share"] = \
        counts["machine.oracle_accepted"] / counts["machine.oracle_calls"] \
        if counts["machine.oracle_calls"] else 0.0
    values["sat.sat_share"] = \
        counts["sat.sat_results"] / counts["sat.solve_calls"] if counts["sat.solve_calls"] else 0.0
    runs_per_pass = pass_counts["parity.runs"]
    distinct = counts["parity.distinct_run_parts"]
    values["parity.solves_per_distinct_run_part"] = \
        pass_counts["parity.solved_instances"] / (distinct * runs_per_pass) \
        if distinct and runs_per_pass else 0.0
    values["trace.overhead_ratio"] = run["traced_job_s"] / statistics.median(
        run["tally"].pass_times)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else SPEC["workloads"][args.workload]["default_seed"]

    plan = workloads.make(args.workload, seed)
    run = measure(plan, args.seconds, bool(args.trace))
    tally = run["tally"]
    if args.trace:
        values = per_layer_metrics(run)
        units = per_layer_units(tracing.LAYERS)
        extra = {}
    else:
        p50, tail, pct = case_quantiles(tally.case_times)
        values = {"job_s": statistics.median(tally.pass_times), "case_p50_ms": p50,
                  "case_tail_ms": tail, "setup_s": run["setup_s"],
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        extra = {"tail_percentile": pct, "cases": len(tally.case_times)}
    failed = len(tally.failures)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "commit": commit_id(),
              "pass_times": tally.pass_times, "failed_share": failed / tally.attempted,
              **extra, "failures": tally.failures[:20], "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        run["recorder"].dump(OUT_DIR / f"{stem}-spans.json")
    summary = {k: v for k, v in record.items() if k not in ("failures", "result")}
    print(json.dumps(summary), file=sys.stderr)
    for label, problems in tally.failures[:5]:
        print(f"FAILED {label}: {problems[0]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
