"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

For every workload, on a cut-down case list: one untraced and one traced
pass give identical answers and no failed case; the per-layer self times
of the traced pass sum to no more than its wall time; and a corrupted
expected answer makes the failed share positive. Also checks that the
metric names `run.py` prints are exactly those in BENCHMARK.json and
that `spec.json` maps every per-layer metric. Exit status 1 on any
problem.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def _flip_verdicts(answers):
    for a in answers.values():
        a["verdict"] = "unsat" if a["verdict"] == "sat" else "sat"


# One corrupted expected answer per workload, in cases the small plan runs.
CORRUPT = {
    "tableau-deep": lambda pool: _flip_verdicts(pool["classes"][0]["inputs"]),
    "verify-branching": lambda pool: _flip_verdicts(pool["search"][0]["inputs"]),
    "kim-library": lambda pool: _flip_verdicts(pool["machines"][0]["on"]),
}


def check_workload(name) -> list:
    problems = []
    plan = workloads.make(name, seed=1, small=True)
    result = run.measure(plan, seconds=0, traced=True)
    tally, recorder = result["tally"], result["recorder"]
    half = len(tally.answers) // 2
    if tally.answers[:half] != tally.answers[half:]:
        problems.append("traced and untraced answers differ")
    if tally.failures:
        problems.append(f"failed cases: {tally.failures}")
    for root, _ in result["traced_passes"]:
        layer_sum = sum(recorder.self_times(root).get(layer, 0.0) for layer in tracing.LAYERS)
        if layer_sum > recorder.duration(root):
            problems.append(f"layer self times {layer_sum} exceed the pass {recorder.duration(root)}")
    metrics = run.per_layer_metrics(result)
    if set(metrics) != set(run.per_layer_units(tracing.LAYERS)):
        problems.append("per-layer metrics differ from their declared units")

    pool = workloads.load_pool(name)
    CORRUPT[name](pool)
    corrupted = workloads.make(name, seed=1, small=True, pool=pool)
    tally = run.Tally()
    tally.run_pass(corrupted.pass_cases(corrupted.setup()))
    if not tally.failures:
        problems.append("a corrupted expected answer did not fail")
    return problems


def check_declarations() -> list:
    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {declared} != run.py {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = run.per_layer_units(tracing.LAYERS)
    if declared != printed:
        problems.append(f"per_layer in BENCHMARK.json differs from run.py: "
                        f"{sorted(set(declared.items()) ^ set(printed.items()))}")
    if set(run.SPEC["layers"]) != set(printed):
        problems.append("spec.json layers do not map exactly the per-layer metrics")
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if whys != {name: w["why"] for name, w in run.SPEC["workloads"].items()} \
            or set(whys) != set(workloads.WORKLOADS):
        problems.append("workloads differ between BENCHMARK.json, spec.json and workloads.py")
    return problems


def main() -> int:
    failed = False
    for name, problems in [("declarations", check_declarations())] + [
            (name, check_workload(name)) for name in workloads.WORKLOADS]:
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
