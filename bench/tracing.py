"""Span recorder for the traced benchmark run.

It wraps the program's public functions from outside: each wrapper is
installed under the name the *calling* module looks the function up by
(`parity.solve_dpll`, `sat.check_model` inside `solve_dpll`,
`reduction.used_rule_indices` inside `encode_history`, ...), so calls
made inside the program are recorded as well as the benchmark's own.
Spans (name, start, end, parent) stay in memory until `dump`. A span's
self time is its duration minus the time covered by its child spans.
Counts are taken from arguments and results at the same boundaries; the
time spent taking them is recorded as a `trace.bookkeeping` child span,
so it is charged to no layer.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from tmsatlab import fixtures, machine, parity, reduction, sat

BOOKKEEPING = "trace.bookkeeping"


def _count_oracle(counts, args, result):
    accepted, witness = result
    counts["machine.oracle_calls"] += 1
    if accepted:
        counts["machine.oracle_accepted"] += 1
        counts["machine.witness_transitions"] += witness.transitions


def _count_reduce(counts, args, f):
    counts["reduction.reduce_calls"] += 1
    counts["reduction.vars"] += f.var_count
    counts["reduction.clauses"] += f.clause_count
    for group, n in Counter(c.group for c in f.clauses).items():
        counts[f"reduction.clauses.{group}"] += n


def _count_solve(counts, args, result):
    counts["sat.solve_calls"] += 1
    counts["sat.sat_results"] += result.satisfiable


def _count_dimacs(counts, args, text):
    counts["sat.dimacs_bytes"] += len(text)


def _count_build(counts, args, pm):
    counts["parity.distinct_run_parts"] += len(
        {tuple(c.literals for c in entry.clauses) for entry in pm.library})


def _count_run(counts, args, report):
    pm = args[0]
    counts["parity.runs"] += 1
    counts["parity.instances"] += len(report.instances)
    counts["parity.solved_instances"] += len(report.instances) - len(pm.incompatible_indices)
    counts["parity.sat_instances"] += report.counter
    counts["parity.cost"] += report.cost


# (span name, count hook, [(module, attribute), ...]): every place the
# function is looked up on the paths the workloads run.
WRAPPED = (
    ("machine.parse", None, [(machine, "parse_machine"), (fixtures, "parse_machine")]),
    ("machine.oracle", _count_oracle, [(machine, "accepts_within")]),
    ("machine.licensing", None, [(reduction, "used_rule_indices")]),
    ("reduction.reduce", _count_reduce, [(reduction, "reduce_machine"),
                                         (parity, "reduce_machine")]),
    ("reduction.encode", None, [(reduction, "encode_history"), (parity, "encode_history")]),
    ("reduction.split", None, [(reduction, "input_part"), (reduction, "run_part"),
                               (parity, "input_part"), (parity, "run_part")]),
    ("reduction.concatenate", None, [(reduction, "concatenate"), (parity, "concatenate")]),
    ("reduction.decode", None, [(reduction, "decode_assignment"),
                                (parity, "decode_assignment")]),
    ("reduction.clause_counts", None, [(reduction, "clause_counts"),
                                       (parity, "clause_counts")]),
    ("sat.to_cnf", None, [(sat, "to_cnf"), (parity, "to_cnf")]),
    ("sat.solve", _count_solve, [(sat, "solve_dpll"), (parity, "solve_dpll")]),
    ("sat.check_model", None, [(sat, "check_model")]),
    ("sat.dimacs_write", _count_dimacs, [(sat, "to_dimacs")]),
    ("sat.dimacs_read", None, [(sat, "from_dimacs")]),
    ("parity.build", _count_build, [(parity, "build_parity_machine")]),
    ("parity.run", _count_run, [(parity, "run_parity_machine")]),
)
LAYERS = tuple(name for name, _, _ in WRAPPED)


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrapper(self, name, hook, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                with self.span(BOOKKEEPING):
                    hook(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        try:
            for name, hook, sites in WRAPPED:
                for module, attr in sites:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrapper(name, hook, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self, root):
        """Self time per span name over the spans below span `root`."""
        covered = defaultdict(float)
        below = {root}
        out = defaultdict(float)
        for idx in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if parent not in below:
                continue
            below.add(idx)
            covered[parent] += end - start
        for idx in below - {root}:
            name, start, end, _ = self.spans[idx]
            out[name] += end - start - covered[idx]
        return out

    def duration(self, idx):
        return self.spans[idx][2] - self.spans[idx][1]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
