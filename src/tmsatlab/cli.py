"""Command-line surface.

Thin adapters over the core modules: parse arguments, dispatch, render.
Exit codes: 0 success / agreement, 1 failed boolean check, 2 usage or
a guard on the input's size, 3 file or input-format errors and a failed
write to stdout, stderr or an `-o` file, 10/20 sat/unsat for `solve`, 70
internal invariant breach (a model or a refutation that fails its check).
Every byte the CLI writes, but argparse's help and usage text, goes
through `_emit`, as UTF-8.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import argument, parity
from .corpus import run_corpus_checks
from .machine import (
    MachineError,
    MachineSemanticError,
    accepts_within,
    extract_particular_table,
    merge_tables,
    parse_machine,
)
from .reduction import (
    ReductionError,
    _check_bound,
    check_clause_limit,
    encode_history,
    input_part,
    reduce_machine,
    run_part,
)
from .sat import (
    DimacsError,
    LearntLimitError,
    SatError,
    check_refutation,
    from_dimacs,
    solve_dpll,
    to_cnf,
    to_dimacs,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_INTERNAL = 70


class _FileError(Exception):
    """A file or stream that cannot be read or written, or a file whose
    contents are malformed: exit 3."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc


def _load_machine(path: str):
    try:
        return parse_machine(_read_text(path), name=Path(path).stem)
    except MachineError as exc:
        raise _FileError(f"{path}: {exc}") from exc


def _emit(text: str, out_path=None, stream="stdout"):
    """Write text as UTF-8 to the file out_path or, with none, to the
    standard stream named `stream` (looked up at each call, so a redirected
    stream is written): the same bytes whatever the locale's encoding. A
    library entry's name whose bytes on disk are not UTF-8 is written as
    those bytes. A write that fails or stops short raises `_FileError`;
    the stream is then closed, so the interpreter does not try its
    unwritten bytes again when it flushes the streams at exit."""
    data = text.encode("utf-8", "surrogateescape")
    file = None if out_path else getattr(sys, stream)
    try:
        if out_path:
            Path(out_path).write_bytes(data)
        elif file is None:  # its descriptor was closed when the interpreter started
            raise OSError("the stream is closed")
        elif (written := file.buffer.write(data)) != len(data):
            raise OSError(f"wrote {written} of {len(data)} bytes")
        else:
            file.buffer.flush()
    except (OSError, ValueError) as exc:  # ValueError: closed by an earlier failure
        if file is not None:
            with contextlib.suppress(OSError, ValueError):
                file.buffer.close()
        raise _FileError(f"cannot write {out_path or stream}: {exc}") from exc


def _emit_lines(lines, out_path=None, stream="stdout"):
    """Write each line, and a newline after it, through `_emit`."""
    _emit("".join(f"{line}\n" for line in lines), out_path, stream)


def _cmd_reduce(args) -> int:
    _check_bound(args.bound)
    m = _load_machine(args.machine)
    f = reduce_machine(m, args.input, args.bound)
    if args.part == "input":
        f = input_part(f)
    elif args.part == "run":
        f = run_part(f)
    _emit(to_dimacs(f), args.output)
    return EXIT_OK


def _cmd_solve(args) -> int:
    try:
        f = from_dimacs(_read_text(args.file))
    except DimacsError as exc:
        raise _FileError(f"{args.file}: {exc}") from exc
    result = solve_dpll(f)
    if result.satisfiable:
        lits = [v if result.assignment[v] else -v for v in sorted(result.assignment)]
        _emit_lines(["s SATISFIABLE", " ".join(["v", *map(str, lits), "0"])])
        return EXIT_SAT
    if not check_refutation(f, result.learnt):
        raise SatError("refutation fails verification")
    _emit_lines(["s UNSATISFIABLE"])
    return EXIT_UNSAT


def _cmd_verify(args) -> int:
    _check_bound(args.bound)
    m = _load_machine(args.machine)
    check_clause_limit(m, args.bound)
    accepted, _ = accepts_within(m, args.input, args.bound)
    result = solve_dpll(to_cnf(reduce_machine(m, args.input, args.bound)))
    oracle = "accept" if accepted else "reject"
    verdict = "SAT" if result.satisfiable else "UNSAT"
    agree = accepted == result.satisfiable
    _emit_lines([f"oracle={oracle}, sat={verdict}, {'agree' if agree else 'DISAGREE'}"])
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_history(args) -> int:
    encode = args.action == "encode"
    if encode:
        _check_bound(args.bound)
    m = _load_machine(args.machine)
    if encode:
        check_clause_limit(m, args.bound)
    accepted, witness = accepts_within(m, args.input, args.bound)
    if not accepted:
        _emit_lines([f"{m.name} does not accept {args.input!r} within {args.bound} "
                     "transitions"], stream="stderr")
        return EXIT_CHECK_FAILED
    if encode:
        f, assignment = encode_history(m, witness, args.bound)
        lits = " ".join(str(v if assignment[v] else -v) for v in sorted(assignment))
        _emit(to_dimacs(f) + f"c induced-assignment: {lits}\n", args.output)
    else:  # extract
        _emit_lines(_rule_lines(extract_particular_table(witness, m)), args.output)
    return EXIT_OK


def _rule_lines(table):
    """One `rule:` line per rule of a transition table, in `rules()` order."""
    return [f"rule: {state} {symbol} -> {nxt} {write} {move}"
            for state, symbol, nxt, write, move in table.rules()]


def _cmd_merge(args) -> int:
    ma = _load_machine(args.table_a)
    mb = _load_machine(args.table_b)
    merged = merge_tables(ma.table, mb.table, ma.start, mb.start)
    _emit_lines([f"selector: {merged.selector_state} -> "
                 f"{merged.selector[0]} | {merged.selector[1]}", *_rule_lines(merged)])
    return EXIT_OK


def _load_library(dir_path: str, bound: int):
    """A library directory holds one `<name>.tm` per entry, with the
    witness input in a sibling `<name>.in` (missing file = empty input).
    Entries are taken in sorted filename order. An entry's name is its
    stem's bytes on disk read as UTF-8, whatever the locale's file-system
    encoding, with bytes that are not UTF-8 kept as surrogate escapes."""
    directory = Path(dir_path)
    if not directory.is_dir():
        raise _FileError(f"{dir_path} is not a directory")
    histories, names = [], []
    for tm_path in sorted(directory.glob("*.tm")):
        m = _load_machine(str(tm_path))
        try:
            check_clause_limit(m, bound)
        except ReductionError as exc:
            raise ReductionError(f"{tm_path.name}: {exc}") from exc
        in_path = tm_path.with_suffix(".in")
        y = _read_text(str(in_path)).strip() if in_path.exists() else ""
        try:
            accepted, witness = accepts_within(m, y, bound)
        except MachineSemanticError as exc:  # a symbol outside m's input alphabet
            raise _FileError(f"{in_path.name}: {exc}") from exc
        if not accepted:
            raise _FileError(
                f"{tm_path.name}: machine does not accept {y!r} within {bound} "
                "transitions; cannot encode a run part")
        histories.append((m, witness))
        names.append(os.fsencode(tm_path.stem).decode("utf-8", "surrogateescape"))
    return histories, names


def _cmd_kim(args) -> int:
    _check_bound(args.bound)
    base = _load_machine(args.base)
    if args.action != "build":  # only run and metrics reduce the base
        check_clause_limit(base, args.bound)
    histories, names = _load_library(args.library, args.bound)
    pm = parity.build_parity_machine(histories, args.bound, base)
    if args.action == "build":
        entries = [{"index": idx, "name": names[idx], "clauses": entry.clause_count,
                    "compatible": idx not in pm.incompatible_indices}
                   for idx, entry in enumerate(pm.library)]
        info = {"entries": entries, "bound": pm.bound, "base": base.name,
                "distinct_run_parts": len({id(entry) for entry in pm.library})}
        if args.json:
            _emit_lines([json.dumps(info, indent=2)])
        else:
            lines = [f"entry {entry['index']} ({entry['name']}): {entry['clauses']} run-part "
                     f"clauses, {'compatible' if entry['compatible'] else 'grid-incompatible'}"
                     for entry in info["entries"]]
            _emit_lines([*lines, f"{info['distinct_run_parts']} distinct run parts "
                                 f"for {len(pm.library)} entries"])
        return EXIT_OK

    report = parity.run_parity_machine(pm, args.input)
    if args.action == "run":
        if args.json:
            _emit_lines([parity.report_to_json(report)])
        else:
            lines = [f"instance {inst.index} ({names[inst.index]}): {inst.clause_count} "
                     f"clauses, {'sat' if inst.satisfiable else 'unsat'}"
                     for inst in report.instances]
            _emit_lines([*lines, f"counter={report.counter} accept={report.accept} "
                                 f"cost={report.cost}"])
        return EXIT_OK

    # metrics
    if args.chosen is not None and not 0 <= args.chosen < len(report.instances):
        raise ValueError(f"--chosen {args.chosen} is not an instance index "
                         f"(the library has {len(report.instances)} entries)")
    chosen = args.chosen if args.chosen is not None else report.designated
    if chosen is None:
        _emit_lines(["no satisfiable instance to take metrics from"], stream="stderr")
        return EXIT_CHECK_FAILED
    try:
        metrics, claims = parity.metrics_view(report, chosen)
    except parity.UndecodedInstanceError as exc:
        _emit_lines([f"error: {exc}"], stream="stderr")
        return EXIT_CHECK_FAILED
    if args.json:
        _emit_lines([json.dumps({"chosen": chosen, "metrics": metrics, "claims": claims},
                                indent=2)])
    else:
        _emit_lines([f"chosen={chosen} i={metrics['i']} j={metrics['j']} k={metrics['k']}",
                     f"i>j: {claims['i_gt_j']}  j>k: {claims['j_gt_k']}  "
                     f"i=k: {claims['i_eq_k']}"])
    return EXIT_OK


def _cmd_argue(args) -> int:
    if args.schema:
        arg = argument.parse_argument_file(_read_text(args.schema))
        report = argument.analyze_argument(arg)
    else:
        report = argument.analyze_modus_tollens_schema()
    if args.json:
        _emit_lines([json.dumps(report, indent=2)])
    else:
        lines = []
        for key, value in report.items():
            if key == "schema":
                lines += [f"premise: {premise}" for premise in value["premises"]]
                if "axiom" in value:
                    lines.append(f"axiom: {value['axiom']}")
                lines.append(f"conclusion: {value['conclusion']}")
            else:
                lines.append(f"{key}={json.dumps(value)}")
        _emit_lines(lines)
    return EXIT_OK


def _cmd_corpus_test(args) -> int:
    ok = True
    for passed, line in run_corpus_checks():
        _emit_lines([line])
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsatlab",
        description="Turing machine to CNF reduction laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p):
        p.add_argument("-m", "--machine", required=True, help="machine file")
        p.add_argument("-i", "--input", default="", help="input string")
        p.add_argument("-T", "--bound", type=int, required=True,
                       help="transition bound")

    p = sub.add_parser("reduce", help="machine + input + bound -> DIMACS CNF")
    add_machine_args(p)
    p.add_argument("-o", "--output", help="write DIMACS here instead of stdout")
    p.add_argument("--part", choices=["all", "input", "run"], default="all")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="solve a DIMACS file (exit 10 sat / 20 unsat)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check simulator vs reduction agreement")
    add_machine_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("history", help="encode or extract an accepting history")
    p.add_argument("action", choices=["encode", "extract"])
    add_machine_args(p)
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_history)

    p = sub.add_parser("merge", help="merge two machines' transition tables")
    p.add_argument("-a", "--table-a", required=True, help="first machine file")
    p.add_argument("-b", "--table-b", required=True, help="second machine file")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("kim", help="library machine: build, run, or metrics")
    p.add_argument("action", choices=["build", "run", "metrics"])
    p.add_argument("--library", required=True,
                   help="directory of <name>.tm (+ optional <name>.in) entries")
    p.add_argument("--base", required=True, help="base machine file")
    p.add_argument("-T", "--bound", type=int, required=True)
    p.add_argument("-i", "--input", default="", help="input string (run/metrics)")
    p.add_argument("--chosen", type=int, help="instance index for metrics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kim)

    p = sub.add_parser("argue", help="analyze an argument schema")
    p.add_argument("--schema", help="schema file (defaults to the built-in one)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_argue)

    p = sub.add_parser("corpus-test", help="run the fixture property suite")
    p.set_defaults(func=_cmd_corpus_test)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FileError as exc:
        code, message = EXIT_FILE, f"error: {exc}"
    except (MachineError, ReductionError, argument.ArgumentError, LearntLimitError,
            ValueError) as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except SatError as exc:
        code, message = EXIT_INTERNAL, f"internal error: {exc}"
    with contextlib.suppress(_FileError):  # stderr failed too: the code still tells
        _emit_lines([message], stream="stderr")
    return code


if __name__ == "__main__":
    sys.exit(main())
