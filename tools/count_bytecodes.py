#!/usr/bin/env python3
"""Executed bytecodes and calls per function over one pass of a workload.

Host timings on a shared machine move with the other tenants; the count
of bytecodes the interpreter executes does not.  This tool runs each
scenario of one ``bench/workloads.py`` workload once, the way
``bench/measure.py`` ``execute`` does, under ``sys.settrace`` with
opcode events on, and prints the totals and the functions that execute
the most bytecodes:

    python3 tools/count_bytecodes.py submit-12k --seed 0 --top 20
    python3 tools/count_bytecodes.py strong-46m --root ../other-checkout
    python3 tools/count_bytecodes.py submit-12k --lines Slot._run
    python3 tools/count_bytecodes.py submit-12k --by-module
    python3 tools/count_bytecodes.py trace-export --json >> counts.jsonl

With ``--by-module`` it prints, in place of the function table, the
totals per source file, largest first: the package's modules are its
layers (the engine, the runtime, the cost draws, the step programs, the
CLI and its CSV).  The engine's trace output (``Trace``, ``_Records``
and ``_json_scalar``) is a layer of its own, on a row of its own.  A
file under the checkout is named by its path there, and a file of the
standard library by its path under ``<stdlib>``.  With ``--json`` it
prints only one JSON line for the ``(workload, seed)``: the machine
facts of ``bench/run.py``, revision and Python version among them, the
pass totals and the per-module counts.  With ``--lines QUALNAME`` it
prints, in place of the function table, the bytecodes each source line
of the functions with that qualified name executed.  Opcodes that
belong to no line are counted under line 0, shown as ``(no line)``.

Only Python frames are counted: a builtin such as ``heapq.heappush``
counts as no call and no bytecode.  A generator's every resume counts as
a call of its function.  ``--root`` names the checkout whose ``src`` and
``bench`` are used (by default the one holding this file); ``bench`` is
only read.
"""

from __future__ import annotations

import argparse
import gc
import json
import linecache
import sys
import sysconfig
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()


def _import_checkout(root: Path) -> None:
    """Put ``root``'s ``src`` and ``bench`` first on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]


def count(scenarios: Iterable, keep_trace: bool,
          lines_of: Optional[str] = None) -> Tuple[Counter, Counter, Counter]:
    """(bytecodes, calls) per ``(file, line, function)`` over one execution
    of each scenario, after an untraced one, and the bytecodes per
    ``(file, line)`` executed in the functions whose qualified name is
    ``lines_of`` (none unless it is given)."""
    from measure import execute  # bench/measure.py, on the path by now

    ops: Counter = Counter()
    calls: Counter = Counter()
    lines: Counter = Counter()

    def on_call(frame, event, arg):
        code = frame.f_code
        calls[code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_line_event if code.co_qualname == lines_of else on_event

    def on_event(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return on_event

    def on_line_event(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
            # some opcodes have no line (f_lineno None): they count as line 0
            lines[frame.f_code.co_filename, frame.f_lineno or 0] += 1
        return on_line_event

    # one untraced execution first warms every lazy import and memo, so
    # that two counts of the same scenarios agree
    scenarios = list(scenarios)
    for scenario in scenarios:
        execute(scenario, keep_trace)
    # with the cyclic collector off, no finalizer runs at a moment that
    # depends on what the tracer itself allocated
    collecting, tracer = gc.isenabled(), sys.gettrace()
    gc.disable()
    sys.settrace(on_call)
    try:
        for scenario in scenarios:
            execute(scenario, keep_trace)
    finally:
        sys.settrace(tracer)
        if collecting:
            gc.enable()

    def key(code):
        return (code.co_filename, code.co_firstlineno, code.co_qualname)
    return (Counter({key(c): n for c, n in ops.items()}),
            Counter({key(c): n for c, n in calls.items()}), lines)


# engine.py's trace output, counted apart from the engine loop it sits beside
TRACE_OUTPUT = ("Trace.", "_Records.", "_json_scalar")


def _layer(filename: str, qualname: str) -> str:
    """The row of a function: its source file, or, for engine.py's trace
    output, that file marked ``(trace output)``."""
    if Path(filename).name == "engine.py" and qualname.startswith(TRACE_OUTPUT):
        return f"{filename} (trace output)"
    return filename


def by_module(ops: Counter, calls: Counter) -> Tuple[Counter, Counter]:
    """The bytecodes and calls of ``count`` summed per source file, with
    engine.py's trace output on a row of its own."""
    module_ops: Counter = Counter()
    module_calls: Counter = Counter()
    for (filename, _, qualname), n in ops.items():
        module_ops[_layer(filename, qualname)] += n
    for (filename, _, qualname), n in calls.items():
        module_calls[_layer(filename, qualname)] += n
    return module_ops, module_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=15,
                        help="functions to list, by bytecodes (default 15)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to count (default: this one)")
    parser.add_argument("--lines", metavar="QUALNAME",
                        help="print per-line bytecodes of the functions so named")
    parser.add_argument("--by-module", action="store_true",
                        help="print bytecodes and calls per source file")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON line: machine facts, totals, per-module counts")
    args = parser.parse_args(argv)
    _import_checkout(args.root.resolve())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops, calls, lines = count(workload.scenarios(args.seed), workload.keep_trace,
                              args.lines)
    root = args.root.resolve()
    if args.json:
        print(json.dumps(record(args.workload, args.seed, ops, calls, root), sort_keys=True))
        return 0
    print(f"{args.workload} seed {args.seed}: {sum(ops.values()):,} bytecodes, "
          f"{sum(calls.values()):,} calls")
    if args.lines is not None:
        return _print_lines(args.lines, ops, calls, lines)
    if args.by_module:
        return _print_modules(*by_module(ops, calls), root)
    print(f"{'bytecodes':>12}{'calls':>10}  function")
    for where, n in ops.most_common(args.top):
        filename, line, name = where
        print(f"{n:>12,}{calls[where]:>10,}  {name} ({Path(filename).name}:{line})")
    return 0


def shown(filename: str, root: Path) -> str:
    """A row's file: by its path under ``root``, or under ``<stdlib>`` for
    the standard library, so rows of two machines compare."""
    module, _, mark = filename.partition(" (")
    path = Path(module)
    if path.is_relative_to(root):
        module = str(path.relative_to(root))
    elif path.is_relative_to(STDLIB):
        module = str("<stdlib>" / path.relative_to(STDLIB))
    return module + (" (" + mark if mark else "")


def record(workload: str, seed: int, ops: Counter, calls: Counter, root: Path) -> dict:
    """One count as a JSON-ready object: the machine facts, the pass
    totals and, per module row, its bytecodes and calls."""
    from run import machine_facts  # bench/run.py, on the path by now

    module_ops, module_calls = by_module(ops, calls)
    return {"workload": workload, "seed": seed, "machine": machine_facts(),
            "bytecodes": sum(ops.values()), "calls": sum(calls.values()),
            "modules": {shown(filename, root): {"bytecodes": n, "calls": module_calls[filename]}
                        for filename, n in module_ops.most_common()}}


def _print_modules(ops: Counter, calls: Counter, root: Path) -> int:
    """Bytecodes and calls per source file, each file as ``shown`` names it."""
    print(f"{'bytecodes':>12}{'calls':>10}  module")
    for filename, n in ops.most_common():
        print(f"{n:>12,}{calls[filename]:>10,}  {shown(filename, root)}")
    return 0


def _print_lines(qualname: str, ops: Counter, calls: Counter, lines: Counter) -> int:
    """Each function named ``qualname`` with its bytecodes per line."""
    named = sorted(where for where in ops if where[2] == qualname)
    if not named:
        print(f"error: no function named {qualname!r} ran", file=sys.stderr)
        return 2
    for where in named:
        filename, first, name = where
        print(f"{ops[where]:>12,}{calls[where]:>10,}  {name} ({Path(filename).name}:{first})")
    print(f"{'bytecodes':>12}{'line':>10}  source")
    for (filename, line), n in sorted(lines.items()):
        source = linecache.getline(filename, line).rstrip() if line else "(no line)"
        print(f"{n:>12,}{line:>10}  {source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
