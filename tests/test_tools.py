"""The developer tools under ``tools/``."""

import importlib.util
import json
from pathlib import Path

from mdgpusim.cli import Scenario

ROOT = Path(__file__).resolve().parent.parent


# a 2-era, nstlist 5 scenario: a count of it takes well under a second
SCENARIO = Scenario("count", "grappa_pme_1500", "acpp-23.10", max_cached_nodes=5,
                    eras=2, overrides={"system.nstlist": 5})


def _count_bytecodes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(
        "count_bytecodes", ROOT / "tools" / "count_bytecodes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bytecode_counts_repeat_exactly(monkeypatch):
    """A count is a figure to compare across trees only if it does not
    move between two counts of one tree."""
    tool = _count_bytecodes(monkeypatch)
    first, second = (tool.count([SCENARIO], keep_trace=False) for _ in range(2))
    ops, calls, lines = first
    assert first == second
    assert sum(ops.values()) > 0 and sum(calls.values()) > 0
    # the engine's loop is among the counted functions
    assert any(name == "Engine.run_until_idle" for _, _, name in ops)
    assert not lines  # no function was named for per-line counts


def test_per_line_counts_sum_to_the_function_total(monkeypatch):
    tool = _count_bytecodes(monkeypatch)
    ops, calls, lines = tool.count([SCENARIO], keep_trace=False, lines_of="Slot._run")
    (where, total), = [(w, n) for w, n in ops.items() if w[2] == "Slot._run"]
    filename, first_line, _ = where
    assert total > 0 and sum(lines.values()) == total
    # every counted line lies in that function's file, past its def line
    assert {f for f, _ in lines} == {filename}
    assert min(line for _, line in lines) > first_line and len(lines) > 5


def test_per_line_counts_print_the_engine_loop(monkeypatch, capsys):
    """Some opcodes of the engine loop have no line number; they print
    as line 0 instead of breaking the sort of the per-line table."""
    tool = _count_bytecodes(monkeypatch)
    name = "Engine.run_until_idle"
    ops, calls, lines = tool.count([SCENARIO], keep_trace=False, lines_of=name)
    assert tool._print_lines(name, ops, calls, lines) == 0
    out = capsys.readouterr().out.splitlines()
    assert name in out[0]
    assert sum(int(row.split()[0].replace(",", "")) for row in out[2:]) == sum(lines.values())


def test_module_totals_sum_to_the_pass_total(monkeypatch, capsys):
    """The rows sum to the pass, untraced and with a kept trace written
    to JSON as the benchmark does; that trace's output is a row of its own."""
    tool = _count_bytecodes(monkeypatch)
    for keep_trace in (False, True):
        ops, calls, _ = tool.count([SCENARIO], keep_trace=keep_trace)
        module_ops, module_calls = tool.by_module(ops, calls)
        assert sum(module_ops.values()) == sum(ops.values())
        assert sum(module_calls.values()) == sum(calls.values())
        # the engine and the runtime are layers of their own
        names = {Path(filename).name for filename in module_ops}
        assert {"engine.py", "runtime.py"} <= names
        assert tool._print_modules(module_ops, module_calls, ROOT) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(module_ops)
        assert sum(int(row.split()[0].replace(",", "")) for row in rows) == sum(ops.values())
        assert any(row.endswith("src/mdgpusim/engine.py") for row in rows)
    (row,) = [row for row in rows if row.endswith("src/mdgpusim/engine.py (trace output)")]
    assert int(row.split()[0].replace(",", "")) > 0


def test_json_is_one_line_of_machine_facts_totals_and_modules(monkeypatch, capsys):
    """``--json`` prints only one line per ``(workload, seed)``; its module
    rows are those of ``--by-module``, named alike on any machine."""
    tool = _count_bytecodes(monkeypatch)
    counted = tool.count([SCENARIO], keep_trace=True)
    monkeypatch.setattr(tool, "count", lambda *args: counted)
    assert tool.main(["trace-export", "--seed", "3", "--json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    got = json.loads(line)
    ops, calls, _ = counted
    assert (got["workload"], got["seed"]) == ("trace-export", 3)
    assert {"revision", "python"} <= set(got["machine"])
    assert (got["bytecodes"], got["calls"]) == (sum(ops.values()), sum(calls.values()))
    module_ops, module_calls = tool.by_module(ops, calls)
    assert sorted((row["bytecodes"], row["calls"]) for row in got["modules"].values()) == \
        sorted((n, module_calls[filename]) for filename, n in module_ops.items())
    modules = set(got["modules"])
    assert {"src/mdgpusim/engine.py", "src/mdgpusim/engine.py (trace output)"} <= modules
    assert all(not name.startswith("/") for name in modules)
