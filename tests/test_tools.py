"""The developer tools under ``tools/``."""

import importlib.util
from pathlib import Path

from mdgpusim.cli import Scenario

ROOT = Path(__file__).resolve().parent.parent


def test_bytecode_counts_repeat_exactly(monkeypatch):
    """A count is a figure to compare across trees only if it does not
    move between two counts of one tree."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(
        "count_bytecodes", ROOT / "tools" / "count_bytecodes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    scenario = Scenario("count", "grappa_pme_1500", "acpp-23.10", max_cached_nodes=5,
                        eras=2, overrides={"system.nstlist": 5})
    first, second = (tool.count([scenario], keep_trace=False) for _ in range(2))
    ops, calls = first
    assert first == second
    assert sum(ops.values()) > 0 and sum(calls.values()) > 0
    # the engine's loop is among the counted functions
    assert any(name == "Engine.run_until_idle" for _, _, name in ops)
