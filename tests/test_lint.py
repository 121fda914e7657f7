"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mdgpusim").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# code whose references keep a package function alive: the package and
# the benchmark, never the tests
CALLERS = PACKAGE + sorted((ROOT / "bench").rglob("*.py"))
# the pure reference that the sampler tests compare ApiSampler.draw with
UNCALLED_ON_PURPOSE = {"ApiLatencyModel.sample"}


def unused_imports(source: str):
    """(line, name) for every name an import binds that the module never
    reads.  ``from __future__`` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_gate_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from typing import Dict, List\n"
              "x: Dict = os.path.sep\n")
    assert unused_imports(source) == [(3, "js"), (4, "List")]


def test_no_unused_imports():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in CHECKED
                 for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []


def references(source: str) -> set:
    """Every name the module reads (loads) as a bare name or as an
    attribute; a store, such as a field's own declaration, is no read."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unreferenced_defs(source: str, refs: set):
    """(line, qualified name) of every non-dunder ``def`` whose name is
    not in ``refs``; methods are qualified by their class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if (not isinstance(child, ast.ClassDef) and not dunder
                        and child.name not in refs):
                    found.append((child.lineno, qual))
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_gate_sees_unreferenced_defs():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        \"\"\"Not a reference: spare, helper.\"\"\"\n"
              "        def inner(): pass\n"
              "    def spare(self): pass\n"
              "def helper(): pass\n"
              "def called(): pass\n"
              "called()\n")
    assert unreferenced_defs(source, references(source)) == [
        (6, "A.used.inner"), (7, "A.spare"), (8, "helper")]


def test_every_package_def_has_a_caller():
    refs = set().union(*(references(path.read_text(encoding="utf-8"))
                         for path in CALLERS))
    offenders = [f"{path.relative_to(ROOT)}:{line}: {qual}"
                 for path in PACKAGE
                 for line, qual in unreferenced_defs(path.read_text(encoding="utf-8"), refs)
                 if qual not in UNCALLED_ON_PURPOSE]
    assert offenders == []


def unread_fields(source: str, refs: set):
    """(line, Class.field) of every annotated field declared in a class
    body whose name is not in ``refs``."""
    return sorted((stmt.lineno, f"{node.name}.{stmt.target.id}")
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in refs)


def test_gate_sees_unread_fields():
    source = ("class A:\n"
              "    read: int = 0\n"
              "    stored: int\n"
              "    def __init__(self):\n"
              "        self.stored = self.read\n"
              "        self.local: int = 1\n"
              "class B(A):\n"
              "    spare: str = 'read'\n")
    assert unread_fields(source, references(source)) == [(3, "A.stored"), (8, "B.spare")]


def test_every_package_field_is_read():
    refs = set().union(*(references(path.read_text(encoding="utf-8")) for path in CALLERS))
    offenders = [f"{path.relative_to(ROOT)}:{line}: {qual}"
                 for path in PACKAGE
                 for line, qual in unread_fields(path.read_text(encoding="utf-8"), refs)]
    assert offenders == []


def event_calls_outside(source: str, owner: str):
    """Line of every ``Event(...)`` or ``DevTask(...)`` call, bare or
    through a module, that does not lie inside the top-level function
    ``owner``; a ``DevTask`` is the event its completion fires."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == owner
              for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("Event", "DevTask"))


def test_gate_sees_events_made_outside_their_owner():
    source = ("def simulate():\n"
              "    ready = [Event(f'x.{s}') for s in range(3)]\n"
              "    sent = [DevTask(work, name=f'h.{s}') for s in range(3)]\n"
              "    def inner():\n"
              "        return Event('inner'), DevTask(work)\n"
              "def step_program():\n"
              "    return Event('t'), engine.Event('u'), Eventful()\n"
              "def send(wire, work):\n"
              "    wire.enqueue(DevTask(work, ()))\n"
              "    return runtime.DevTask(work), DevTasks()\n"
              "halo = Event('module')\n")
    assert event_calls_outside(source, "simulate") == [7, 7, 9, 10, 11]


def test_only_simulate_makes_events_in_the_pipeline():
    """The rank layout is chosen where the events and the wires' transfer
    tasks are made: a step program that made its own would state a
    layout of its own."""
    source = (ROOT / "src" / "mdgpusim" / "pipeline.py").read_text(encoding="utf-8")
    assert event_calls_outside(source, "simulate") == []
