"""Command-line front end behavior.

Runs ``main`` in-process with temp files, covering the CSV schema,
one row per scenario, sweep expansion, reference checking with its
exit-code contract, affinity printing, trace files, and the docs
of each verb.
"""

import argparse
import dataclasses
import gc
import io
import json
import math
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mdgpusim import cli, presets
from mdgpusim.cli import (
    AXIS_KEYS,
    COLUMNS,
    CSV_SCHEMA,
    Scenario,
    load_bundled_references,
    main,
    scenarios_from_config,
)
from mdgpusim.config import ConfigError, is_int, parse_config
from mdgpusim.presets import SystemPreset
from mdgpusim.runtime import RunSettings, RuntimeProfile


def read_rows(path):
    import csv
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def write_report(path, rows):
    """A minimal report file with only the columns the rows mention."""
    import csv
    import io
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA}\r\n")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def test_simulate_writes_versioned_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2",
                 "--output", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(f"# {CSV_SCHEMA}\r\n".encode())
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == COLUMNS
    assert row["system"] == "grappa_pme_1500"
    assert row["steps"] == "100"
    assert 0.0 < float(row["gpu_utilization"]) <= 1.0
    assert 0.0 < float(row["app_utilization"]) <= 1.0
    assert row["median_ms_per_step"] == row["ms_per_step"]


def test_scenario_alone_defines_the_run_fields():
    run_fields = [f for f in Scenario.__dataclass_fields__
                  if f not in ("scenario_id", "overrides")]
    assert sorted(run_fields) == sorted(AXIS_KEYS)
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in verbs.choices["simulate"]._actions}
    assert set(run_fields) <= flags
    # an absent flag leaves no attribute, so Scenario's default applies
    given_fields = vars(parser.parse_args(
        ["simulate", "--system", "s", "--profile", "p"]))
    assert set(given_fields) & set(run_fields) == {"system", "profile"}


README = Path(__file__).resolve().parent.parent / "README.md"


def verb_options():
    """Every verb's long options, ``--help`` aside."""
    verbs = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return {verb: {o for a in sub._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for verb, sub in verbs.choices.items()}


def shown_flags(text):
    """(verb, flag) for each long flag a text shows: on an ``mdgpusim
    <verb>`` command line, backslash continuations joined, with its verb;
    in an inline code span, with None for any verb."""
    for line in text.replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["mdgpusim"]:
            verb = words[1] if len(words) > 1 else ""
            yield from ((verb, w.split("=")[0]) for w in words[2:] if w.startswith("--"))
    for span in re.findall(r"`([^`\n]+)`", text):
        yield from ((None, flag) for flag in re.findall(r"--[\w-]+", span))


def test_gate_sees_flags_in_commands_and_code_spans():
    text = ("```sh\n"
            "mdgpusim simulate --system s \\\n"
            "    --eras=2\n"
            "pip install --user x\n"
            "```\n"
            "Use `--repetitions 5` or --seed.\n")
    assert list(shown_flags(text)) == [
        ("simulate", "--system"), ("simulate", "--eras"), (None, "--repetitions")]


def test_readme_documents_every_flag_and_no_other():
    text = README.read_text(encoding="utf-8")
    options = verb_options()
    anywhere = set().union(*options.values())
    undocumented = sorted(f"{verb} {opt}" for verb, opts in options.items() for opt in opts
                          if not re.search(re.escape(opt) + r"(?![\w-])", text))
    unknown = sorted(f"{verb or 'any verb'} {flag}" for verb, flag in shown_flags(text)
                     if flag not in (anywhere if verb is None else options.get(verb, ())))
    assert (undocumented, unknown) == ([], [])


def test_every_verb_is_documented():
    """The parser's verbs, the module docstring's ``Verbs:`` list and the
    README's ``### <verb>`` headings under ``## Command line`` name the
    same verbs, so adding or deleting one leaves no stale docs."""
    parsed = set(verb_options())
    listing = cli.__doc__.split("\nVerbs:\n", 1)[1].split("\n\n", 1)[0]
    docstring = {line.split()[0] for line in listing.splitlines()
                 if line.startswith("    ") and not line.startswith("     ")}
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    readme = set(re.findall(r"^### (\S+)$", section, flags=re.M))
    assert parsed == docstring == readme, (parsed, docstring, readme)


def test_scenario_flags_and_sweep_keys_are_documented():
    """README's ``### simulate`` defaults paragraph names exactly the
    scenario flags, and its sweep section lists exactly the sweep keys in
    one list, so a run option that goes leaves no stale docs."""
    parser = argparse.ArgumentParser()
    cli._add_scenario_flags(parser)
    registered = {o for a in parser._actions for o in a.option_strings
                  if o.startswith("--") and o != "--help"}
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]
    defaults = next(p for p in section.split("\n\n") if "are required" in p)
    assert set(re.findall(r"--[\w-]+", defaults)) == registered

    listed = re.search(r"Scenario keys\s+\(([^)]*)\)", text)[1]
    assert tuple(re.findall(r"`(\w+)`", listed)) == AXIS_KEYS
    # every key is an axis, so no second kind of key is documented
    assert not re.search(r"(?i)scalar\s+keys", text)


def test_csv_output_is_byte_stable(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["simulate", "--system", "grappa_rf_3k",
                     "--profile", "acpp-0.9.4", "--eras", "2",
                     "--output", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unclaimed_hw_queues_change_no_byte(tmp_path):
    # pp0 has 6 streams at 3 ranks, so 6 queues already give each its own
    outputs = []
    for queues in ("6", "1000000"):
        csv, trace = tmp_path / f"{queues}.csv", tmp_path / f"{queues}.json"
        assert main(["simulate", "--system", "grappa_pme_1500", "--profile", "acpp-23.10",
                     "--ranks", "3", "--eras", "2", "--set", "system.nstlist=10",
                     "--set", f"settings.max_hw_queues={queues}",
                     "--output", str(csv), "--trace", str(trace)]) == 0
        outputs.append((csv.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_set_override_reaches_the_system(tmp_path):
    out = tmp_path / "short.csv"
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2",
                 "--set", "system.nstlist=50", "--output", str(out)])
    assert code == 0
    assert read_rows(out)[0]["steps"] == "50"


def test_unknown_override_field_is_rejected(tmp_path, capsys):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2",
                 "--set", "profile.no_such_knob=1"])
    assert code == 2
    assert "no_such_knob" in capsys.readouterr().err


@pytest.mark.parametrize("ranks", ["1", "3"])
@pytest.mark.parametrize("atoms", ["0", "-5"])
def test_atomless_system_is_rejected(capsys, ranks, atoms):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2", "--ranks", ranks,
                 "--set", f"system.atoms={atoms}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: grappa_pme_1500: need at least one atom, got {atoms}\n")


@pytest.mark.parametrize("flags, message", [
    (["--ranks", "0"], "ranks must be an integer >= 1, got 0"),
    (["--ranks", "-3"], "ranks must be an integer >= 1, got -3"),
    (["--eras", "1"], "n_eras must be an integer >= 2 (the first era is warm-up), got 1"),
    (["--backend", "cuda"], "backend must be one of sycl, hip, got 'cuda'"),
    (["--ranks", "2", "--set", "settings.visible_devices=9"],
     "visible_devices must be at most the 8 devices of a node, got 9"),
], ids=["ranks-0", "ranks-neg", "eras-1", "backend-cuda", "visible-devices-9"])
def test_bad_run_shape_is_one_error_line(capsys, flags, message):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2"] + flags)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_RUN = ["simulate", "--system", "grappa_pme_1500", "--profile", "acpp-23.10"]


@pytest.mark.parametrize("argv, names", [
    (_RUN + ["--ranks", "abc"], "--ranks"),
    (["simulate", "--profile", "acpp-23.10"], "--system"),
    (_RUN + ["--event-mode", "bogus"], "--event-mode"),
    ([], "verb"),
    (_RUN + ["--node", "lumi"], "--node lumi"),
    (["export-trace", *_RUN[1:]], "argument verb: invalid choice: 'export-trace'"),
], ids=["bad-int", "missing-flag", "bad-choice", "no-verb", "unknown-flag",
        "unknown-verb"])
def test_bad_command_line_is_one_error_line(capsys, argv, names):
    """argparse's own complaint, without its usage block and without
    raising ``SystemExit`` out of ``main``."""
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert names in out.err


@pytest.mark.parametrize("override, message", [
    ("atoms=abc", "atoms must be an integer, got 'abc'"),
    ("nstlist=0", "nstlist must be >= 1, got 0"),
    ("pme=abc", "pme must be true or false, got 'abc'"),
    ("nbnxm_scale=abc", "nbnxm_scale must be a number above 0, got 'abc'"),
])
def test_bad_system_field_is_one_error_line(capsys, override, message):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2",
                 "--set", f"system.{override}"])
    assert code == 2
    assert capsys.readouterr().err == f"error: grappa_pme_1500: {message}\n"


@pytest.mark.parametrize("override, message", [
    ("settings.max_hw_queues=abc",
     "GPU_MAX_HW_QUEUES must be an integer >= 1, got 'abc'"),
    ("profile.submit_cost_ns=abc",
     "acpp-23.10: submit_cost_ns must be an integer >= 0, got 'abc'"),
    ("profile.pme_comm_overlap=abc",
     "acpp-23.10: pme_comm_overlap must be true or false, got 'abc'"),
    # the costs every runtime version shares, or every version that
    # defers, are model constants, not profile fields
    *[(f"profile.{key}=0", f"unknown profile field {key!r}")
      for key in ("app_step_cpu_ns", "dispatch_gap_ns", "oversub_extra_ns",
                  "event_device_cost_ns", "flush_trigger_cost_ns", "retire_rate",
                  "retire_flush_cap_ns", "retire_sync_cap_ns")],
    # every system shares these, so they are model constants, not system
    # fields
    *[(f"system.{key}=4", f"unknown system field {key!r}")
      for key in ("dt_fs", "search_cpu_ns_per_atom")],
    ("system.nbnxm_scale=1.7e308",
     "a setting is too large to simulate: cannot convert float infinity to integer"),
    # a line break would start a second key
    ("system.nstlist=10\nsystem.atoms=50",
     "--set expects one key=value, got 'system.nstlist=10\\nsystem.atoms=50'"),
    ("system.nstlist=10\r\nsystem.atoms=50",
     "--set expects one key=value, got 'system.nstlist=10\\r\\nsystem.atoms=50'"),
    ("system.nstlist=10\u2028system.atoms=50",
     "--set expects one key=value, got 'system.nstlist=10\\u2028system.atoms=50'"),
    # not a comment line to skip, and not a key without a value
    ("#system.nstlist=5",
     "override '#system.nstlist' must start with system., profile. or settings."),
    ("system.nstlist=", "--set expects one key=value, got 'system.nstlist='"),
])
def test_bad_override_is_one_error_line(capsys, override, message):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "acpp-23.10", "--eras", "2", "--set", override])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == f"error: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize("second", ["system.nstlist=10", " system.nstlist = 5"],
                         ids=["other-value", "same-value"])
def test_repeated_override_is_one_error_line(capsys, second):
    """A key that two ``--set`` give is refused, as a config file refuses
    a duplicate key, instead of keeping the last value."""
    code = main(["simulate", *_RUN_FLAGS, "--set", "system.nstlist=5", "--set", second])
    out = capsys.readouterr()
    assert code == 2
    assert (out.out, out.err) == ("", "error: --set gives system.nstlist twice\n")


_SET_KEYS =[f"{scope}.{f.name}" for scope, cls in (
    ("system", SystemPreset), ("profile", RuntimeProfile), ("settings", RunSettings))
    for f in dataclasses.fields(cls)]
# nstlist sets how many steps run, so a large one asks for a long valid run
_SIZING_KEYS = ("system.nstlist",)
_SET_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=64), st.integers(), st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


@pytest.mark.parametrize("key", _SET_KEYS)
@settings(max_examples=12, deadline=None)
@given(value=_SET_VALUES, ranks=st.sampled_from(["1", "3"]))
def test_set_value_runs_or_is_one_error_line(key, value, ranks):
    assume(not (key in _SIZING_KEYS and is_int(value) and value > 64))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["simulate", "--system", "grappa_pme_1500",
                     "--profile", "acpp-23.10", "--eras", "2", "--ranks", ranks,
                     "--set", "system.nstlist=10",
                     "--set", f"{key}={_config_text(value)}"])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")


def test_unknown_system_is_rejected(capsys):
    code = main(["simulate", "--system", "not_a_system",
                 "--profile", "acpp-23.10"])
    assert code == 2
    assert "not_a_system" in capsys.readouterr().err


def test_deferred_run_on_instant_only_profile_is_rejected(capsys):
    code = main(["simulate", "--system", "grappa_pme_1500",
                 "--profile", "hip-native", "--eras", "2"])
    assert code == 2
    assert "hip-native" in capsys.readouterr().err


def test_sweep_expands_axis_lists(tmp_path):
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(
        "fig.system = grappa_pme_1500\n"
        "fig.profile = acpp-23.10\n"
        "fig.max_cached_nodes = 0 100\n"
        "fig.eras = 2\n", encoding="utf-8")
    out = tmp_path / "matrix.csv"
    assert main(["sweep", "--scenarios", str(cfg),
                 "--output", str(out)]) == 0
    rows = read_rows(out)
    assert [r["scenario"] for r in rows] == [
        "fig/max_cached_nodes=0", "fig/max_cached_nodes=100"]
    assert [r["max_cached_nodes"] for r in rows] == ["0", "100"]


def test_sweep_types_axis_tokens_like_config_values():
    scenarios = scenarios_from_config(parse_config(
        "a.system = grappa_pme_1500\n"
        "a.profile = acpp-23.10\n"
        "a.instant = false true\n"
        "a.max_cached_nodes = 5\n"
        "b.system = grappa_pme_1500\n"
        "b.profile = acpp-23.10\n"
        "b.instant = true\n"))
    assert [(s.scenario_id, s.instant, s.max_cached_nodes) for s in scenarios] == [
        ("a/instant=false", False, 5), ("a/instant=true", True, 5),
        ("b", True, 100)]


def test_eras_and_seed_sweep_like_every_other_key(tmp_path):
    """Each point of an eras-by-seed sweep gives, bar its id, the row
    that a sweep of that one point gives."""
    def sweep_rows(eras, seed):
        cfg, out = tmp_path / "matrix.cfg", tmp_path / "matrix.csv"
        cfg.write_text("fig.system = grappa_pme_1500\nfig.profile = acpp-23.10\n"
                       f"fig.eras = {eras}\nfig.seed = {seed}\n", encoding="utf-8")
        assert main(["sweep", "--scenarios", str(cfg), "--output", str(out)]) == 0
        # the schema and header lines, then one line a row, then ""
        return [line.split(b",", 1) for line in out.read_bytes().split(b"\r\n")[2:-1]]

    rows = sweep_rows("2 3", "1 2")
    points = [(eras, seed) for eras in (2, 3) for seed in (1, 2)]
    assert [sid for sid, _ in rows] == [f"fig/eras={e}/seed={s}".encode() for e, s in points]
    assert [rest for _, rest in rows] == [sweep_rows(*point)[0][1] for point in points]
    assert len({rest for _, rest in rows}) == 4


def sweep_fails_before_any_scenario_runs(monkeypatch, tmp_path, capsys, line):
    """The one stderr line of a sweep over ``line`` that must not run."""
    def simulate(*args, **kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(cli, "simulate", simulate)
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(
        "fig.system = grappa_pme_1500\n"
        "fig.profile = acpp-23.10\n"
        f"{line}\n", encoding="utf-8")
    out = tmp_path / "matrix.csv"
    assert main(["sweep", "--scenarios", str(cfg), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    return captured.err


def test_sweep_with_an_unknown_backend_fails_before_any_scenario_runs(
        monkeypatch, tmp_path, capsys):
    err = sweep_fails_before_any_scenario_runs(
        monkeypatch, tmp_path, capsys, "fig.backend = sycl hip cuda")
    assert err == "error: fig/backend=cuda: backend must be one of sycl, hip, got 'cuda'\n"


BAD_SWEEP_LINES = [
    ("fig.ranks = 1 0", "fig/ranks=0: ranks must be an integer >= 1, got 0"),
    ("fig.ranks = 1 two", "fig/ranks=two: ranks must be an integer >= 1, got 'two'"),
    ("fig.instant = treu", "fig: instant_submission must be true or false, got 'treu'"),
    ("fig.instant = 1", "fig: instant_submission must be true or false, got 1"),
    ("fig.instant = yes", "fig: instant_submission must be true or false, got 'yes'"),
    ("fig.eras = 2.9",
     "fig: n_eras must be an integer >= 2 (the first era is warm-up), got 2.9"),
    ("fig.seed = 1.5", "fig: seed must be an integer, got 1.5"),
    ("fig.seed = abc", "fig: seed must be an integer, got 'abc'"),
    ("fig.event_mode = bogus", "fig: 'bogus' is not a valid EventMode"),
    ("fig.max_cached_nodes = 2.5",
     "fig: HIPSYCL_RT_MAX_CACHED_NODES must be an integer >= 0, got 2.5"),
    ("fig.repetitions = 5", "fig: unknown scenario key(s) ['repetitions']"),
    ("fig.backend = \"\"", "fig: no values for ['backend']"),
    ("fig.set.system.atoms = 0", "fig: grappa_pme_1500: need at least one atom, got 0"),
    ("fig.node = mars", "fig: unknown scenario key(s) ['node']"),
    ("fig.ranks = 1 2 01", "fig: ranks lists 1 twice"),
    ("fig.seed = 1 01", "fig: seed lists 1 twice"),
]


@pytest.mark.parametrize("line, message", BAD_SWEEP_LINES,
                         ids=[line for line, _ in BAD_SWEEP_LINES])
def test_bad_sweep_value_is_one_error_line_naming_its_scenario(
        monkeypatch, tmp_path, capsys, line, message):
    err = sweep_fails_before_any_scenario_runs(monkeypatch, tmp_path, capsys, line)
    assert err == f"error: {message}\n"


# each override key a scenario field already sets, a valid value for it,
# and that field with its flag
SHADOWING_OVERRIDES = [
    ("system.name", "grappa_pme_12k", "system", "--system"),
    ("profile.name", "acpp-0.9.4", "profile", "--profile"),
    ("settings.max_cached_nodes", "0", "max_cached_nodes", "--max-cached-nodes"),
    ("settings.instant_submission", "true", "instant", "--instant"),
    ("settings.event_mode", "full", "event_mode", "--event-mode"),
    ("settings.seed", "3", "seed", "--seed"),
]


@pytest.mark.parametrize("route", ["simulate", "sweep"])
@pytest.mark.parametrize("key, value, owner, flag", SHADOWING_OVERRIDES,
                         ids=[key for key, *_ in SHADOWING_OVERRIDES])
def test_override_shadowing_a_scenario_field_is_one_error_line(
        monkeypatch, tmp_path, capsys, route, key, value, owner, flag):
    # a row's id and columns come from the scenario's fields, so an
    # override of one would label a run other than the one simulated
    message = (f"override {key!r} shadows the scenario's {owner}; "
               f"give it as {flag} or the sweep key {owner}")
    if route == "sweep":
        err = sweep_fails_before_any_scenario_runs(
            monkeypatch, tmp_path, capsys, f"fig.set.{key} = {value}")
        assert err == f"error: fig: {message}\n"
        return
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("a scenario ran"))
    code = main(["simulate", "--system", "grappa_pme_1500", "--profile", "acpp-23.10",
                 "--set", f"{key}={value}"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_sweep_builds_each_plan_once(monkeypatch, tmp_path):
    """A sweep builds each scenario's plan once, and with the preset memo
    cleared first its plans parse ``systems.cfg`` and each runtime file
    at most once between them."""
    builds, parses = [], []
    build_plan, parse_config_ = Scenario.build_plan, presets.parse_config

    def counting_build(scenario):
        builds.append(scenario.scenario_id)
        return build_plan(scenario)

    def counting_parse(text):
        parses.append(text)
        return parse_config_(text)

    monkeypatch.setattr(Scenario, "build_plan", counting_build)
    monkeypatch.setattr(presets, "parse_config", counting_parse)
    presets._profile.cache_clear()
    presets._systems.cache_clear()
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(
        "fig.system = grappa_pme_1500\n"
        "fig.profile = acpp-23.10\n"
        "fig.max_cached_nodes = 0 5 100\n"
        "fig.eras = 2\n", encoding="utf-8")
    assert main(["sweep", "--scenarios", str(cfg),
                 "--output", str(tmp_path / "matrix.csv")]) == 0
    assert builds == ["fig/max_cached_nodes=0", "fig/max_cached_nodes=5",
                      "fig/max_cached_nodes=100"]
    files = ["systems.cfg", "runtime-acpp-0.9.4.cfg", "runtime-acpp-23.10.cfg",
             "runtime-hip-native.cfg"]
    assert sorted(parses) == sorted(presets._data_text(name) for name in files)


def test_bundled_presets_are_frozen_and_shared():
    """The loaders hand every plan the same preset objects, so none may
    change under another."""
    first, second = (Scenario("one", "grappa_pme_1500", "acpp-23.10").build_plan()
                     for _ in range(2))
    assert first.system is second.system
    assert first.profile is second.profile
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.profile.submit_cost_ns = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.system.atoms = 1


class _Reached(Exception):
    """Raised by the stand-in for ``simulate``: the sweep got that far."""


def _config_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


_VALUES = st.one_of(
    st.integers(), st.integers(max_value=-1), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
            max_size=12))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(AXIS_KEYS), value=_VALUES)
def test_sweep_value_runs_or_is_one_error_line(monkeypatch, tmp_path, capsys,
                                               key, value):
    def simulate(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "simulate", simulate)
    fields = {"system": "grappa_pme_1500", "profile": "acpp-23.10", "eras": 2}
    fields[key] = _config_text(value)
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text("".join(f"fig.{k} = {v}\n" for k, v in fields.items()),
                   encoding="utf-8")
    capsys.readouterr()
    try:
        code = main(["sweep", "--scenarios", str(cfg)])
    except _Reached:
        return
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        scenarios_from_config(parse_config(
            "s.system = grappa_pme_1500\n"
            "s.profile = acpp-23.10\n"
            "s.typo_key = 1\n"))


def test_check_passes_and_reports_missing(tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_report(report, [
        {"system": "box", "instant": "1", "ns_per_day": "100.0"},
        {"system": "box", "instant": "0", "ns_per_day": "80.0"},
    ])
    refs = tmp_path / "refs.cfg"
    refs.write_text(
        'a.source = II-A\n'
        'a.metric = ns_per_day\n'
        'a.value = 98.0\n'
        'a.rel_tol = 0.05\n'
        'a.match.system = box\n'
        'a.match.instant = 1\n'
        'a.quote = "measured sentence"\n'
        'b.source = II-B\n'
        'b.metric = ns_per_day\n'
        'b.value = 1.25\n'
        'b.abs_tol = 0.05\n'
        'b.match.system = box\n'
        'b.match.instant = 1\n'
        'b.baseline.system = box\n'
        'b.baseline.instant = 0\n'
        'b.quote = "ratio sentence"\n'
        'c.source = II-C\n'
        'c.metric = ns_per_day\n'
        'c.value = 7.0\n'
        'c.rel_tol = 0.10\n'
        'c.match.system = other_box\n'
        'c.quote = "uncovered sentence"\n', encoding="utf-8")
    code = main(["check", "--report", str(report),
                 "--references", str(refs)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS a" in out
    assert "PASS b" in out
    assert "MISSING c" in out
    assert "2 passed, 0 failed, 1 not covered" in out


def test_check_fails_out_of_band_points(tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_report(report, [{"system": "box", "ns_per_day": "100.0"}])
    refs = tmp_path / "refs.cfg"
    refs.write_text(
        'z.source = II-A\n'
        'z.metric = ns_per_day\n'
        'z.value = 50.0\n'
        'z.rel_tol = 0.10\n'
        'z.match.system = box\n'
        'z.quote = "far off sentence"\n', encoding="utf-8")
    code = main(["check", "--report", str(report),
                 "--references", str(refs)])
    assert code == 1
    assert "FAIL z" in capsys.readouterr().out


def test_check_reports_zero_valued_point_by_absolute_difference(tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_report(report, [{"system": "box", "ns_per_day": "100.0",
                           "max_launch_delay_us": "0.2"}])
    refs = tmp_path / "refs.cfg"
    refs.write_text(
        'a.source = II-A\n'
        'a.metric = ns_per_day\n'
        'a.value = 98.0\n'
        'a.rel_tol = 0.05\n'
        'a.match.system = box\n'
        'a.quote = "nonzero sentence"\n'
        'z.source = II-Z\n'
        'z.metric = max_launch_delay_us\n'
        'z.value = 0\n'
        'z.abs_tol = 0.5\n'
        'z.match.system = box\n'
        'z.quote = "zero sentence"\n', encoding="utf-8")
    code = main(["check", "--report", str(report),
                 "--references", str(refs)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS a [II-A] ns_per_day: simulated 100.000 vs published 98 "
        "(+2.0%, tolerance 0.05 relative)",
        "PASS z [II-Z] max_launch_delay_us: simulated 0.200 vs published 0 "
        "(+0.200 absolute, tolerance 0.5 absolute)",
        "2 passed, 0 failed, 0 not covered by the report",
    ]


BAD_POINT_KEYS = [
    ("rel_tl", "0.2", "p: unknown key 'rel_tl'"),
    ("baselin.system", "box", "p: unknown key 'baselin.system'"),
    ("match.evnt_mode", "coarse", "p: unknown column 'evnt_mode' in match.evnt_mode"),
    ("baseline.sytem", "box", "p: unknown column 'sytem' in baseline.sytem"),
    ("metric", "ns_per_dy", "p: unknown column 'ns_per_dy' in metric"),
]


def check_one_point(tmp_path, capsys, rows, **fields):
    """``mdgpusim check`` of ``rows`` against point ``p``, a 98 ns/day
    point on the ``box`` rows with ``fields`` replaced (None drops a key);
    returns the exit code and the captured output."""
    report = tmp_path / "report.csv"
    write_report(report, rows)
    point = {"source": "II-A", "metric": "ns_per_day", "value": "98.0",
             "rel_tol": "0.05", "match.system": "box",
             "quote": '"a sentence"'}
    point.update(fields)
    point = {k: v for k, v in point.items() if v is not None}
    refs = tmp_path / "refs.cfg"
    refs.write_text("".join(f"p.{k} = {v}\n" for k, v in point.items()),
                    encoding="utf-8")
    code = main(["check", "--report", str(report), "--references", str(refs)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("key, value, message", BAD_POINT_KEYS,
                         ids=[key for key, _, _ in BAD_POINT_KEYS])
def test_misspelt_reference_key_is_one_error_line(tmp_path, capsys, key, value,
                                                  message):
    code, out = check_one_point(tmp_path, capsys,
                                [{"system": "box", "ns_per_day": "100.0"}],
                                **{key: value})
    assert code == 2
    assert out.err == f"error: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize("key, value", [("match.instant", "true"),
                                        ("baseline.instant", "false")])
def test_boolean_selector_is_one_error_line(tmp_path, capsys, key, value):
    # a report writes a boolean column as 1 or 0, so true would select no row
    code, out = check_one_point(tmp_path, capsys,
                                [{"system": "box", "instant": "1", "ns_per_day": "100.0"}],
                                **{key: value})
    assert (code, out.out, out.err) == (
        2, "", f"error: p: {key} = {value} matches no row; the report writes 1 or 0\n")


@pytest.mark.parametrize("value", ["0.8710", "0.871", "8.71e-1", '"0.8710"'])
def test_selector_matches_the_value_a_row_holds(tmp_path, capsys, value):
    # the report writes 0.8710; a selector may write the same value otherwise
    code, out = check_one_point(
        tmp_path, capsys,
        [{"system": "box", "gpu_utilization": "0.8710", "ns_per_day": "100.0"},
         {"system": "box", "gpu_utilization": "0.8720", "ns_per_day": "50.0"}],
        **{"match.gpu_utilization": value})
    assert code == 0
    assert out.out.startswith("PASS p [II-A] ns_per_day: simulated 100.000 vs")


@pytest.mark.parametrize("key", ["source", "metric", "value", "quote"])
def test_reference_point_without_a_required_key_is_one_error_line(tmp_path, capsys,
                                                                   key):
    code, out = check_one_point(tmp_path, capsys,
                                [{"system": "box", "ns_per_day": "100.0"}],
                                **{key: None})
    assert code == 2
    assert out.err == f"error: p: missing required key {key!r}\n"
    assert out.out == ""


BAD_POINT_NUMBERS = [
    ({"value": "abc"}, "p: value must be a finite number, got 'abc'"),
    ({"value": "true"}, "p: value must be a finite number, got True"),
    ({"value": "nan"}, "p: value must be a finite number, got nan"),
    ({"value": "-inf"}, "p: value must be a finite number, got -inf"),
    ({"rel_tol": "-0.05"}, "p: rel_tol must be a finite number >= 0, got -0.05"),
    ({"rel_tol": "inf"}, "p: rel_tol must be a finite number >= 0, got inf"),
    ({"rel_tol": "abc"}, "p: rel_tol must be a finite number >= 0, got 'abc'"),
    ({"rel_tol": "nan"}, "p: rel_tol must be a finite number >= 0, got nan"),
    ({"rel_tol": None, "abs_tol": "-1"},
     "p: abs_tol must be a finite number >= 0, got -1"),
    ({"rel_tol": None, "abs_tol": "nan"},
     "p: abs_tol must be a finite number >= 0, got nan"),
]


@pytest.mark.parametrize("fields, message", BAD_POINT_NUMBERS,
                         ids=[" ".join(f"{k}={v}" for k, v in f.items() if v)
                              for f, _ in BAD_POINT_NUMBERS])
def test_bad_reference_number_is_one_error_line(tmp_path, capsys, fields, message):
    """A point whose value or tolerance is not a usable number is refused,
    naming the point and the key, rather than failing forever."""
    code, out = check_one_point(tmp_path, capsys,
                                [{"system": "box", "ns_per_day": "100.0"}],
                                **fields)
    assert code == 2
    assert out.err == f"error: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize("rows, message", [
    ([{"system": "box", "instant": "1"}],
     "p: report has no 'ns_per_day' column"),
    ([{"system": "box", "ns_per_day": "fast"}],
     "p: report row has ns_per_day = 'fast', not a number"),
], ids=["no-column", "not-a-number"])
def test_report_without_the_metric_is_one_error_line(tmp_path, capsys, rows, message):
    code, out = check_one_point(tmp_path, capsys, rows)
    assert code == 2
    assert out.err == f"error: {message}\n"
    assert out.out == ""


def test_full_event_rows_leave_the_12k_points_alone():
    """The bundled 12k points judge the coarse-event rows of a report that
    also holds full-event rows of the same runs."""
    scenarios = scenarios_from_config(parse_config(
        "m.system = grappa_pme_12k\n"
        "m.profile = acpp-0.9.4 acpp-23.10\n"
        "m.max_cached_nodes = 0 5 100\n"
        "m.event_mode = coarse full\n"
        "i.system = grappa_pme_12k\n"
        "i.profile = acpp-23.10\n"
        "i.instant = true\n"
        "i.event_mode = coarse full\n"))
    rows = [row for scenario in scenarios for row in cli.run_scenario(scenario)[0]]
    assert {row["event_mode"] for row in rows} == {"coarse", "full"}
    points = [p for p in load_bundled_references() if p.point_id.endswith("-12k")]
    lines, _ = cli.run_check(rows, points)
    assert lines[-1] == "4 passed, 0 failed, 0 not covered by the report", lines


def test_check_with_empty_reference_set_passes(tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_report(report, [{"system": "box", "ns_per_day": "1.0"}])
    refs = tmp_path / "empty.cfg"
    refs.write_text("# intentionally empty\n", encoding="utf-8")
    code = main(["check", "--report", str(report),
                 "--references", str(refs)])
    assert code == 0
    assert "nothing to check" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n"], ids=["empty", "plain-csv"])
def test_check_refuses_a_file_that_is_not_a_report(tmp_path, capsys, text):
    report = tmp_path / "report.csv"
    report.write_text(text, encoding="utf-8")
    assert main(["check", "--report", str(report)]) == 2
    out = capsys.readouterr()
    assert out.err == (f"error: {report}: not a report: the first line must be "
                       f"'# {CSV_SCHEMA}'\n")
    assert out.out == ""


def test_bundled_reference_points_are_well_formed():
    points = load_bundled_references()
    assert len(points) >= 6
    for point in points:
        assert point.quote.strip()
        assert point.source.strip()
        assert point.match
        assert (point.rel_tol is None) != (point.abs_tol is None)


_RUN_FLAGS = ["--system", "grappa_pme_1500", "--profile", "acpp-23.10", "--eras", "2"]


# each file a verb reads or writes: {missing} does not exist, {unwritable}
# lies in a missing directory, {latin1} holds bytes that are not UTF-8;
# {csv} and {scenarios} are usable
@pytest.mark.parametrize("argv", [
    ["check", "--report", "{missing}"],
    ["check", "--report", "{latin1}"],
    ["check", "--report", "{report}", "--references", "{missing}"],
    ["check", "--report", "{report}", "--references", "{latin1}"],
    ["sweep", "--scenarios", "{missing}"],
    ["sweep", "--scenarios", "{latin1}"],
    ["simulate", *_RUN_FLAGS, "--output", "{unwritable}"],
    ["simulate", *_RUN_FLAGS, "--trace", "{unwritable}"],
    ["simulate", *_RUN_FLAGS, "--output", "{csv}", "--trace", "{unwritable}"],
    ["sweep", "--scenarios", "{scenarios}", "--output", "{unwritable}"],
], ids=lambda argv: " ".join(a for a in argv if a not in _RUN_FLAGS))
def test_unusable_file_is_one_error_line_naming_it(tmp_path, capsys, monkeypatch, argv):
    """Every path is checked before anything is simulated or written:
    no run starts, and a good ``--output`` next to a bad ``--trace``
    gets no CSV."""
    paths = {"missing": tmp_path / "nope.cfg",
             "unwritable": tmp_path / "no-such-dir" / "out.txt",
             "latin1": tmp_path / "latin1.cfg",
             "report": tmp_path / "report.csv",
             "csv": tmp_path / "out.csv",
             "scenarios": tmp_path / "scenarios.cfg"}
    paths["latin1"].write_bytes("fig.system = caf\u00e9\n".encode("latin-1"))
    paths["report"].write_text(f"# {CSV_SCHEMA}\r\nscenario\r\n", encoding="utf-8")
    paths["scenarios"].write_text("fig.system = grappa_pme_1500\nfig.profile = acpp-23.10\n"
                                  "fig.eras = 2\n", encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before every path was checked")

    monkeypatch.setattr(cli, "run_plan", no_run)
    (bad,) = (paths[a[1:-1]] for a in argv if a in ("{missing}", "{unwritable}", "{latin1}"))
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert not paths["csv"].exists() or paths["csv"].read_text(encoding="utf-8") == ""


def test_plan_affinity_prints_published_association(capsys):
    assert main(["plan-affinity", "--node", "lumi", "--ranks", "8"]) == 0
    out = capsys.readouterr().out
    assert "rank4: gcd=4 ccx=0 nic=2" in out
    assert "ROCR_VISIBLE_DEVICES=4" in out


def test_plan_affinity_rejects_an_unknown_node(capsys):
    assert main(["plan-affinity", "--node", "mars", "--ranks", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown node profile 'mars'; available: dardel, lumi\n")


@pytest.mark.parametrize("flags, message", [
    (["--ranks", "0"], "ranks must be 1 to 8 on node 'lumi', got 0"),
    (["--ranks", "9"], "ranks must be 1 to 8 on node 'lumi', got 9"),
    (["--ranks", "2", "--threads-per-rank", "0"],
     "threads per rank must be 1 to 7 on node 'lumi', got 0"),
    (["--ranks", "2", "--threads-per-rank", "-1"],
     "threads per rank must be 1 to 7 on node 'lumi', got -1"),
    (["--ranks", "2", "--threads-per-rank", "8"],
     "threads per rank must be 1 to 7 on node 'lumi', got 8"),
], ids=["ranks-0", "ranks-9", "threads-0", "threads-neg", "threads-8"])
def test_plan_affinity_out_of_range_states_the_range(capsys, flags, message):
    assert main(["plan-affinity", "--node", "lumi", *flags]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_export_trace_round_trips(tmp_path):
    """``simulate --trace`` saves the trace beside the CSV report."""
    report, out = tmp_path / "run.csv", tmp_path / "trace.json"
    code = main(["simulate", *_RUN_FLAGS, "--output", str(report), "--trace", str(out)])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"makespan_ns", "records"}
    assert data["records"]
    record = data["records"][0]
    assert set(record) == {"actor", "name", "begin_ns", "end_ns", "args"}
    # the text and its line break, written one after the other
    rows, trace = cli.run_scenario(Scenario("cli", system="grappa_pme_1500",
                                            profile="acpp-23.10", eras=2),
                                   keep_trace=True)
    assert out.read_bytes() == (trace.to_json(indent=2) + "\n").encode("ascii")
    assert report.read_bytes() == cli.render_csv(rows).encode("ascii")


def test_simulate_trace_streams_to_its_file(tmp_path, monkeypatch):
    """``simulate --trace`` writes the trace piece by piece: once the run
    is done, the command allocates at peak less than half the file it
    writes, where writing the whole text at once took more than twice."""
    run_plan = cli.run_plan

    def run_then_count_allocations(*args, **kwargs):
        result = run_plan(*args, **kwargs)
        gc.collect()
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, "run_plan", run_then_count_allocations)
    out = tmp_path / "trace.json"
    try:
        code = main(["simulate", "--system", "grappa_pme_12k", "--profile", "acpp-23.10",
                     "--max-cached-nodes", "100", "--event-mode", "full",
                     "--output", str(tmp_path / "run.csv"), "--trace", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out.stat().st_size / 2
