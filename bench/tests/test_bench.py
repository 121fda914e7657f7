"""Tests of the benchmark itself: its microbenchmarks, workloads and checks."""

import json
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import measure  # noqa: E402
import micro  # noqa: E402
from mdgpusim.engine import Engine  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def quick(workload: Workload, seed: int = 0):
    """The workload's scenarios at 2 eras of 10 steps: same selector
    columns, a fraction of the host time."""
    return [replace(s, eras=2, overrides={"system.nstlist": 10})
            for s in workload.scenarios(seed)]


def test_spec_names_every_workload_and_microbenchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {m.metric for m in micro.MICROS} <= per_layer
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "steps_per_s"}


@pytest.mark.parametrize("bench", micro.MICROS, ids=lambda m: m.metric)
def test_microbenchmark_result_is_deterministic(bench):
    first = bench.bench(random.Random("fixed"))()
    again = bench.bench(random.Random("fixed"))()
    rerun = bench.bench(random.Random("fixed"))
    assert first == again == rerun() == rerun()


def test_engine_microbenchmarks_measure_the_stated_path():
    # each charge alone on its core, stretched by 7/4 and rounded up
    rng = random.Random(5)
    costs = micro._charges(random.Random(5), 3000)
    _, makespan = micro.charge_solo(rng)()
    assert makespan == sum(math.ceil(c * 7 / 4) for c in costs)
    costs = micro._charges(random.Random(6), 20000)
    assert micro.charge_dedicated(random.Random(6))() == (20000, sum(costs))


def test_submit_microbenchmark_has_fixed_launch_delays():
    bench = micro._submits("acpp-23.10", micro.RunSettings(max_cached_nodes=0))
    work, (makespan, delays) = bench(random.Random(1))()
    assert work == len(delays) == 600
    assert bench(random.Random(1))()[1] == (makespan, delays)
    assert bench(random.Random(2))()[1] != (makespan, delays)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_covers_the_points_it_claims(name):
    workload = WORKLOADS[name]
    run = measure.Run(workload, 0, None)
    for scenario in quick(workload):
        assert run.attempt(scenario) is not None
    covered = {p.point_id for p in measure.covered_points(run.coarse_rows())}
    assert covered == set(workload.points)


def _tiny_workload():
    w = WORKLOADS["trace-export"]
    return replace(w, specs=w.specs[1:2])


def test_altered_digest_counts_as_failure():
    workload = _tiny_workload()
    (scenario,) = quick(workload)
    _, out = measure.execute(scenario, workload.keep_trace)
    sid = scenario.scenario_id

    good = measure.Run(workload, 0, {sid: dict(out.digest)})
    good.attempt(scenario)
    assert (good.tally.attempted, good.tally.failed) == (1, 0)

    altered = dict(out.digest, trace="0" * 64)
    bad = measure.Run(workload, 0, {sid: altered})
    bad.attempt(scenario)
    bad.attempt(scenario)
    assert (bad.tally.attempted, bad.tally.failed) == (2, 2)
    assert "committed digest" in bad.tally.notes[0]


def test_traced_pass_matches_untraced_and_restores_the_program():
    workload = _tiny_workload()
    run = measure.Run(workload, 0, None)
    run.scenarios = quick(workload)
    post = Engine.post
    spans = run.cycle(0, traced=True)
    assert Engine.post is post
    assert (run.tally.attempted, run.tally.failed) == (2, 0)
    assert spans.count["simulate"] == spans.count["run_until_idle"] == 1
    assert spans.count["api_draw"] > 0 and spans.charges > 0
    assert 0 < spans.share_of_simulate("run_until_idle", self_only=True) < 1


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                metrics = {"steps_per_s": {"value": v, "unit": "1/s"}}
                fh.write(json.dumps({"workload": "stmv-node", "result": {
                    "failed": 0, "metrics": metrics}}) + "\n")

    write(tmp_path / "parent.jsonl", [100.0, 101.0, 99.0, 100.5])
    write(tmp_path / "same.jsonl", [100.2, 99.8, 100.1, 100.0])
    write(tmp_path / "slow.jsonl", [70.0, 71.0, 69.0, 70.5])
    lines, regressions = compare.compare(tmp_path / "parent.jsonl",
                                         tmp_path / "same.jsonl", SPEC)
    assert regressions == 0 and any(line.endswith("ok") for line in lines)
    lines, regressions = compare.compare(tmp_path / "parent.jsonl",
                                         tmp_path / "slow.jsonl", SPEC)
    assert regressions == 1 and any("REGRESSION" in line for line in lines)
