"""The engine against a reference engine that queues every entry.

``Engine`` hands a process its next effect without a heap round trip
whenever the entry it would push is the next one it would pop.  Its
module docstring argues that this changes neither the processing order
nor any record; these tests check the argument on the engine workloads
of ``test_engine`` and on whole simulations, with ``ReferenceEngine``
(no handoff at all) put in place of ``Engine``.
"""

import gc
import random
import weakref

import pytest

import test_engine
from mdgpusim import pipeline
from mdgpusim.cli import Scenario, render_csv, run_scenario
from mdgpusim.engine import _FINISH, PARK, Charge, DeadlockError, Engine, Event, Sleep, WaitFor
from reference_engine import ReferenceEngine

ENGINES = pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine],
                                  ids=["engine", "reference"])


def _outcome(trace):
    return trace.records, trace.busy_ns, trace.makespan_ns


def _on_reference(monkeypatch, run):
    """``run()`` with ``ReferenceEngine`` in place of ``Engine`` wherever
    the tests and the pipeline construct one."""
    with monkeypatch.context() as patch:
        patch.setattr(test_engine, "Engine", ReferenceEngine)
        patch.setattr(pipeline, "Engine", ReferenceEngine)
        return run()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 17])
def test_mixed_workload_matches_the_reference(monkeypatch, seed):
    def run():
        return _outcome(test_engine._handoff_engine(seed).run_until_idle())

    assert run() == _on_reference(monkeypatch, run)


@pytest.mark.parametrize("seed, keep_trace", [
    (1234, True), (99, True), (5, True), (5, False), (31, False)])
def test_random_workload_matches_the_reference(monkeypatch, seed, keep_trace):
    def run():
        return _outcome(test_engine._random_workload(
            seed, n_procs=12, n_charges=60, keep_trace=keep_trace, pooled=True))

    assert run() == _on_reference(monkeypatch, run)


def test_pooled_charges_take_every_path(monkeypatch):
    """The charges ``_random_workload`` shares are yielded by several
    processes, on domains and without one, and they end both inline and
    through a pushed finish entry, so the oracle sees every path a
    shared charge can take."""
    finish_entries = []

    def spy(entry):
        if entry[2] is _FINISH:
            finish_entries.append(entry[4])

    test_engine._spy_on_queued_entries(monkeypatch, spy)
    trace = test_engine._random_workload(1234, n_procs=12, n_charges=60, pooled=True)
    pooled = {c.name for c in test_engine._POOLED}
    actors = {actor for actor, name, *_ in trace.records if name in pooled}
    # p0, p5 and p10 run with no domain (test_engine._SHAPES)
    assert {"p0", "p5", "p10"} & actors and actors - {"p0", "p5", "p10"}
    ends = [begin < end for _, name, begin, end, _ in trace.records if name in pooled]
    via_heap = sum(any(c is p for p in test_engine._POOLED) for c in finish_entries)
    assert 0 < via_heap < sum(ends)


@pytest.mark.parametrize("seed, keep_trace", [
    (0, True), (1, True), (2, True), (3, False), (4, False), (21, True)])
def test_fire_workload_matches_the_reference(monkeypatch, seed, keep_trace):
    def run():
        return _outcome(test_engine._fire_workload(seed, keep_trace=keep_trace))

    assert run() == _on_reference(monkeypatch, run)


def test_fire_workload_takes_both_paths(monkeypatch):
    """Of ``_fire_workload``'s fires, some set the event fired in place and
    others, with a waiter or an entry due, queue it as ``post`` does."""
    posted = Engine.post
    posts = []

    def spy(self, event, delay_ns=0):
        posts.append(event)
        posted(self, event, delay_ns)

    monkeypatch.setattr(Engine, "post", spy)
    test_engine._fire_workload(0)
    fires = 8 * 40  # one per step of every process
    assert 0 < len(posts) < fires


@pytest.mark.parametrize("seed", [1234, 5, 31, 77])
def test_untraced_charges_resume_straight_from_the_heap(monkeypatch, seed):
    """With no record to write, a charge that waits on the heap is queued
    as a plain resume; its busy time, counted when it began, and the
    makespan equal the traced twin's, which queues finish entries."""
    kinds = []

    def run(keep_trace):
        kinds.clear()
        trace = test_engine._random_workload(seed, n_procs=12, n_charges=60,
                                             keep_trace=keep_trace, pooled=True)
        return trace, kinds.count(_FINISH), len(kinds)

    test_engine._spy_on_queued_entries(monkeypatch, lambda entry: kinds.append(entry[2]))
    traced, traced_finishes, traced_pushes = run(True)
    bare, bare_finishes, bare_pushes = run(False)
    assert traced_finishes > 0 and bare_finishes == 0
    assert bare_pushes == traced_pushes  # each finish became one resume
    assert (bare.busy_ns, bare.makespan_ns) == (traced.busy_ns, traced.makespan_ns)


@pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
def test_charge_ending_when_an_older_entry_is_due_runs_after_it(keep_trace):
    """A charge that ends exactly when an older entry is due swaps its end
    entry in for that head; the older entry, with the lower sequence
    number, still runs first."""
    def run(engine_cls):
        eng = engine_cls(keep_trace=keep_trace)
        log = []

        def older():
            yield Sleep(10)
            log.append(("older", eng.now))
            yield Charge(0, "older.zero")
            log.append(("older", eng.now))

        def newer():
            yield Charge(10, "newer.work")
            log.append(("newer", eng.now))
            yield Charge(0, "newer.zero")

        eng.spawn("older", older())
        eng.spawn("newer", newer())
        return _outcome(eng.run_until_idle()), log

    outcome, log = run(Engine)
    assert log == [("older", 10), ("newer", 10), ("older", 10)]
    if keep_trace:
        assert [(name, begin, end) for _, name, begin, end, _ in outcome[0]] == [
            ("older.zero", 10, 10), ("newer.work", 0, 10), ("newer.zero", 10, 10)]
    assert (outcome, log) == run(ReferenceEngine)


def _wake_workload(engine_cls, seed, n_daemons=6, n_wakers=3, n_steps=40):
    """Daemons that ``PARK`` after each charge, roused with ``wake`` by
    wakers whose zero-cost charges and short sleeps often leave other
    entries due at the time of the wake."""
    rng = random.Random(seed)
    eng = engine_cls()

    def daemon(idx):
        while True:
            yield PARK
            yield Charge(rng.choice((0, 0, 1, 20)), f"d{idx}")

    shapes = test_engine._SHAPES
    daemons = [eng.spawn(f"d{i}", daemon(i), daemon=True,
                         domain=test_engine._own_domain(eng, f"cpu{i}",
                                                        shapes[i % len(shapes)]))
               for i in range(n_daemons)]

    def waker(idx):
        for j in range(n_steps):
            pick = rng.random()
            if pick < 0.4:
                yield Sleep(rng.randrange(0, 30))
            elif pick < 0.8:
                yield Charge(rng.choice((0, 0, 5, 17)), f"w{idx}.{j}")
            eng.wake(rng.choice(daemons))

    for i in range(n_wakers):
        eng.spawn(f"w{i}", waker(i))
    return eng.run_until_idle()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_wake_workload_matches_the_reference(seed):
    assert (_outcome(_wake_workload(Engine, seed))
            == _outcome(_wake_workload(ReferenceEngine, seed)))


# 12k deferred, instant and with full events; STMV on the 8 GCDs of one
# node with a PME rank; 46M atoms on 64 ranks, halo wires across nodes
SIMULATIONS = [
    dict(system="grappa_pme_12k", profile="acpp-23.10"),
    dict(system="grappa_pme_12k", profile="acpp-23.10", instant=True,
         max_cached_nodes=0),
    dict(system="grappa_pme_12k", profile="acpp-0.9.4", max_cached_nodes=5,
         event_mode="full"),
    dict(system="stmv", profile="acpp-23.10", ranks=8),
    dict(system="grappa_rf_46m", profile="acpp-23.10", ranks=64,
         max_cached_nodes=0),
]


@pytest.mark.parametrize(
    "fields", SIMULATIONS,
    ids=[f"{f['system']}-{f.get('ranks', 1)}r-"
         f"{'instant' if f.get('instant') else f.get('event_mode', 'coarse')}"
         for f in SIMULATIONS])
def test_simulation_matches_the_reference(monkeypatch, fields):
    scenario = Scenario(scenario_id="oracle", eras=2, **fields)

    def run():
        rows, trace = run_scenario(scenario, keep_trace=True)
        return render_csv(rows), trace.to_json(), trace.busy_ns

    assert run() == _on_reference(monkeypatch, run)


# (scenario fields, block, hardware queues): 24k reaction-field on 8
# ranks all wired, at MCN 0 and instant, and with both streams of a rank
# on one queue, so a nonlocal task's dependency on its rank's local work
# sits on its own slot; 96k with a long-range rank and its 4 short-range
# ranks wired.  Eras of 10 steps keep each run short
BLOCKS = [
    (dict(system="grappa_rf_24k", ranks=8, max_cached_nodes=0), (2, 2, 2), 4),
    (dict(system="grappa_rf_24k", ranks=8, instant=True), (2, 2, 2), 4),
    (dict(system="grappa_rf_24k", ranks=8, max_cached_nodes=0), (2, 2, 2), 1),
    (dict(system="grappa_pme_96k", ranks=5, max_cached_nodes=10), (2, 2, 1), 4),
]


@pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize(
    "fields, block, queues", BLOCKS,
    ids=[f"{f['system']}-{f['ranks']}r-"
         f"{'instant' if f.get('instant') else 'mcn%d' % f['max_cached_nodes']}-{q}q"
         for f, _, q in BLOCKS])
def test_block_simulation_matches_the_reference(monkeypatch, fields, block, queues,
                                                keep_trace):
    plan = Scenario(scenario_id="oracle", profile="acpp-23.10", eras=2,
                    overrides={"system.nstlist": 10, "settings.max_hw_queues": queues},
                    **fields).build_plan()

    def run():
        report = pipeline.simulate(plan, keep_trace, block=block)
        trace = report.trace.to_json() if keep_trace else None
        return (report.rank_ms_per_step, report.makespan_ns, report.era_marks,
                report.launch_delays, report.busy_ns, trace)

    assert run() == _on_reference(monkeypatch, run)


# -- busy_ns: simulate's utilizations count the keys they find --------------


def _gen(effects):
    yield from effects


@ENGINES
def test_zero_cost_charges_alone_leave_a_zero_busy_key(engine_cls):
    eng = engine_cls()
    eng.spawn("z", (Charge(0, f"z{i}") for i in range(3)))
    assert eng.run_until_idle().busy_ns == {"z": 0}


@ENGINES
def test_actor_with_no_finished_charge_has_no_busy_key(engine_cls):
    eng = engine_cls()
    never = eng.event("never")
    eng.spawn("sleeper", _gen([Sleep(10), Sleep(0)]))
    eng.spawn("waiter", _gen([WaitFor(never)]), daemon=True)
    eng.spawn("parked", _gen([Sleep(5), PARK]), daemon=True)
    eng.spawn("worker", _gen([Charge(3, "w"), Charge(4, "w")]))
    assert eng.run_until_idle().busy_ns == {"worker": 7}


@ENGINES
def test_close_frees_a_deadlocked_run(engine_cls):
    """A parked daemon whose frame holds the engine is a reference cycle;
    once ``close`` ends it, the engine of a deadlocked run dies with its
    last reference, the cyclic collector off."""
    def daemon(eng):
        while True:
            yield PARK

    eng = engine_cls()
    eng.spawn("daemon", daemon(eng), daemon=True)
    eng.spawn("app", _gen([WaitFor(Event("never"))]))
    with pytest.raises(DeadlockError, match="blocked actors: app$"):
        eng.run_until_idle()
    ref = weakref.ref(eng)
    gc.collect()
    gc.disable()
    try:
        eng.close()
        del eng
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


@ENGINES
def test_processes_sharing_a_name_sum_their_busy_time(engine_cls):
    eng = engine_cls()
    dom = eng.domain("cpu", 1)
    eng.spawn("twin", _gen([Charge(5, "a"), Charge(6, "a")]), domain=dom)
    eng.spawn("twin", _gen([Charge(7, "b"), Charge(0, "b"), Charge(8, "b")]))
    assert eng.run_until_idle().busy_ns == {"twin": 26}


@ENGINES
@pytest.mark.parametrize("seed", [3, 8])
def test_traced_and_untraced_runs_keep_equal_busy_time(monkeypatch, engine_cls, seed):
    def run(keep_trace):
        with monkeypatch.context() as patch:
            patch.setattr(test_engine, "Engine", engine_cls)
            return test_engine._random_workload(seed, n_procs=8, n_charges=30,
                                                keep_trace=keep_trace).busy_ns

    assert run(True) == run(False)
