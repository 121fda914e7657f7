"""Microbenchmarks on the public entry points of each layer, host time.

Each benchmark is a function ``(rng) -> run``: it draws its inputs from
``rng`` outside the timed region and returns a closure that does the
timed work and returns ``(work_done, signature)``.  ``signature`` is a
simulated result (makespan, launch delays, draw sums): it must repeat
exactly for a given seed, which the harness checks on every repetition.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Tuple

from mdgpusim.cli import COLUMNS, render_csv
from mdgpusim.costs import ApiKind, ApiSampler, KernelKind, default_api_model, default_cost_table
from mdgpusim.engine import Charge, Engine, Sleep, WaitFor
from mdgpusim.presets import get_profile, load_profiles, load_systems
from mdgpusim.runtime import Device, EventMode, RankRuntime, RunSettings, RuntimeProfile

Run = Callable[[], Tuple[float, object]]


# -- engine -------------------------------------------------------------------


def _charges(rng: random.Random, n: int) -> List[int]:
    return [rng.randrange(500, 5000) for _ in range(n)]


def charge_solo(rng: random.Random) -> Run:
    """One occupant in a 1-core domain under a 750-milli background: the
    shape of every app, flush and monitor charge a pipeline makes."""
    costs = _charges(rng, 3000)

    def run():
        eng = Engine()
        dom = eng.domain("core0", 1)
        eng.add_background(dom, "hsa-worker", 750)
        eng.spawn("app", (Charge(c, "work") for c in costs), domain=dom)
        return len(costs), eng.run_until_idle().makespan_ns
    return run


def charge_dedicated(rng: random.Random) -> Run:
    """Charges on a domain-less process, as device slots and wires make."""
    costs = _charges(rng, 20000)

    def run():
        eng = Engine()
        eng.spawn("gcd.q0", (Charge(c, "kernel") for c in costs))
        return len(costs), eng.run_until_idle().makespan_ns
    return run


def charge_shared(rng: random.Random) -> Run:
    """Two occupants on one core: the exact processor-sharing path."""
    costs = [_charges(rng, 750), _charges(rng, 750)]

    def run():
        eng = Engine()
        dom = eng.domain("core0", 1)
        for i, mine in enumerate(costs):
            eng.spawn(f"thread{i}", (Charge(c, "work") for c in mine), domain=dom)
        return sum(map(len, costs)), eng.run_until_idle().makespan_ns
    return run


def sleep_pingpong(rng: random.Random) -> Run:
    """Two processes whose ``Sleep`` timers interleave on the heap."""
    delays = [_charges(rng, 20000), _charges(rng, 20000)]

    def run():
        eng = Engine()
        for i, mine in enumerate(delays):
            eng.spawn(f"sleeper{i}", (Sleep(d) for d in mine))
        return sum(map(len, delays)), eng.run_until_idle().makespan_ns
    return run


def fanout(rng: random.Random) -> Run:
    """One ``Event`` per round with many ``WaitFor`` waiters."""
    waiters, rounds = 500, 60
    gaps = _charges(rng, rounds)

    def run():
        eng = Engine()
        events = [eng.event(f"round{r}") for r in range(rounds)]
        woken = [0]

        def waiter():
            for ev in events:
                yield WaitFor(ev)
                woken[0] += 1

        def poster():
            for ev, gap in zip(events, gaps):
                yield Sleep(gap)
                eng.post(ev, 0)

        for i in range(waiters):
            eng.spawn(f"waiter{i}", waiter())
        eng.spawn("poster", poster())
        makespan = eng.run_until_idle().makespan_ns
        return woken[0], (makespan, woken[0])
    return run


def trace_json(rng: random.Random) -> Run:
    """``Trace.to_json(indent=2)`` on a fixed trace of runtime records."""
    eng, rt, device = _rank(rng.randrange(1 << 32), get_profile("acpp-23.10"),
                            RunSettings(max_cached_nodes=5,
                                        event_mode=EventMode.FULL))
    durations = _charges(rng, 600)
    eng.spawn(rt.app_actor, _submit_app(rt, [device.new_stream("q0")], durations),
              domain=rt.app_domain)
    trace = eng.run_until_idle()

    def run():
        text = trace.to_json(indent=2)
        return len(text) / 1e6, len(text)
    return run


# -- runtime ------------------------------------------------------------------


def _rank(seed: int, profile: RuntimeProfile, settings: RunSettings):
    eng = Engine()
    device = Device(eng, "gcd0", profile, settings)
    rt = RankRuntime(eng, "rank0", profile, settings, default_api_model(seed=seed))
    return eng, rt, device


def _submit_app(rt: RankRuntime, streams, durations, sync_every: int = 50):
    """Submit round-robin over ``streams`` and sync every ``sync_every``
    tasks; across several streams each task waits for the one before."""
    pending = []
    for i, duration in enumerate(durations):
        deps = pending[-1:] if len(streams) > 1 else ()
        ev = yield from rt.submit(streams[i % len(streams)], f"k{i % 11}", duration,
                                  deps=deps)
        pending.append(ev)
        if len(pending) == sync_every:
            yield from rt.sync(pending)
            pending = []
    yield from rt.sync(pending)


def _submits(profile_id: str, settings: RunSettings, streams: int = 1) -> Callable:
    """``Device.new_stream`` plus ``RankRuntime.submit``/``sync`` of a fixed
    task list; the signature holds every launch delay."""
    def bench(rng: random.Random) -> Run:
        seed = rng.randrange(1 << 32)
        profile = get_profile(profile_id)
        durations = _charges(rng, 600)

        def run():
            eng, rt, device = _rank(seed, profile, settings)
            queues = [device.new_stream(f"q{i}") for i in range(streams)]
            eng.spawn(rt.app_actor, _submit_app(rt, queues, durations),
                      domain=rt.app_domain)
            makespan = eng.run_until_idle().makespan_ns
            return len(durations), (makespan, tuple(rt.launch_delays))
        return run
    return bench


# -- costs, presets, cli ------------------------------------------------------


def api_draw(rng: random.Random) -> Run:
    """``ApiSampler.draw`` over the actors and kinds a pipeline uses."""
    seed = rng.randrange(1 << 32)
    actors = ("rank0.app", "rank0.dag-flush", "pp0.app", "pp0.dag-flush",
              "pme0.app", "pme0.dag-flush")
    kinds = [k for k in ApiKind if k is not ApiKind.MEMCPY_ASYNC]
    calls = [(rng.choice(actors), rng.choice(kinds)) for _ in range(8000)]

    def run():
        draw = ApiSampler(default_api_model(seed=seed)).draw
        return len(calls), sum(draw(actor, kind) for actor, kind in calls)
    return run


def kernel_cost(rng: random.Random) -> Run:
    """``CostTable.duration_ns`` across kinds, sizes and backends."""
    table = default_cost_table()
    kinds = list(KernelKind)
    calls = [(rng.choice(kinds), rng.randrange(1000, 50_000_000),
              rng.choice(("sycl", "hip")), rng.choice((1.0, 1.33, 2.0)))
             for _ in range(40000)]

    def run():
        cost = table.duration_ns
        return len(calls), sum(cost(*call) for call in calls)
    return run


def presets_load(rng: random.Random) -> Run:
    """``load_systems`` plus ``load_profiles``; reported as seconds per load."""
    loads = 60

    def run():
        sizes = set()
        for _ in range(loads):
            sizes.add((len(load_systems()), len(load_profiles())))
        return loads, tuple(sizes)
    return run


def render_rows(rng: random.Random) -> Run:
    """``cli.render_csv`` over report rows."""
    rows = [{col: f"{rng.random() * 1000:.6f}" for col in COLUMNS}
            for _ in range(5000)]

    def run():
        return len(rows), len(render_csv(rows))
    return run


# -- registry and harness -----------------------------------------------------


@dataclass(frozen=True)
class Micro:
    metric: str
    bench: Callable[[random.Random], Run]
    per_second: bool = True  # False: report seconds per unit of work


MICROS = (
    Micro("engine.charge_solo.charges_per_s", charge_solo),
    Micro("engine.charge_dedicated.charges_per_s", charge_dedicated),
    Micro("engine.charge_shared.charges_per_s", charge_shared),
    Micro("engine.sleep.events_per_s", sleep_pingpong),
    Micro("engine.fanout.wakes_per_s", fanout),
    Micro("engine.trace_json.mb_per_s", trace_json),
    Micro("runtime.deferred_mcn0.submits_per_s",
          _submits("acpp-23.10", RunSettings(max_cached_nodes=0))),
    Micro("runtime.deferred_mcn100.submits_per_s",
          _submits("acpp-23.10", RunSettings(max_cached_nodes=100))),
    Micro("runtime.full_events.submits_per_s",
          _submits("acpp-23.10", RunSettings(max_cached_nodes=100,
                                             event_mode=EventMode.FULL))),
    Micro("runtime.instant.submits_per_s",
          _submits("acpp-23.10", RunSettings(max_cached_nodes=0,
                                             instant_submission=True))),
    # 4 idle runtime streams (two visible devices) plus 8 application
    # streams on 4 hardware slots
    Micro("runtime.oversub.tasks_per_s",
          _submits("hip-native", RunSettings(max_cached_nodes=0, instant_submission=True,
                                             visible_devices=2, max_hw_queues=4),
                   streams=8)),
    Micro("costs.api_draw.draws_per_s", api_draw),
    Micro("costs.kernel_cost.calls_per_s", kernel_cost),
    Micro("presets.load_s", presets_load, per_second=False),
    Micro("cli.render_csv.rows_per_s", render_rows),
)


def run_micro(micro: Micro, seed: int, reps: int = 5) -> Tuple[float, List[object]]:
    """Median rate (or seconds per unit) over ``reps`` timed repetitions
    after one untimed warm-up, plus every repetition's signature."""
    run = micro.bench(random.Random(f"{micro.metric}/{seed}"))
    run()
    values, signatures = [], []
    for _ in range(reps):
        t0 = perf_counter()
        work, signature = run()
        elapsed = perf_counter() - t0
        values.append(work / elapsed if micro.per_second else elapsed / work)
        signatures.append(signature)
    return statistics.median(values), signatures
