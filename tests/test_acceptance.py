"""Whole-model acceptance checks.

Each test covers one headline claim the calibrated model must
reproduce, asserts every part of it at its stated tolerance, and
emits a single PASS or FAIL line (on the real stderr, so it survives
output capture).  Budgeted groups also assert their wall-clock limit.

A number the paper quotes comes only from ``data/reference.cfg``: each
criterion judges the points bound to it through ``cli.run_check``, as
``mdgpusim check`` does.  The bands written here are those no point states.
"""

import itertools
import random
import sys
import time
from dataclasses import replace

import pytest

from mdgpusim import cli
from mdgpusim.costs import default_api_model
from mdgpusim.engine import Engine
from mdgpusim.pipeline import DT_FS, simulate
from mdgpusim.presets import get_profile
from mdgpusim.runtime import Device, EventMode, RankRuntime, RunSettings
from mdgpusim.topology import (GCDS, NODE_PROFILES, NodeTopology, nic_for_gcd, plan_affinity,
                               wired)
from oracles import ZERO_PROFILE, longest_path_ns, queue_kernels, zero_api

# the bundled reference points each published-number criterion judges
SINGLE_GCD_POINTS = ("instant-12k", "best-094-12k", "flush-penalty-094-12k",
                     "cached-band-2310-12k")
STMV_POINTS = ("stmv-sycl-1gcd", "stmv-hip-gain-1gcd")
MULTINODE_POINTS = ("instant-gain-512n", "instant-rate-512n")

# what every acceptance run fills in; only its id reaches a report row
ACCEPTANCE = cli.Scenario("acceptance", system="", profile="")


def run_one(system_id, profile_id, *, mcn=100, mode="coarse", keep_trace=False,
            **fields):
    scenario = replace(ACCEPTANCE, system=system_id, profile=profile_id,
                       max_cached_nodes=mcn, event_mode=mode, **fields)
    return simulate(scenario.build_plan(), keep_trace=keep_trace)


def expect(failures, ok, detail):
    if not ok:
        failures.append(detail)


def expect_points(failures, point_ids, reports):
    """Judge the bundled points ``point_ids`` on ``reports``; a point out
    of band, or with no rows to judge, fails with ``run_check``'s line."""
    bundled = {p.point_id: p for p in cli.load_bundled_references()}
    rows = [cli._format_row(ACCEPTANCE, report) for report in reports]
    lines, _ = cli.run_check(rows, [bundled[pid] for pid in point_ids])
    failures.extend(line for line in lines[:-1] if not line.startswith("PASS"))


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def criterion(label, failures):
    """One visible verdict line per acceptance criterion."""
    verdict = "FAIL" if failures else "PASS"
    line = f"{verdict} {label}"
    if failures:
        line += ": " + "; ".join(failures)
    print(line)
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}", file=sys.stderr, flush=True)
    if failures:
        pytest.fail("; ".join(failures))


# -- shared expensive runs ----------------------------------------------------


@pytest.fixture(scope="module")
def event_mode_pair():
    return (run_one("grappa_pme_12k", "acpp-23.10", mode="full"),
            run_one("grappa_pme_12k", "acpp-23.10", mode="coarse"))


NODE_POINTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@pytest.fixture(scope="module")
def multinode():
    """Every 46M-atom node-count run the scaling checks need, timed."""
    t0 = time.perf_counter()
    instant = {n: run_one("grappa_rf_46m", "acpp-23.10", instant=True,
                          ranks=n * GCDS)
               for n in (1, 128, 256, 512)}
    cached = {}
    for profile_id in ("acpp-23.10", "acpp-0.9.4"):
        for mcn in (5, 0):
            cached[(profile_id, mcn)] = {
                n: run_one("grappa_rf_46m", profile_id, mcn=mcn, ranks=n * GCDS)
                for n in NODE_POINTS}
        cached[(profile_id, 100)] = {
            n: run_one("grappa_rf_46m", profile_id, mcn=100, ranks=n * GCDS)
            for n in (256, 512)}
    return instant, cached, time.perf_counter() - t0


# -- criteria -----------------------------------------------------------------


def test_single_gcd_submission_mode_rates():
    t0 = time.perf_counter()
    instant = run_one("grappa_pme_12k", "acpp-23.10", instant=True)
    m094 = {m: run_one("grappa_pme_12k", "acpp-0.9.4", mcn=m) for m in (100, 0)}
    cached_2310 = {m: run_one("grappa_pme_12k", "acpp-23.10", mcn=m)
                   for m in (0, 5, 100)}
    elapsed = time.perf_counter() - t0

    failures = []
    expect_points(failures, SINGLE_GCD_POINTS,
                  [instant, *m094.values(), *cached_2310.values()])
    # the flush penalty as step time: MCN=0 takes this much longer per step
    longer = m094[100].ns_per_day / m094[0].ns_per_day - 1.0
    expect(failures, 0.09 <= longer <= 0.19,
           f"0.9.4 uncached step time {longer:+.1%} outside 14% +-5pp")
    for m, report in sorted(cached_2310.items()):
        expect(failures, 921 * 0.9 <= report.ns_per_day <= 932 * 1.1,
               f"23.10 MCN={m} rate {report.ns_per_day:.1f} outside the "
               "921-932 +-10% band")
    expect(failures, elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s")
    criterion("single-GCD submission-mode rates (12k atoms)", failures)


def test_event_granularity_speedup(event_mode_pair):
    full_12k, coarse_12k = event_mode_pair
    full_192k = run_one("grappa_pme_192k", "acpp-23.10", mode="full")
    coarse_192k = run_one("grappa_pme_192k", "acpp-23.10", mode="coarse")

    failures = []
    small_gain = coarse_12k.ns_per_day / full_12k.ns_per_day - 1.0
    expect(failures, small_gain > 0.35,
           f"coarse-event gain {small_gain:.1%} at 12k atoms, needs >35%")
    large_gain = coarse_192k.ns_per_day / full_192k.ns_per_day - 1.0
    expect(failures, 0.049 <= large_gain <= 0.109,
           f"coarse-event gain {large_gain:.1%} at 192k outside 7.9% +-3pp")
    criterion("coarse event-recording speedup", failures)


def test_stmv_single_node_scaling():
    sycl = [run_one("stmv", "acpp-23.10", ranks=r, mcn=0, instant=True)
            for r in range(1, 9)]
    hip = [run_one("stmv", "hip-native", ranks=r, mcn=0, instant=True,
                   backend="hip") for r in range(1, 9)]
    one = {"0.9.4": run_one("stmv", "acpp-0.9.4"),
           "23.10": run_one("stmv", "acpp-23.10"),
           "instant": sycl[0], "hip": hip[0]}
    sycl_vals = [one[k].ns_per_day for k in ("0.9.4", "23.10", "instant")]

    failures = []
    expect_points(failures, STMV_POINTS, one.values())
    spread = (max(sycl_vals) - min(sycl_vals)) / min(sycl_vals)
    expect(failures, spread <= 0.02,
           f"SYCL profile spread {spread:.1%} on one GCD, needs <=2%")
    expect(failures, 17.8 * 0.9 <= min(sycl_vals) <= 17.8 * 1.1,
           f"SYCL rate {min(sycl_vals):.2f} ns/day on one GCD outside 17.8 +-10%")
    expect(failures, 21.6 * 0.9 <= one["hip"].ns_per_day <= 21.6 * 1.1,
           f"hip-native rate {one['hip'].ns_per_day:.2f} ns/day on one GCD "
           "outside 21.6 +-10%")

    uncached = [run_one("stmv", "acpp-23.10", ranks=2, mcn=0).ns_per_day,
                run_one("stmv", "acpp-23.10", ranks=2, mcn=0,
                        instant=True).ns_per_day]
    cached = [run_one("stmv", p, ranks=2, mcn=m).ns_per_day
              for p in ("acpp-0.9.4", "acpp-23.10") for m in (100, 5)]
    uncached_mean = sum(uncached) / len(uncached)
    cached_mean = sum(cached) / len(cached)
    expect(failures, 21.8 * 0.9 <= uncached_mean <= 21.9 * 1.1,
           f"2-GCD uncached rate {uncached_mean:.2f} ns/day outside "
           "21.8-21.9 +-10%")
    expect(failures, 17.6 * 0.9 <= cached_mean <= 17.9 * 1.1,
           f"2-GCD cached rate {cached_mean:.2f} ns/day outside 17.6-17.9 +-10%")
    two_gcd_gain = uncached_mean / cached_mean - 1.0
    expect(failures, 0.18 <= two_gcd_gain <= 0.28,
           f"2-GCD uncached gain {two_gcd_gain:.1%} outside 23% +-5pp")

    sycl_best = max(range(8), key=lambda i: sycl[i].ns_per_day) + 1
    hip_best = max(range(8), key=lambda i: hip[i].ns_per_day) + 1
    expect(failures, sycl_best == 8,
           f"SYCL rate peaks at {sycl_best} GCDs, expected 8")
    expect(failures, hip_best == 6,
           f"hip-native rate peaks at {hip_best} GCDs, expected 6")
    criterion("STMV single-node rates and GCD scaling", failures)


def test_multinode_cache_tradeoffs(multinode):
    instant, cached, _ = multinode
    failures = []
    expect_points(failures, MULTINODE_POINTS,
                  [instant[512], *(series[512] for series in cached.values())])

    for profile_id, ref in (("acpp-0.9.4", 0.38), ("acpp-23.10", 0.26)):
        cached_rate = cached[(profile_id, 100)][512].ns_per_day
        penalty = 1.0 - cached[(profile_id, 0)][512].ns_per_day / cached_rate
        expect(failures, ref - 0.10 <= penalty <= ref + 0.10,
               f"{profile_id} MCN=0 flushing penalty {penalty:.1%} at 512 "
               f"nodes outside {ref:.0%} +-10pp")

    for profile_id, lo, hi in (("acpp-23.10", 0.5, 2.0),
                               ("acpp-0.9.4", 1.5, 6.0)):
        m5 = cached[(profile_id, 5)]
        m0 = cached[(profile_id, 0)]
        wins = [m5[n].ns_per_day >= m0[n].ns_per_day for n in NODE_POINTS]
        flip = wins.index(False) if False in wins else len(wins)
        shape = "".join("5" if w else "0" for w in wins)
        if flip == 0 or flip == len(wins) or not all(wins[:flip]) \
                or any(wins[flip:]):
            failures.append(f"{profile_id} MCN=5 vs MCN=0 does not flip "
                            f"exactly once across the sweep (pattern {shape})")
            continue
        cross_ms = m5[NODE_POINTS[flip - 1]].ms_per_step
        expect(failures, lo <= cross_ms <= hi,
               f"{profile_id} MCN=5 stops winning at {cross_ms:.2f} ms/step, "
               f"outside [{lo}, {hi}]")
    criterion("multi-node caching tradeoffs (46M atoms)", failures)


def test_strong_scaling_limits(multinode):
    instant, cached, elapsed = multinode
    failures = []

    pe_128 = instant[128].ns_per_day / instant[1].ns_per_day / 128
    expect(failures, pe_128 > 0.37,
           f"parallel efficiency {pe_128:.1%} at 128 nodes, needs >37%")
    expect(failures, instant[512].ns_per_day > instant[256].ns_per_day,
           "instant submission stopped scaling before 512 nodes")
    ms_512 = instant[512].ms_per_step
    expect(failures, 0.6 <= ms_512 <= 1.0,
           f"instant at 512 nodes runs {ms_512:.2f} ms/step, expected near 0.8")
    instant_gain = instant[512].ns_per_day / instant[256].ns_per_day
    for (profile_id, mcn), series in sorted(cached.items()):
        ratio = series[512].ns_per_day / series[256].ns_per_day
        expect(failures, ratio <= 1.05 and ratio < instant_gain,
               f"{profile_id} MCN={mcn} still gains {ratio - 1.0:.1%} "
               "past 256 nodes")
    expect(failures, elapsed < 60.0,
           f"node sweep took {elapsed:.1f}s, budget 60s")
    criterion("strong scaling to 512 nodes (46M atoms)", failures)


def test_each_bundled_point_is_bound_to_one_criterion():
    bound = SINGLE_GCD_POINTS + STMV_POINTS + MULTINODE_POINTS
    assert sorted(bound) == sorted(p.point_id for p in cli.load_bundled_references())


# -- execution properties -----------------------------------------------------


def _random_burst_spec(rng, force_deferred=False):
    instant = not force_deferred and rng.random() < 0.4
    if instant:
        profile_id = rng.choice(("acpp-23.10", "hip-native"))
    else:
        profile_id = rng.choice(("acpp-0.9.4", "acpp-23.10"))
    settings = RunSettings(
        max_cached_nodes=rng.choice((0, 1, 3, 7, 50)),
        instant_submission=instant,
        event_mode=rng.choice((EventMode.COARSE, EventMode.FULL)),
        max_hw_queues=rng.choice((1, 2, 4)),
        seed=rng.randrange(1000))
    queue_count = rng.randint(1, 3)
    tasks = []
    for i in range(rng.randint(1, 25)):
        deps = sorted(rng.sample(range(i), rng.randint(0, min(i, 2)))) if i else []
        tasks.append((rng.randrange(1000, 200000),
                      rng.randrange(queue_count), tuple(deps),
                      rng.random() < 0.1))
    return profile_id, settings, queue_count, tuple(tasks)


def _run_burst(spec, profile=None, api=None, mcn=None):
    profile_id, settings, queue_count, tasks = spec
    if mcn is not None:
        settings = replace(settings, max_cached_nodes=mcn)
    eng = Engine()
    prof = profile or get_profile(profile_id)
    dev = Device(eng, "gcd0", prof, settings)
    rt = RankRuntime(eng, "rank0", prof, settings,
                     api or default_api_model(seed=settings.seed))
    queues = [dev.new_stream(f"q{i}") for i in range(queue_count)]

    def app():
        done = []
        for dur, q, deps, sync_after in tasks:
            ev = yield from rt.submit(queues[q], f"t{len(done)}", dur,
                                      deps=[done[j] for j in deps])
            done.append(ev)
            if sync_after:
                yield from rt.sync([ev])
        yield from rt.sync(done)

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    return eng.run_until_idle(), rt


def _check_queues_in_order(failures, trace, where):
    by_actor = {}
    for actor, _, begin, end, _ in trace.records:
        if "gcd" in actor and ".q" in actor:
            by_actor.setdefault(actor, []).append((begin, end))
    for actor, spans in by_actor.items():
        spans.sort()
        for (_, prev_end), (cur_begin, _) in zip(spans, spans[1:]):
            if cur_begin < prev_end:
                failures.append(f"{where}: overlapping work on {actor}")
                return


# (system, ranks): one rank with the mesh inline, short-range ranks on
# one node, STMV with a long-range rank on 2 and 5 ranks, a mesh system
# on 4 ranks, and 46M atoms across 512 nodes
KERNEL_ORDER_PLANS = [("grappa_pme_12k", 1), ("grappa_rf_24k", 8), ("stmv", 2),
                      ("stmv", 5), ("grappa_pme_96k", 4), ("grappa_rf_46m", 4096)]


@pytest.mark.parametrize("system, ranks", KERNEL_ORDER_PLANS,
                         ids=[f"{s}-{r}r" for s, r in KERNEL_ORDER_PLANS])
def test_instant_and_uncached_deferred_runs_order_kernels_alike(system, ranks):
    """Instant submission reorders nothing relative to deferred submission
    that flushes on every submit: each device queue runs the same kernels
    in the same order.  A larger node cache may reorder them across
    queues, so it is not part of the property."""
    runs = [run_one(system, "acpp-23.10", eras=2, ranks=ranks, keep_trace=True,
                    overrides={"system.nstlist": 20}, **mode)
            for mode in (dict(instant=True), dict(mcn=0))]
    instant, deferred = (queue_kernels(run.trace) for run in runs)
    assert instant and instant == deferred


def test_execution_properties(event_mode_pair, multinode):
    failures = []

    # bit-identical replay over randomized submission scenarios
    rng = random.Random(7)
    specs = [_random_burst_spec(rng) for _ in range(100)]
    for i, spec in enumerate(specs):
        first, _ = _run_burst(spec)
        second, _ = _run_burst(spec)
        if first.records != second.records or \
                first.makespan_ns != second.makespan_ns:
            failures.append(f"replay diverged on random scenario {i}")
            break

    # per-queue in-order execution on every trace seen here
    for i, spec in enumerate(specs[:40]):
        trace, _ = _run_burst(spec)
        _check_queues_in_order(failures, trace, f"scenario {i}")
        if failures:
            break
    pipeline_run = run_one("grappa_pme_12k", "acpp-23.10", eras=2,
                           keep_trace=True)
    _check_queues_in_order(failures, pipeline_run.trace, "12k pipeline")

    # a larger node cache can only delay the first kernel launch further
    # (later launches also ride on how far the flush worker falls behind,
    # so the first launch is the clean probe of pure buffering delay)
    mono_rng = random.Random(8)
    for i in range(25):
        spec = _random_burst_spec(mono_rng, force_deferred=True)
        delays = []
        for mcn in (0, 1, 2, 5, 20, 100):
            _, rt = _run_burst(spec, mcn=mcn)
            delays.append(rt.launch_delays[0])
        if any(b < a for a, b in zip(delays, delays[1:])):
            failures.append("first-launch delay not monotone in cache size "
                            f"on scenario {i}: {delays}")
            break

    # coarse event recording never loses to full granularity
    full_12k, coarse_12k = event_mode_pair
    expect(failures, coarse_12k.makespan_ns <= full_12k.makespan_ns,
           "coarse event mode ran longer than full event mode")

    # makespan equals an independent longest-path computation
    quiet = zero_api()
    dag_rng = random.Random(9)
    for i in range(40):
        n = dag_rng.randint(1, 30)
        tasks = []
        for j in range(n):
            deps = sorted(dag_rng.sample(range(j), dag_rng.randint(0, min(j, 3)))) \
                if j else []
            tasks.append((dag_rng.randint(1, 10000), dag_rng.randrange(3),
                          tuple(deps), False))
        spec = ("unused", RunSettings(instant_submission=True, max_hw_queues=3),
                3, tuple(tasks))
        trace, _ = _run_burst(spec, profile=ZERO_PROFILE, api=quiet)
        longest = longest_path_ns((dur, q, deps) for dur, q, deps, _ in tasks)
        if trace.makespan_ns != longest:
            failures.append(f"makespan {trace.makespan_ns} != longest path "
                            f"{longest} on DAG {i}")
            break

    # the throughput formula is exact, not fitted
    instant_runs, cached_runs, _ = multinode
    reports = [full_12k, coarse_12k, pipeline_run, *instant_runs.values()]
    reports.extend(r for series in cached_runs.values()
                   for r in series.values())
    for report in reports:
        lhs = report.ns_per_day * report.ms_per_step
        rhs = 86.4 * DT_FS
        expect(failures, abs(lhs - rhs) <= 1e-12 * rhs,
               "ns_per_day * ms_per_step deviates from 86.4 * DT_FS")
    criterion("scheduling and throughput properties", failures)


# -- affinity planner ---------------------------------------------------------


def _check_plan_invariants(failures, node, plan, where):
    gcds = [b.gcd for b in plan.ranks]
    ccxs = [b.ccx for b in plan.ranks]
    expect(failures, len(set(gcds)) == len(gcds), f"{where}: duplicate devices")
    expect(failures, len(set(ccxs)) == len(ccxs), f"{where}: duplicate CCXs")
    seen_threads = set()
    for b in plan.ranks:
        placed = b.gcd if node.placement == "bind-ranks-to-ccx" else b.ccx
        # the cabling read both ways: the CCX wired to the rank's device,
        # and the device wired to its CCX
        expect(failures, placed == b.rank and b.gcd == wired(b.ccx) and b.ccx == wired(b.gcd),
               f"{where}: rank{b.rank} placement disagrees with the wiring")
        expect(failures, b.nic == nic_for_gcd(b.gcd),
               f"{where}: rank{b.rank} bound to the wrong NIC")
        expect(failures, b.cores and
               set(b.cores) <= set(node.usable_cores(b.ccx)),
               f"{where}: rank{b.rank} cores leave its CCX")
        expect(failures, b.hw_threads == node.hw_threads(b.cores),
               f"{where}: rank{b.rank} SMT siblings wrong")
        expect(failures, b.env.get("ROCR_VISIBLE_DEVICES") == str(b.gcd),
               f"{where}: rank{b.rank} device visibility env wrong")
        overlap = seen_threads.intersection(b.hw_threads)
        expect(failures, not overlap,
               f"{where}: rank{b.rank} shares hardware threads")
        seen_threads.update(b.hw_threads)


def test_affinity_planner_bindings():
    failures = []
    for name in ("lumi", "dardel"):
        node = NODE_PROFILES[name]()
        plan = plan_affinity(node, GCDS)
        _check_plan_invariants(failures, node, plan, name)

    lumi_plan = plan_affinity(NODE_PROFILES["lumi"](), 8)
    ccx0 = [b for b in lumi_plan.ranks if b.ccx == 0]
    expect(failures, len(ccx0) == 1 and ccx0[0].gcd == 4 and ccx0[0].nic == 2,
           "CCX0 is not paired with GCD4 and NIC2 on the lumi profile")

    # every placement profile a node can have, at every rank count
    for reserve, smt, placement, ranks in itertools.product(
            (False, True), (1, 2), ("bind-ranks-to-ccx", "reorder-devices"),
            range(1, GCDS + 1)):
        node = NodeTopology(name="any", reserve_first_core=reserve, smt=smt,
                            placement=placement)
        where = f"{placement}, reserve {reserve}, smt {smt}, {ranks} ranks"
        plan = plan_affinity(node, ranks)
        expect(failures, len(plan.ranks) == ranks, f"{where}: wrong rank count")
        _check_plan_invariants(failures, node, plan, where)
        if failures:
            break
    criterion("affinity planner bindings", failures)
