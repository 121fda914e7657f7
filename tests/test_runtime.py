import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpusim.costs import (ApiKind, ApiLatencyModel, KernelKind, TwoPointLatency,
                            default_api_model, round_half_up)
from mdgpusim.engine import Engine
from mdgpusim import presets, runtime
from mdgpusim.cli import main
from mdgpusim.config import ConfigError
from mdgpusim.presets import SystemPreset, get_profile, load_profiles
from mdgpusim.runtime import (
    DISPATCH_GAP_NS,
    FLUSH_TRIGGER_NS,
    OVERSUB_EXTRA_NS,
    RETIRE_FLUSH_CAP_NS,
    RETIRE_RATE,
    RETIRE_SYNC_CAP_NS,
    Device,
    EventMode,
    RankRuntime,
    RunSettings,
    RuntimeProfile,
)
from mdgpusim.topology import NODE_PROFILES, NodeTopology


def quiet_api(seed=0):
    """Tail-free latencies so arithmetic in tests is exact."""
    return ApiLatencyModel({
        ApiKind.KERNEL_LAUNCH: TwoPointLatency(2000.0, 2000.0),
        ApiKind.EVENT_RECORD: TwoPointLatency(2000.0, 2000.0),
        ApiKind.EVENT_CREATE_DESTROY: TwoPointLatency(5500.0, 5500.0),
        ApiKind.STREAM_WAIT_EVENT: TwoPointLatency(4000.0, 4000.0),
        ApiKind.MEMCPY_ASYNC: TwoPointLatency(3000.0, 3000.0),
        ApiKind.HOST_SYNC_POLL: TwoPointLatency(2000.0, 2000.0),
    }, seed=seed)


def build_rank(settings, profile=None, api=None):
    eng = Engine()
    prof = profile or get_profile("acpp-23.10")
    dev = Device(eng, "gcd0", prof, settings)
    rt = RankRuntime(eng, "rank0", prof, settings, api or quiet_api())
    return eng, dev, rt


def run_submit_burst(settings, n_nodes, dur=50_000, profile=None):
    """App submits ``n_nodes`` equal kernels to one stream, then syncs."""
    eng, dev, rt = build_rank(settings, profile=profile)
    q = dev.new_stream("q0")

    def app():
        evts = []
        for i in range(n_nodes):
            ev = yield from rt.submit(q, f"k{i}", dur)
            evts.append(ev)
        yield from rt.sync(evts)

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    trace = eng.run_until_idle()
    return trace, rt


def named(trace, name):
    """The trace records of charges called ``name``, in record order."""
    return [r for r in trace.records if r[1] == name]


def test_profiles_load_and_validate():
    profiles = load_profiles()
    assert set(profiles) == {"acpp-0.9.4", "acpp-23.10", "hip-native"}
    assert profiles["acpp-0.9.4"].submission == "deferred"
    assert profiles["acpp-23.10"].submission == "both"
    assert profiles["hip-native"].submission == "instant"
    for p in profiles.values():
        p.validate()


# the profile fields an instant run reads; every other field only a
# deferred run reads, so no byte of an instant run moves with it
# (test_deferred_only_fields_go_unread_on_instant_runs)
INSTANT_READ = ("name", "submission", "mpi_msg_cpu_ns", "pme_comm_overlap",
                "hsa_worker_duty_milli")
DEFERRED_ONLY = tuple(f.name for f in dataclasses.fields(RuntimeProfile)
                      if f.name not in INSTANT_READ)


def test_every_profile_field_differs_between_bundled_profiles():
    """A field all runtime versions set alike is no property of a version:
    it belongs where the model reads it, as one constant.  A deferred-only
    field counts only over the profiles that defer: no run reads the
    value an instant-only profile gives it."""
    profiles = load_profiles().values()
    deferring = [p for p in profiles if p.supports_deferred()]
    assert len(deferring) >= 2
    alike = [f.name for f in dataclasses.fields(RuntimeProfile)
             if len({getattr(p, f.name)
                     for p in (deferring if f.name in DEFERRED_ONLY else profiles)}) < 2]
    assert alike == []


# an instant run of each profile that submits instantly
INSTANT_RUNS = {
    "stmv-hip-native-8r": ["--system", "stmv", "--profile", "hip-native",
                           "--ranks", "8", "--backend", "hip", "--instant"],
    "pme12k-acpp-23.10-3r": ["--system", "grappa_pme_12k", "--profile", "acpp-23.10",
                             "--instant", "--ranks", "3"],
}


@pytest.mark.parametrize("flags", INSTANT_RUNS.values(), ids=INSTANT_RUNS)
def test_deferred_only_fields_go_unread_on_instant_runs(tmp_path, flags):
    """Raising any deferred-only field leaves an instant run's CSV and
    trace byte-identical.  Flush bookkeeping rises only to the budget
    ``RuntimeProfile.validate`` allows it, one submission's cost."""
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "run.json"

    def digests(*overrides):
        sets = [arg for key in overrides for arg in ("--set", key)]
        assert main(["simulate", *flags, "--output", str(csv_path),
                     "--trace", str(trace_path), *sets]) == 0
        return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, trace_path)]

    profile = get_profile(flags[flags.index("--profile") + 1])
    base = digests()
    for name in DEFERRED_ONLY:
        value = 2 * getattr(profile, name) + 1
        if name == "flush_bookkeeping_cost_ns":
            value = min(value, profile.submit_cost_ns + FLUSH_TRIGGER_NS)
        assert value != getattr(profile, name)
        assert digests(f"profile.{name}={value}") == base, name


def test_every_node_field_differs_between_bundled_nodes():
    """The counts and the wiring are the one node type's, module
    constants and functions; a node profile holds only what differs."""
    nodes = [make() for make in NODE_PROFILES.values()]
    alike = [f.name for f in dataclasses.fields(NodeTopology)
             if len({getattr(n, f.name) for n in nodes}) < 2]
    assert alike == []


def test_every_latency_field_differs_between_bundled_laws():
    """The tail probability is every kind's, ``costs.TAIL_PROB``; a law
    holds only what differs between kinds."""
    laws = default_api_model().table.values()
    alike = [f.name for f in dataclasses.fields(TwoPointLatency)
             if len({getattr(law, f.name) for law in laws}) < 2]
    assert alike == []


def test_only_nstlist_is_alike_across_bundled_systems():
    """A field every bundled system sets alike is no property of a
    system: it belongs where the model reads it, as one constant.
    ``nstlist`` is the one exception: runs resize with
    ``--set system.nstlist``, and the benchmark reads it off the plan."""
    systems = presets.load_systems().values()
    alike = [f.name for f in dataclasses.fields(SystemPreset)
             if len({getattr(s, f.name) for s in systems}) < 2]
    assert alike == ["nstlist"]


@pytest.mark.parametrize("filename, line, loader, message", [
    ("runtime-acpp-23.10.cfg", "submit_cost = 1700", load_profiles,
     "runtime-acpp-23.10.cfg: unknown key 'submit_cost'"),
    ("systems.cfg", "stmv.nbnxm_scal = 2.0", presets.load_systems,
     "systems.cfg: unknown key 'stmv.nbnxm_scal'"),
], ids=["profile", "system"])
def test_misspelt_bundled_key_names_the_file_and_the_key(
        monkeypatch, filename, line, loader, message):
    data_text = presets._data_text

    def with_typo(name):
        text = data_text(name)
        return text + line + "\n" if name == filename else text

    monkeypatch.setattr(presets, "_data_text", with_typo)
    with pytest.raises(ConfigError) as excinfo:
        loader()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("filename, line", [
    ("runtime-acpp-23.10.cfg", "per_node_flush_cost_ns = 14000"),
    ("runtime-acpp-23.10.cfg", "submit_cost_ns = 1700"),
    ("runtime-hip-native.cfg", "mpi_msg_cpu_ns = 30000"),
    ("runtime-acpp-0.9.4.cfg", "pme_comm_overlap = true"),
], ids=["per-node-flush", "submit-cost", "mpi-cpu", "pme-overlap"])
def test_bundled_profile_missing_a_key_is_one_error_line(monkeypatch, capsys, filename, line):
    """A field every bundled profile sets has no default to fall back on:
    a file that omits one names itself and the key, never running at a
    value no profile states nor failing with a traceback."""
    data_text = presets._data_text

    def without(name):
        text = data_text(name)
        if name != filename:
            return text
        assert line + "\n" in text
        return text.replace(line + "\n", "")

    monkeypatch.setattr(presets, "_data_text", without)
    key = line.split(" = ")[0]
    code = main(["simulate", "--system", "grappa_pme_1500", "--profile", "acpp-23.10",
                 "--eras", "2"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {filename}: missing key {key!r}\n")


def test_bundled_system_missing_a_key_names_the_file_and_the_key(monkeypatch):
    data_text = presets._data_text

    def without(name):
        text = data_text(name)
        return text.replace("stmv.atoms = ", "# ") if name == "systems.cfg" else text

    monkeypatch.setattr(presets, "_data_text", without)
    with pytest.raises(ConfigError) as excinfo:
        presets.load_systems()
    assert str(excinfo.value) == "systems.cfg: missing key 'stmv.atoms'"


def test_every_kernel_kind_is_scaled_by_exactly_one_family():
    """``SystemPreset.scale_for`` has no fallback, so a new kind must join
    a family before any system can price it."""
    assert {kind: sum(kind in kinds for kinds in presets._FAMILIES.values())
            for kind in KernelKind} == {kind: 1 for kind in KernelKind}
    system = SystemPreset("s", atoms=1, pme=True, nbnxm_scale=2.0, pme_scale=3.0,
                          listed_scale=5.0, update_scale=7.0)
    assert {family: {system.scale_for(kind) for kind in kinds}
            for family, kinds in presets._FAMILIES.items()} == {
        "nbnxm": {2.0}, "pme": {3.0}, "listed": {5.0}, "update": {7.0}}


def test_monotonicity_guard_rejects_heavy_bookkeeping():
    with pytest.raises(ValueError):
        RuntimeProfile(
            name="bad", submission="deferred", submit_cost_ns=1000,
            flush_bookkeeping_cost_ns=2000,
            per_node_flush_cost_ns=5000, notify_cost_ns=0, retire_fixed_ns=0,
            mpi_msg_cpu_ns=0, pme_comm_overlap=True,
        ).validate()


def test_mode_support_is_enforced():
    eng = Engine()
    with pytest.raises(ValueError):
        RankRuntime(eng, "rank0", get_profile("hip-native"),
                    RunSettings(instant_submission=False), quiet_api())
    eng2 = Engine()
    with pytest.raises(ValueError):
        RankRuntime(eng2, "rank0", get_profile("acpp-0.9.4"),
                    RunSettings(instant_submission=True), quiet_api())


@pytest.mark.parametrize("mode", ["full", "coarse", None, 1])
def test_run_settings_reject_an_event_mode_that_is_not_an_event_mode(mode):
    """A plain string would run as COARSE whatever it said, so it is refused."""
    with pytest.raises(ValueError) as err:
        RunSettings(event_mode=mode)
    assert str(err.value) == f"event_mode must be an EventMode, got {mode!r}"


def test_streams_round_robin_onto_hw_slots():
    eng = Engine()
    settings = RunSettings(max_hw_queues=4)
    dev = Device(eng, "gcd0", get_profile("acpp-23.10"), settings)
    streams = [dev.new_stream(f"s{i}") for i in range(6)]
    slots = [s.slot.name for s in streams]
    assert slots == ["gcd0.q0", "gcd0.q1", "gcd0.q2", "gcd0.q3", "gcd0.q0", "gcd0.q1"]
    assert [s.name for s in dev.slots] == ["gcd0.q0", "gcd0.q1", "gcd0.q2", "gcd0.q3"]


def test_slots_are_built_only_for_streams_that_claim_them():
    eng = Engine()
    prof = get_profile("acpp-23.10")
    dev = Device(eng, "gcd0", prof, RunSettings(max_hw_queues=10**6))
    assert dev.slots == []
    streams = [dev.new_stream("a"), dev.new_stream("b")]
    assert [s.slot for s in streams] == dev.slots
    assert len(dev.slots) == 2
    # two streams on a million queues: no oversubscription extra
    assert [s.dispatch_gap_ns for s in dev.slots] == [DISPATCH_GAP_NS] * 2


def test_idle_streams_occupy_slots_first_when_many_devices_visible():
    eng = Engine()
    settings = RunSettings(max_hw_queues=4, visible_devices=8)
    dev = Device(eng, "gcd0", get_profile("acpp-23.10"), settings)
    app_stream = dev.new_stream("q_loc")
    # four idle runtime streams came first, so the app lands back on slot 0
    assert len(dev.streams) == 5
    assert app_stream.slot.name == "gcd0.q0"
    # five streams on four slots: every dispatch now pays the oversub extra
    gap = dev.slots[0].dispatch_gap_ns
    assert gap > DISPATCH_GAP_NS


def test_single_visible_device_creates_no_idle_streams():
    eng = Engine()
    dev = Device(eng, "gcd0", get_profile("acpp-23.10"), RunSettings())
    assert dev.streams == []
    dev.new_stream("q_loc")
    assert dev.slots[0].dispatch_gap_ns == DISPATCH_GAP_NS


def test_a_stream_created_mid_run_retunes_later_dispatches():
    """A second stream on the only queue slot, created between two bursts
    of the same node, oversubscribes it: the dispatches after it pay the
    raised gap, though the node's charges were built at the old one."""
    prof = get_profile("acpp-23.10")
    eng, dev, rt = build_rank(RunSettings(instant_submission=True, max_hw_queues=1),
                              profile=prof)
    q = dev.new_stream("q0")

    def burst():
        evts = []
        for _ in range(3):
            ev = yield from rt.submit(q, "k", 1000)
            evts.append(ev)
        yield from rt.sync(evts)

    def app():
        yield from burst()
        dev.new_stream("late")
        yield from burst()

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    dispatches = named(eng.run_until_idle(), "dispatch")
    # two streams on one slot: the ratio is 2, so the extra is paid once
    raised = DISPATCH_GAP_NS + OVERSUB_EXTRA_NS
    assert [end - begin for _, _, begin, end, _ in dispatches] == \
        [DISPATCH_GAP_NS] * 3 + [raised] * 3
    assert dev.slots[0].dispatch_gap_ns == raised
    assert all(args == {"for": "k"} for *_, args in dispatches)


def test_same_slot_serializes_distinct_slots_overlap():
    eng = Engine()
    settings = RunSettings(max_hw_queues=2)
    prof = get_profile("acpp-23.10")
    dev = Device(eng, "gcd0", prof, settings)
    a = dev.new_stream("a")   # slot 0
    b = dev.new_stream("b")   # slot 1
    c = dev.new_stream("c")   # slot 0 again
    rt = RankRuntime(eng, "rank0", prof, settings, quiet_api())

    def app():
        e1 = yield from rt.submit(a, "ka", 100_000)
        e2 = yield from rt.submit(b, "kb", 100_000)
        e3 = yield from rt.submit(c, "kc", 100_000)
        yield from rt.sync([e1, e2, e3])

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    tr = eng.run_until_idle()
    spans = {name: (begin, end) for _, name, begin, end, _ in tr.records
             if name in ("ka", "kb", "kc")}
    # a and b overlap on different slots; c waits for a on slot 0
    assert spans["kb"][0] < spans["ka"][1]
    assert spans["kc"][0] >= spans["ka"][1]


def test_deferred_holds_nodes_until_cache_exceeded():
    settings = RunSettings(max_cached_nodes=100)
    trace, rt = run_submit_burst(settings, n_nodes=5)
    # five nodes never exceeded the cache: they reached the device only
    # at the sync-triggered flush, after all submits were done
    launches = named(trace, "kernel_launch")
    submits = named(trace, "submit_node")
    assert len(launches) == 5
    assert len(submits) == 5
    assert min(begin for _, _, begin, _, _ in launches) > \
        max(end for _, _, _, end, _ in submits)
    assert all(actor == "rank0.dag-flush" for actor, *_ in launches)


def test_deferred_flushes_mid_burst_once_cache_exceeded():
    settings = RunSettings(max_cached_nodes=3)
    trace, rt = run_submit_burst(settings, n_nodes=10)
    triggers = named(trace, "flush_trigger")
    # 10 submits with cache 3: flush after the 4th and 8th submit, plus
    # the sync flush for the tail
    assert len(triggers) == 3
    assert [args["nodes"] for *_, args in triggers] == [4, 4, 2]


def test_instant_launches_from_the_app_thread():
    settings = RunSettings(instant_submission=True)
    trace, rt = run_submit_burst(settings, n_nodes=4)
    launches = named(trace, "kernel_launch")
    assert len(launches) == 4
    assert all(actor == "rank0.app" for actor, *_ in launches)
    assert not named(trace, "flush_trigger")
    assert not named(trace, "graph_process")
    assert rt.flush_actor is None


def test_deferred_sync_pays_notify_and_retire():
    settings = RunSettings(max_cached_nodes=0)
    trace, rt = run_submit_burst(settings, n_nodes=6)
    notifies = named(trace, "sync_notify")
    retires = named(trace, "graph_retire")
    assert len(notifies) == 1
    assert notifies[0][0] == "rank0.dag-monitor"
    assert len(retires) == 1
    _, _, begin, end, args = retires[0]
    assert args["flushes"] == 6
    prof = get_profile("acpp-23.10")
    # the monitor has no domain, so the record spans the tax exactly: the
    # sum over the flushes, each aged from the end of its trigger to the
    # retirement's begin, capped per flush and per sync
    ages = [begin - end for *_, end, _ in named(trace, "flush_trigger")]
    assert len(ages) == 6
    tax = min(sum(min(prof.retire_fixed_ns + round_half_up(RETIRE_RATE * age),
                      RETIRE_FLUSH_CAP_NS) for age in ages),
              RETIRE_SYNC_CAP_NS)
    assert end - begin == tax > 0
    assert notifies[0][3] == begin


@settings(max_examples=200, deadline=None)
@given(fixed=st.integers(0, 40_000), ages=st.lists(st.integers(0, 5_000_000), max_size=300))
def test_retire_tax_is_the_capped_sum(fixed, ages):
    """Stopping the sum once it reaches the sync cap gives the whole
    formula's value: every term is >= 0."""
    prof = dataclasses.replace(get_profile("acpp-23.10"), retire_fixed_ns=fixed)
    now = 10_000_000
    triggers = [now - age for age in ages]
    full = min(sum(min(fixed + round_half_up(RETIRE_RATE * (now - t)), RETIRE_FLUSH_CAP_NS)
                   for t in triggers), RETIRE_SYNC_CAP_NS)
    assert runtime._retire_tax(prof, triggers, now) == full


@pytest.mark.parametrize("visible", [1, 8], ids=["alone", "with-peers"])
def test_flush_trigger_is_one_charge_per_nodes_and_contention(visible):
    """Batches of two small kernels flush below the contention cutoff,
    batches of two big ones above it, and the sync flushes the last node
    alone.  Each trigger costs what the contention formula says, and one
    charge serves every flush with the same nodes and verdict."""
    prof = get_profile("acpp-23.10")
    settings = RunSettings(max_cached_nodes=1, visible_devices=visible,
                           hsa_affinity_override=True)  # no stretch on the app
    eng, dev, rt = build_rank(settings, profile=prof)
    q = dev.new_stream("q0")
    small, big = 1000, prof.flush_contention_cutoff_ns // 2
    assert 2 * small < prof.flush_contention_cutoff_ns <= 2 * big

    def app():
        evts = []
        for i, dur in enumerate([small] * 4 + [big] * 4 + [small]):
            ev = yield from rt.submit(q, f"k{i}", dur)
            evts.append(ev)
        yield from rt.sync(evts)

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    triggers = named(eng.run_until_idle(), "flush_trigger")
    peers = visible - 1
    contended = FLUSH_TRIGGER_NS + peers * (
        prof.flush_contention_ns_per_peer + prof.flush_contention_scan_ns * 1)
    base = FLUSH_TRIGGER_NS
    assert [(args["nodes"], end - begin) for _, _, begin, end, args in triggers] == \
        [(2, contended)] * 2 + [(2, base)] * 2 + [(1, base)]
    applies = peers > 0
    assert sorted(rt._triggers) == sorted({(2, applies), (2, False), (1, False)})
    # records of one (nodes, verdict) share their charge's payload
    assert len({id(args) for *_, args in triggers}) == len(rt._triggers)


def test_instant_sync_is_a_poll():
    settings = RunSettings(instant_submission=True)
    trace, rt = run_submit_burst(settings, n_nodes=2)
    assert named(trace, "host_sync_poll")
    assert not named(trace, "sync_notify")


def test_hsa_worker_duty_slows_the_app_unless_overridden():
    base = RunSettings(instant_submission=True)
    t1, _ = run_submit_burst(base, n_nodes=3)
    override = RunSettings(instant_submission=True, hsa_affinity_override=True)
    t2, _ = run_submit_burst(override, n_nodes=3)
    app1 = [end - begin for actor, _, begin, end, _ in t1.records if actor == "rank0.app"]
    app2 = [end - begin for actor, _, begin, end, _ in t2.records if actor == "rank0.app"]
    # same work, but the poller shares the app core: every app charge
    # stretches by 1.75x until it is banished
    assert sum(app1) > sum(app2)


def test_full_mode_records_per_node_and_pays_device_packets():
    cg = RunSettings(max_cached_nodes=0, event_mode=EventMode.COARSE)
    full = RunSettings(max_cached_nodes=0, event_mode=EventMode.FULL)
    t_cg, _ = run_submit_burst(cg, n_nodes=5)
    t_full, _ = run_submit_burst(full, n_nodes=5)
    recs_cg = named(t_cg, "event_record")
    recs_full = named(t_full, "event_record")
    assert len(recs_cg) == 1          # the sync marker only
    assert len(recs_full) == 1 + 5    # marker plus one per node
    packets_cg = named(t_cg, "event_packet")
    packets_full = named(t_full, "event_packet")
    assert len(packets_cg) == 0
    assert len(packets_full) == 5


def test_full_mode_never_beats_coarse():
    for mcn, instant in ((0, False), (100, False), (0, True)):
        cg = RunSettings(max_cached_nodes=mcn, instant_submission=instant,
                         event_mode=EventMode.COARSE, seed=11)
        fl = RunSettings(max_cached_nodes=mcn, instant_submission=instant,
                         event_mode=EventMode.FULL, seed=11)
        t_cg, _ = run_submit_burst(cg, n_nodes=12)
        t_fl, _ = run_submit_burst(fl, n_nodes=12)
        assert t_cg.makespan_ns <= t_fl.makespan_ns


def test_full_mode_sees_identical_launch_latencies():
    collected = {}
    for mode in (EventMode.COARSE, EventMode.FULL):
        settings = RunSettings(max_cached_nodes=0, event_mode=mode, seed=99)
        eng = Engine()
        prof = get_profile("acpp-23.10")
        dev = Device(eng, "gcd0", prof, settings)
        rt = RankRuntime(eng, "rank0", prof, settings, default_api_model(seed=99))
        q = dev.new_stream("q0")

        def app():
            evts = []
            for i in range(30):
                ev = yield from rt.submit(q, f"k{i}", 1000)
                evts.append(ev)
            yield from rt.sync(evts)

        eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
        trace = eng.run_until_idle()
        collected[mode] = [end - begin for _, _, begin, end, _
                           in named(trace, "kernel_launch")]
    assert collected[EventMode.COARSE] == collected[EventMode.FULL]


def test_first_launch_delay_grows_with_cache_size():
    delays = {}
    for mcn in (0, 1, 5, 20, 100):
        settings = RunSettings(max_cached_nodes=mcn)
        _, rt = run_submit_burst(settings, n_nodes=150, dur=1000)
        delays[mcn] = rt.launch_delays[0]
    values = [delays[m] for m in (0, 1, 5, 20, 100)]
    assert values == sorted(values)
    assert delays[100] > delays[0]


def test_instant_delay_below_deferred_delay():
    inst = RunSettings(instant_submission=True)
    _, rt_i = run_submit_burst(inst, n_nodes=20, dur=1000)
    defe = RunSettings(max_cached_nodes=0)
    _, rt_d = run_submit_burst(defe, n_nodes=20, dur=1000)
    assert max(rt_i.launch_delays) < min(rt_d.launch_delays)


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(min_value=1, max_value=60),
       dur=st.integers(min_value=100, max_value=200_000),
       mcns=st.lists(st.integers(min_value=0, max_value=120), min_size=2,
                     max_size=4, unique=True))
def test_first_node_delay_monotone_in_cache_size(n_nodes, dur, mcns):
    results = []
    for mcn in sorted(mcns):
        settings = RunSettings(max_cached_nodes=mcn)
        _, rt = run_submit_burst(settings, n_nodes=n_nodes, dur=dur)
        results.append(rt.launch_delays[0])
    assert results == sorted(results)


@settings(max_examples=20, deadline=None)
@given(n_nodes=st.integers(min_value=1, max_value=40),
       dur=st.integers(min_value=100, max_value=100_000),
       pair=st.tuples(st.integers(min_value=40, max_value=200),
                      st.integers(min_value=40, max_value=200)))
def test_single_batch_regime_all_arrivals_monotone(n_nodes, dur, pair):
    """When the whole burst fits in one flush for both settings, every
    node's arrival is no earlier under the larger cache."""
    lo, hi = min(pair), max(pair)
    arrivals = {}
    for mcn in (lo, hi):
        settings = RunSettings(max_cached_nodes=mcn)
        trace, rt = run_submit_burst(settings, n_nodes=n_nodes, dur=dur)
        arrivals[mcn] = sorted(end for _, _, _, end, _ in named(trace, "kernel_launch"))
    assert all(a <= b for a, b in zip(arrivals[lo], arrivals[hi]))


def test_instant_and_deferred0_execute_streams_in_the_same_order():
    orders = {}
    for instant in (True, False):
        settings = RunSettings(instant_submission=instant, max_cached_nodes=0)
        eng = Engine()
        prof = get_profile("acpp-23.10")
        dev = Device(eng, "gcd0", prof, settings)
        qa = dev.new_stream("qa")
        qb = dev.new_stream("qb")
        rt = RankRuntime(eng, "rank0", prof, settings, quiet_api())

        def app():
            evts = []
            for i in range(12):
                q = qa if i % 3 else qb
                ev = yield from rt.submit(q, f"k{i}", 5000)
                evts.append(ev)
            yield from rt.sync(evts)

        eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
        trace = eng.run_until_idle()
        per_stream = {}
        for _, name, _, _, args in trace.records:
            if name.startswith("k") and "stream" in (args or {}):
                per_stream.setdefault(args["stream"], []).append(name)
        orders[instant] = per_stream
    assert orders[True] == orders[False]


def test_cross_stream_dependency_blocks_the_consumer():
    settings = RunSettings(instant_submission=True, max_hw_queues=4)
    eng = Engine()
    prof = get_profile("acpp-23.10")
    dev = Device(eng, "gcd0", prof, settings)
    qa = dev.new_stream("qa")
    qb = dev.new_stream("qb")
    rt = RankRuntime(eng, "rank0", prof, settings, quiet_api())

    def app():
        e1 = yield from rt.submit(qa, "producer", 100_000)
        e2 = yield from rt.submit(qb, "consumer", 1000, deps=[e1])
        yield from rt.sync([e2])

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    tr = eng.run_until_idle()
    spans = {name: (begin, end) for _, name, begin, end, _ in tr.records
             if name in ("producer", "consumer")}
    assert spans["consumer"][0] >= spans["producer"][1]


def test_replay_determinism_with_real_api_model():
    def once():
        settings = RunSettings(max_cached_nodes=7, seed=5)
        eng = Engine()
        prof = get_profile("acpp-0.9.4")
        dev = Device(eng, "gcd0", prof, settings)
        q1 = dev.new_stream("q1")
        q2 = dev.new_stream("q2")
        rt = RankRuntime(eng, "rank0", prof, settings, default_api_model(seed=5))

        def app():
            evts = []
            for i in range(80):
                ev = yield from rt.submit(q1 if i % 2 else q2, f"k{i}", 3000 + i)
                evts.append(ev)
                if i % 17 == 0:
                    yield from rt.sync(evts)
                    evts.clear()
            yield from rt.sync(evts)

        eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
        return eng.run_until_idle().to_json()

    assert once() == once()
