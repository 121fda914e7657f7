"""End-to-end checks of the step pipeline.

Covers the kernel census per step flavour, submission order on the
device, sync cadence for both submission modes, halo exchange counts
under 1D and 3D decompositions, the long-range rank split, throughput
arithmetic, an exact critical-path oracle for small random DAGs, and
the mirrored rank layout against periodic blocks of real ranks.
"""

import dataclasses
import gc
import hashlib
import itertools
import math
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from mdgpusim import costs, pipeline
from mdgpusim.cli import Scenario, render_csv, run_scenario
from mdgpusim.costs import ApiLatencyModel, TwoPointLatency
from mdgpusim.engine import Charge, Engine
from mdgpusim.pipeline import RunPlan, RunReport, balanced_dims, simulate
from mdgpusim.presets import get_profile, get_system, load_profiles, load_systems
from mdgpusim.runtime import Device, EventMode, RankRuntime, RunSettings
from mdgpusim.topology import GCDS, link_class
from oracles import ZERO_PROFILE, longest_path_ns, queue_kernels, zero_api

PME_STEP = ("nbnxm_local", "pme_spread", "fft_3d_forward", "pme_solve",
            "fft_3d_inverse", "pme_gather", "listed_forces", "reduce_forces",
            "leap_frog", "constraints", "grid_memset")
RF_STEP = ("nbnxm_local", "listed_forces", "reduce_forces", "leap_frog",
           "constraints")
SEARCH_STEP = ("pair_search",) + PME_STEP


def run_plan(system_id, profile_id="acpp-23.10", *, ranks=1, mcn=100,
             instant=False, mode=EventMode.COARSE, backend="sycl", eras=2,
             keep_trace=True):
    plan = RunPlan(
        system=get_system(system_id),
        profile=get_profile(profile_id),
        settings=RunSettings(max_cached_nodes=mcn, instant_submission=instant,
                             event_mode=mode, visible_devices=min(ranks, 8)),
        backend=backend, ranks=ranks, n_eras=eras)
    return simulate(plan, keep_trace=keep_trace)


@pytest.mark.parametrize("field, value", [
    ("ranks", 0), ("ranks", -3), ("ranks", 2.0), ("n_eras", 1), ("n_eras", "3"),
    ("backend", "cuda"), ("backend", "SYCL")])
def test_bad_plan_shape_raises_before_anything_runs(monkeypatch, field, value):
    def engine(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(pipeline, "Engine", engine)
    plan = RunPlan(system=get_system("grappa_pme_1500"),
                   profile=get_profile("acpp-23.10"), settings=RunSettings())
    setattr(plan, field, value)
    message = ("must be one of sycl, hip, got " if field == "backend"
               else "must be an integer")
    with pytest.raises(ValueError, match=f"^{field} {message}"):
        simulate(plan)


@pytest.mark.parametrize("ranks, block", [(1, (2, 1, 1)), (4, (2, 2)), (4, (2, 0, 1)),
                                          (8, (2.0, 2, 2)), (12, (2, 2, 2))],
                         ids=["1-2x1x1", "4-2x2", "4-2x0x1", "8-2.0x2x2", "12-2x2x2"])
def test_block_that_does_not_tile_the_grid_raises(ranks, block):
    plan = RunPlan(system=get_system("grappa_rf_24k"), profile=get_profile("acpp-23.10"),
                   settings=RunSettings(), ranks=ranks)
    with pytest.raises(ValueError, match=r"^block must give one extent dividing each of"):
        simulate(plan, block=block)


def device_kernels(trace, prefix):
    """Device-side work records under one device, in execution order."""
    recs = [r for r in trace.records
            if r[0].startswith(prefix) and r[1] not in ("dispatch", "event_packet")]
    recs.sort(key=lambda r: (r[2], r[3]))  # (begin_ns, end_ns)
    return recs


def count_by_name(trace):
    counts = {}
    for _, name, *_ in trace.records:
        counts[name] = counts.get(name, 0) + 1
    return counts


@pytest.fixture(scope="module")
def pme12k():
    return run_plan("grappa_pme_12k")


# -- decomposition arithmetic -------------------------------------------------


def test_balanced_dims_known_splits():
    assert balanced_dims(1) == (1, 1, 1)
    assert balanced_dims(8) == (2, 2, 2)
    assert balanced_dims(12) == (3, 2, 2)
    assert balanced_dims(16) == (4, 2, 2)
    assert balanced_dims(2048) == (16, 16, 8)
    assert balanced_dims(4096) == (16, 16, 16)
    assert balanced_dims(7) == (7, 1, 1)


@given(st.integers(min_value=1, max_value=4096))
def test_balanced_dims_partition_properties(n):
    dx, dy, dz = balanced_dims(n)
    assert dx * dy * dz == n
    assert dx >= dy >= dz >= 1


def test_rank_split_properties():
    rf = get_system("grappa_rf_24k")
    pme = get_system("grappa_pme_24k")
    prof = get_profile("acpp-23.10")
    s = RunSettings()
    assert RunPlan(system=rf, profile=prof, settings=s, ranks=16).pme_ranks == 0
    assert RunPlan(system=pme, profile=prof, settings=s, ranks=1).pme_ranks == 0
    plan = RunPlan(system=pme, profile=prof, settings=s, ranks=8)
    assert plan.pme_ranks == 1
    assert plan.pp_ranks == 7
    assert plan.nodes_used == 1
    assert RunPlan(system=pme, profile=prof, settings=s, ranks=9).nodes_used == 2


# -- single-rank kernel census ------------------------------------------------


def test_single_rank_pme_kernel_census(pme12k):
    # 200 steps of 11 mesh-electrostatics kernels, plus one list build per
    # era start and one prune per tenth non-search step
    kernels = device_kernels(pme12k.trace, "rank0.gcd.q")
    counts = {}
    for _, name, *_ in kernels:
        counts[name] = counts.get(name, 0) + 1
    assert len(kernels) == 200 * 11 + 2 + 18
    assert counts["pair_search"] == 2
    assert counts["prune_only"] == 18
    assert "prune_sort" not in counts
    for name in PME_STEP:
        assert counts[name] == 200, name


def test_single_rank_rf_kernel_census():
    report = run_plan("grappa_rf_12k")
    kernels = device_kernels(report.trace, "rank0.gcd.q")
    counts = {}
    for _, name, *_ in kernels:
        counts[name] = counts.get(name, 0) + 1
    assert len(kernels) == 200 * 5 + 2 + 18
    for name in RF_STEP:
        assert counts[name] == 200, name
    for name in ("pme_spread", "fft_3d_forward", "pme_solve", "fft_3d_inverse",
                 "pme_gather", "grid_memset"):
        assert name not in counts


def test_hip_backend_adds_prune_sort():
    report = run_plan("grappa_pme_12k", "hip-native", instant=True,
                      backend="hip")
    counts = count_by_name(report.trace)
    assert counts["prune_sort"] == 18
    kernels = device_kernels(report.trace, "rank0.gcd.q")
    assert len(kernels) == 200 * 11 + 2 + 18 * 2


def test_first_steps_run_in_submission_order(pme12k):
    names = [name for _, name, *_ in device_kernels(pme12k.trace, "rank0.gcd.q")]
    assert tuple(names[:12]) == SEARCH_STEP
    assert tuple(names[12:23]) == PME_STEP


# -- sync cadence -------------------------------------------------------------


def test_deferred_sync_wakes_through_monitor(pme12k):
    counts = count_by_name(pme12k.trace)
    assert counts["sync_notify"] == 2
    assert "host_sync_poll" not in counts


def test_instant_sync_polls_from_host():
    report = run_plan("grappa_pme_12k", instant=True)
    counts = count_by_name(report.trace)
    assert counts["host_sync_poll"] == 2
    assert "sync_notify" not in counts
    assert "flush_trigger" not in counts


def test_era_marks_define_measured_window():
    report = run_plan("grappa_pme_6k", eras=3)
    assert len(report.era_marks) == 3
    assert report.era_marks == sorted(report.era_marks)
    assert report.era_marks[0] < report.era_marks[-1]
    assert report.steps_measured == 200
    window = report.era_marks[-1] - report.era_marks[0]
    assert report.ms_per_step == window / 200 / 1e6


# -- throughput arithmetic ----------------------------------------------------


def test_throughput_identity():
    plan = RunPlan(system=get_system("grappa_pme_12k"),
                   profile=get_profile("acpp-23.10"),
                   settings=RunSettings())
    report = RunReport(plan=plan, steps_measured=200, rank_ms_per_step=[1.728],
                       makespan_ns=1, era_marks=[0, 1], launch_delays=[],
                       busy_ns={})
    assert report.ns_per_day == pytest.approx(100.0, rel=1e-12)


def test_throughput_identity_on_simulated_run(pme12k):
    dt = pipeline.DT_FS
    product = pme12k.ns_per_day * pme12k.ms_per_step
    assert abs(product - 86.4 * dt) <= 1e-12 * 86.4 * dt


# -- domain decomposition and halos -------------------------------------------


def test_halo_exchange_counts_3d():
    report = run_plan("grappa_rf_192k", ranks=16)
    counts = count_by_name(report.trace)
    # 16 short-range ranks split (4, 2, 2), one exchange per split axis
    for i in range(3):
        assert counts[f"halo_pack_x{i}"] == 200
        assert counts[f"halo_unpack_x{i}"] == 200
        assert counts[f"halo_pack_f{i}"] == 200
        assert counts[f"halo_unpack_f{i}"] == 200
    assert counts["nbnxm_nonlocal"] == 200
    assert counts["mpi_halo_x"] == 600
    assert counts["mpi_halo_f"] == 600
    assert counts["halo_transfer"] == 1200
    assert "mpi_send_x" not in counts


def test_halo_exchange_counts_1d():
    report = run_plan("grappa_rf_24k", ranks=2)
    counts = count_by_name(report.trace)
    assert counts["halo_pack_x0"] == 200
    assert counts["halo_unpack_f0"] == 200
    assert "halo_pack_x1" not in counts
    assert counts["nbnxm_nonlocal"] == 200
    nonlocal_args = [args for _, name, _, _, args in report.trace.records
                     if name == "nbnxm_nonlocal"]
    assert all(args["stream"] == "pp0.gcd.q_nl" for args in nonlocal_args)


def test_long_range_rank_wiring():
    report = run_plan("grappa_pme_192k", ranks=8)
    counts = count_by_name(report.trace)
    assert counts["mpi_send_x"] == 200
    assert counts["mpi_recv_x"] == 200
    assert counts["mpi_recv_f"] == 200
    assert counts["mpi_send_f"] == 200
    assert counts["x_transfer"] == 200
    assert counts["f_transfer"] == 200
    recv = [args for _, name, _, _, args in report.trace.records if name == "mpi_recv_x"]
    assert all(args["msgs"] == 7 for args in recv)
    mesh = count_by_name(report.trace)
    for name in ("pme_spread", "fft_3d_forward", "pme_solve",
                 "fft_3d_inverse", "pme_gather"):
        assert mesh[name] == 200, name
    # the grid clear rides behind each step's sync, so the very last one
    # is still sitting in the deferred buffer when the run ends
    assert mesh["grid_memset"] == 199


def test_parallel_efficiency_stays_below_unity():
    serial = run_plan("grappa_rf_192k", ranks=1, keep_trace=False)
    wide = run_plan("grappa_rf_192k", ranks=16, keep_trace=False)
    speedup = wide.ns_per_day / serial.ns_per_day
    assert 1.0 < speedup < 16.0


# -- submission-mode equivalence ----------------------------------------------


def test_instant_matches_uncached_deferred_on_device():
    instant = run_plan("grappa_pme_12k", instant=True)
    deferred = run_plan("grappa_pme_12k", mcn=0)
    seq_i = [name for _, name, *_ in device_kernels(instant.trace, "rank0.gcd.q")]
    seq_d = [name for _, name, *_ in device_kernels(deferred.trace, "rank0.gcd.q")]
    assert seq_i == seq_d


def test_multi_rank_replay_is_identical():
    a = run_plan("grappa_pme_96k", ranks=4)
    b = run_plan("grappa_pme_96k", ranks=4)
    assert a.era_marks == b.era_marks
    assert a.trace.records == b.trace.records


# -- step program output ------------------------------------------------------


# sha256 of the CSV report plus the trace JSON, two eras each, for rank
# layouts and step flavours the benchmark's digests do not reach
STEP_PROGRAM_DIGESTS = [
    (dict(system="grappa_rf_12k", profile="acpp-23.10"),
     "c0976b84e8b9f1ce9338cf491ebb87e1f76ecb4c1f0f33cb6cadfe177b0c1bbb"),
    (dict(system="grappa_pme_12k", profile="acpp-0.9.4", max_cached_nodes=5,
          event_mode="full"),
     "2ec8c894fddad510750544c980a142a3e4f8afd52229e18c49284ec4e06b37f6"),
    (dict(system="grappa_pme_12k", profile="hip-native", instant=True,
          backend="hip"),
     "c6650165a62240cde301522102339a546ed5f0e900f12330f7932c9714cf75d1"),
    (dict(system="grappa_rf_24k", profile="acpp-23.10", ranks=2),
     "718d9ef5f45e241954be0406744d898802ba5f0778c2582db54d789aa1fac328"),
    (dict(system="grappa_rf_24k", profile="acpp-0.9.4", ranks=3,
          max_cached_nodes=0),
     "c791705ed891b99cebf938a84e50c3d686677407cb912ba0e7c50c7e49abb4e6"),
    (dict(system="grappa_pme_96k", profile="acpp-23.10", ranks=2,
          instant=True, max_cached_nodes=0),
     "683cb74ba5e60d6bd595d440e706873053e4d6a11d3d9a1a87c27c9d6c8d7651"),
    (dict(system="grappa_pme_96k", profile="acpp-23.10", ranks=3),
     "feaad2807d08e08f2516b4100a8704bf45d36f4a1de38a06c9bb53e66d551d70"),
    # 4x4x4 and 16x16x16 grids: three halo wires each, on intra-node and
    # inter-node links
    (dict(system="grappa_rf_46m", profile="acpp-23.10", ranks=64,
          max_cached_nodes=5),
     "6905b8871641e0ed38747eda3c68cc849151ebba15d11957cd0a2a4648ad2773"),
    (dict(system="grappa_rf_46m", profile="acpp-23.10", ranks=4096,
          instant=True),
     "a8b0fe37f34b7bb2620dbec9c0c7fe4b2fbc0399bce0aefe1805d90f9bd9e566"),
]


@pytest.mark.parametrize(
    "fields,digest", STEP_PROGRAM_DIGESTS,
    ids=[f"{f['system']}-{f.get('ranks', 1)}r-{f['profile']}"
         f"-{'instant' if f.get('instant') else f.get('event_mode', 'coarse')}"
         for f, _ in STEP_PROGRAM_DIGESTS])
def test_step_program_output_is_pinned(fields, digest):
    rows, trace = run_scenario(Scenario(scenario_id="pin", eras=2, **fields),
                               keep_trace=True)
    text = render_csv(rows) + trace.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_warm_draw_cache_leaves_the_bytes_unchanged():
    """Runs with one seed share its drawn API latencies.  The CSV and trace
    JSON of a run on a cleared cache equal those of the same run after
    other scenarios with its seed drew first, in either order."""
    runs = [Scenario(scenario_id="warm", system="grappa_pme_96k", profile="acpp-23.10",
                     ranks=3, instant=True),
            Scenario(scenario_id="warm", system="grappa_pme_12k", profile="acpp-23.10",
                     event_mode="full")]
    others = [Scenario(scenario_id="other", system="grappa_pme_96k", profile="acpp-0.9.4",
                       ranks=3, eras=4),
              Scenario(scenario_id="other", system="grappa_pme_12k", profile="hip-native",
                       instant=True, event_mode="full", eras=4)]

    def output(scenario):
        rows, trace = run_scenario(scenario, keep_trace=True)
        return render_csv(rows) + trace.to_json()

    cold = []
    for scenario in runs:
        costs._shared_api_model.cache_clear()
        cold.append(output(scenario))
    costs._shared_api_model.cache_clear()
    for scenario in others:
        run_scenario(scenario)
    assert max(b + 1 for *_, b in costs.default_api_model(seed=0)._kept) * costs._BLOCK > 1000
    warm = [output(scenario) for scenario in reversed(runs)][::-1]
    assert warm == cold


FULL12K = Scenario(scenario_id="full12k", system="grappa_pme_12k", profile="acpp-23.10",
                   max_cached_nodes=100, event_mode="full")


@pytest.fixture(scope="module")
def full12k_trace():
    """The 27,021-record trace of a full-event deferred 12k run, the
    largest one the benchmark writes."""
    _, trace = run_scenario(FULL12K, keep_trace=True)
    return trace


def test_kept_trace_holds_few_bytes_per_record():
    """A kept trace holds its records as columns: what a run leaves
    allocated is under 48 B per record, where a tuple per record held
    about 130 B."""
    run_scenario(FULL12K, keep_trace=True)  # warms the draw cache and the memo tables
    gc.collect()
    tracemalloc.start()
    try:
        _, trace = run_scenario(FULL12K, keep_trace=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 27_021
    assert held < 48 * 27_021


def test_trace_json_peak_memory_stays_below_three_outputs(full12k_trace):
    """Writing the trace allocates less than three times its text at peak.

    Joining the records and then concatenating the whole text three more
    times peaked at 4.29x the output (20.2 MB for 4.71 MB); one template
    per record head and a single join peak at 2.38x.
    """
    gc.collect()
    tracemalloc.start()
    try:
        text = full12k_trace.to_json(indent=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_trace_payloads_are_built_once_per_node(full12k_trace):
    """Records of one node share its payloads: the 27,021 records hold
    fewer than 400 args objects, where one per record gave 17,020."""
    payloads = {id(args) for *_, args in full12k_trace.records if args is not None}
    assert len(payloads) <= 400


def test_repeated_charges_are_built_once_per_run(monkeypatch):
    """The same full-event 12k run yields its 27,021 charges from fewer
    than 1,000 ``Charge`` objects, where one per record gave 27,021: the
    runtime and the links build each repeated charge once.  A 46M-atom
    block at MCN 0, whose halo syncs flush after every node, yields its
    3,541 charges from fewer than 200, where one flush trigger per flush
    and one retirement per sync gave 625."""
    built = []
    init = Charge.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Charge, "__init__", counting_init)
    _, trace = run_scenario(Scenario(scenario_id="full12k", system="grappa_pme_12k",
                                     profile="acpp-23.10", max_cached_nodes=100,
                                     event_mode="full"),
                            keep_trace=True)
    assert len(trace.records) == 27_021
    assert len(built) < 1000
    built.clear()
    _, trace = run_scenario(Scenario(scenario_id="flushy46m", system="grappa_rf_46m",
                                     profile="acpp-23.10", ranks=64, max_cached_nodes=0,
                                     eras=2, overrides={"system.nstlist": 10}),
                            keep_trace=True)
    assert len(trace.records) == 3_541
    assert len(built) < 200


@pytest.mark.parametrize("fields", [
    dict(system="grappa_pme_12k", event_mode="full"),  # deferred, one rank
    dict(system="grappa_pme_96k", ranks=3),  # a long-range rank
    dict(system="grappa_rf_46m", ranks=64, eras=2,  # a halo in three dimensions
         overrides={"system.nstlist": 10}),
], ids=["12k-full", "96k-3r", "46m-64r"])
def test_each_kernel_name_runs_on_one_stream_with_one_duration(fields):
    """The runtime builds a whole ``Work`` for each (stream, name,
    duration) a rank submits, so each name's payloads are built once only
    while a rank runs every device kernel of one name on one stream with
    one duration."""
    _, trace = run_scenario(Scenario(scenario_id="shape", profile="acpp-23.10", **fields),
                            keep_trace=True)
    shapes = {}
    for actor, name, begin, end, args in trace.records:
        if args is not None and "stream" in args:
            rank = actor.split(".")[0]
            shapes.setdefault((rank, name), set()).add((args["stream"], end - begin))
    assert shapes
    assert {key: s for key, s in shapes.items() if len(s) > 1} == {}


@pytest.mark.parametrize("system_id, ranks, instant", [
    ("grappa_pme_12k", 1, False),  # flush and monitor workers, one queue slot
    ("grappa_pme_96k", 3, True),   # a long-range rank, its links and a halo link
])
def test_finished_run_frees_its_engine(monkeypatch, system_id, ranks, instant):
    """With the cyclic collector off, the engine a run built is gone once
    ``simulate`` returns: closing it ends the parked daemons whose frames
    hold their owners, and so the engine."""
    built = []

    def engine(*args, **kwargs):
        eng = Engine(*args, **kwargs)
        built.append(weakref.ref(eng))
        return eng

    monkeypatch.setattr(pipeline, "Engine", engine)
    gc.collect()
    gc.disable()
    try:
        run_plan(system_id, ranks=ranks, instant=instant, keep_trace=False)
        alive = [ref() is not None for ref in built]
    finally:
        gc.enable()
    assert alive == [False]


# -- reference throughput -----------------------------------------------------


def test_stmv_single_device_rates():
    sycl = run_plan("stmv", eras=3, keep_trace=False)
    hip = run_plan("stmv", "hip-native", instant=True, backend="hip",
                   eras=3, keep_trace=False)
    assert 16.9 < sycl.ns_per_day < 18.8
    assert 20.5 < hip.ns_per_day < 22.8
    assert hip.ns_per_day > sycl.ns_per_day


# -- critical path ------------------------------------------------------------


task_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10_000),
              st.integers(min_value=0, max_value=2),
              st.lists(st.integers(min_value=0, max_value=10_000),
                       max_size=3)),
    min_size=1, max_size=30)


@hyp_settings(deadline=None, max_examples=60)
@given(task_lists)
def test_makespan_equals_longest_path(tasks):
    """The simulated makespan must equal the DAG's longest path exactly.

    With every host-side cost zeroed, the only time left in the model is
    kernel duration plus the dispatch gap before it, serialized per
    stream and joined at dependencies.  That is computable in closed
    form, so the engine has no slack to hide scheduling mistakes behind.
    """
    deps_of = []
    for i, (_, _, raw) in enumerate(tasks):
        deps_of.append(sorted({d % i for d in raw}) if i else [])

    eng = Engine()
    settings = RunSettings(instant_submission=True, max_hw_queues=3)
    dev = Device(eng, "gcd0", ZERO_PROFILE, settings)
    rt = RankRuntime(eng, "rank0", ZERO_PROFILE, settings, zero_api())
    queues = [dev.new_stream(f"s{i}") for i in range(3)]

    def app():
        done = []
        for i, (dur, s, _) in enumerate(tasks):
            ev = yield from rt.submit(queues[s], f"t{i}", dur,
                                      deps=[done[j] for j in deps_of[i]])
            done.append(ev)
        yield from rt.sync(done)

    eng.spawn(rt.app_actor, app(), domain=rt.app_domain)
    trace = eng.run_until_idle()

    assert trace.makespan_ns == longest_path_ns(
        (dur, s, deps) for (dur, s, _), deps in zip(tasks, deps_of))


# -- the mirror against ranks wired for real ----------------------------------


def tail_free_api():
    """The default latency laws with no tail: every call costs its mean."""
    laws = costs.default_api_model().table
    return ApiLatencyModel({kind: TwoPointLatency(law.mean_ns, law.mean_ns)
                            for kind, law in laws.items()}, seed=0)


def link_classes(plan):
    """Per link role, the set of link classes the links of every real
    rank use: one halo role per split dimension, to the +1 neighbour,
    and the long-range role."""
    pp_ranks = plan.pp_ranks

    def link(a, b):
        return link_class(a % GCDS, b % GCDS, same_node=a // GCDS == b // GCDS)

    roles, stride = [], 1
    for size in balanced_dims(pp_ranks):
        if size > 1:
            roles.append({link(r, pipeline.shifted(r, stride, size, 1))
                          for r in range(pp_ranks)})
        stride *= size
    if plan.pme_ranks:
        roles.append({link(r, plan.ranks - 1) for r in range(pp_ranks)})
    return roles


MIRROR_LAYOUTS = ([("grappa_rf_24k", n) for n in (2, 4, 8)]
                  + [(s, n) for s in ("grappa_pme_96k", "stmv") for n in (2, 3, 5)])


@pytest.mark.parametrize("system_id, ranks", MIRROR_LAYOUTS,
                         ids=[f"{s}-{n}r" for s, n in MIRROR_LAYOUTS])
def test_mirror_equals_ranks_wired_for_real(monkeypatch, system_id, ranks):
    """With every API call at its mean, on a layout where each real link
    has rank 0's link class, every rank of every periodic block that
    tiles the grid, up to the whole grid, runs the mirrored run's
    ms/step exactly, in instant mode and deferred at MCN 0 and 100.
    Eras of 20 steps keep the search, prune and plain steps of each era
    in a fifth of the time of the bundled 100.

    Where the mirror stops holding (tailed latencies, mixed link
    classes, no long-range comm overlap) is recorded in CHANGES.md, not
    asserted here.
    """
    api = tail_free_api()
    monkeypatch.setattr(pipeline, "default_api_model", lambda seed=0: api)
    system = dataclasses.replace(get_system(system_id), nstlist=20)
    for instant, mcn in ((True, 100), (False, 0), (False, 100)):
        plan = RunPlan(
            system=system, profile=get_profile("acpp-23.10"),
            settings=RunSettings(max_cached_nodes=mcn, instant_submission=instant,
                                 visible_devices=ranks),
            ranks=ranks, n_eras=2)
        assert all(len(used) == 1 for used in link_classes(plan)), link_classes(plan)
        mirror = simulate(plan).ms_per_step
        # every block that tiles the grid; the last is the whole grid
        for block in itertools.product(*[[b for b in range(1, d + 1) if d % b == 0]
                                         for d in balanced_dims(plan.pp_ranks)]):
            if block == (1, 1, 1):
                continue
            real = simulate(plan, block=block).rank_ms_per_step
            assert real == [mirror] * math.prod(block), (instant, mcn, block)


def test_whole_grid_block_is_pinned():
    """Each rank's ms/step of hip-native STMV on 8 ranks, every rank wired
    and tails drawn at seed 0, as a separate wiring of every rank gave
    them.  Its ring mixes link classes, and hip-native stages the
    long-range transfers serially."""
    plan = RunPlan(system=dataclasses.replace(get_system("stmv"), nstlist=20),
                   profile=get_profile("hip-native"), backend="hip", ranks=8, n_eras=2,
                   settings=RunSettings(instant_submission=True, visible_devices=8))
    ms = simulate(plan, block=(7, 1, 1)).rank_ms_per_step
    assert hashlib.sha256(repr(ms).encode()).hexdigest() == (
        "c9e2edd9a452847f1a202acfe00a2eebcf712be367e3f8db36df153acc9a8eaf")


# -- metamorphic properties over random plans ---------------------------------


# every (profile, instant) pair a bundled profile can run
SUBMISSION_MODES = [(name, instant) for name, prof in sorted(load_profiles().items())
                    for instant in (False, True)
                    if (prof.supports_instant() if instant else prof.supports_deferred())]


# a random plan: bundled system, submission mode, backend, ranks, MCN,
# seed and a neighbour-list period, with 2 eras
PLANS = dict(system=st.sampled_from(sorted(load_systems())),
             mode=st.sampled_from(SUBMISSION_MODES),
             backend=st.sampled_from(["sycl", "hip"]), ranks=st.integers(1, 64),
             mcn=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
             nstlist=st.integers(10, 40))


def run_random_plan(system, mode, backend, ranks, mcn, seed, nstlist,
                    event_mode="coarse", keep_trace=False, **overrides) -> RunReport:
    """The report of one plan that ``PLANS`` draws, with the given
    ``system.``/``settings.`` overrides on top."""
    profile, instant = mode
    scenario = Scenario("p", system, profile, ranks=ranks, backend=backend,
                        max_cached_nodes=mcn, instant=instant, event_mode=event_mode,
                        seed=seed, eras=2,
                        overrides={"system.nstlist": nstlist, **overrides})
    return simulate(scenario.build_plan(), keep_trace=keep_trace)


@hyp_settings(deadline=None, max_examples=40)
@given(**PLANS)
def test_full_events_never_shorten_a_step(**plan):
    """FULL event recording adds API calls on the launching threads and a
    packet after every device task, and draws the same launch latencies
    as COARSE, so it never gives a shorter step, all else equal.  Both
    runs also give a finite throughput above 0 and no negative launch
    delay."""
    full, coarse = (run_random_plan(**plan, event_mode=mode) for mode in ("full", "coarse"))
    assert full.ms_per_step >= coarse.ms_per_step
    for report in (full, coarse):
        assert 0 < report.ns_per_day < math.inf
        assert all(delay >= 0 for delays in report.launch_delays for delay in delays)


@hyp_settings(deadline=None, max_examples=30)
@given(**PLANS)
def test_hsa_affinity_override_never_lengthens_a_step(**plan):
    """The override moves the HSA worker off the application core, so
    the application thread gets the whole core and no step can take
    longer than with the worker beside it, all else equal."""
    apart = run_random_plan(**plan, **{"settings.hsa_affinity_override": True})
    beside = run_random_plan(**plan)
    assert apart.ms_per_step <= beside.ms_per_step


@hyp_settings(deadline=None, max_examples=40)
@given(**PLANS, atoms=st.integers(1, 768_000), more=st.integers(1, 768_000))
def test_more_atoms_never_shorten_a_step(atoms, more, **plan):
    """Every kernel and transfer cost is non-decreasing in the atom
    count, so a system with more atoms never gives a shorter step, all
    else equal."""
    small, large = (run_random_plan(**plan, **{"system.atoms": n})
                    for n in (atoms, atoms + more))
    assert large.ms_per_step >= small.ms_per_step


@hyp_settings(deadline=None, max_examples=30)
@given(**{key: PLANS[key] for key in PLANS if key not in ("mode", "mcn")},
       event_mode=st.sampled_from(["coarse", "full"]))
def test_instant_and_uncached_deferred_runs_order_kernels_alike_on_random_plans(**plan):
    """Under ``acpp-23.10``, instant submission and deferred submission
    that flushes on every submit give each device queue the same kernels
    in the same order, in either event mode.  The fixed plans of
    ``test_acceptance`` reach 4,096 ranks; these reach 64."""
    instant, deferred = (
        queue_kernels(run_random_plan(**plan, mode=("acpp-23.10", eager), mcn=0,
                                      keep_trace=True).trace)
        for eager in (True, False))
    assert instant and instant == deferred
