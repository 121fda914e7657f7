import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpusim import costs
from mdgpusim.costs import (
    NBNXM_ANCHORS,
    ApiKind,
    ApiLatencyModel,
    ApiSampler,
    KernelCost,
    KernelKind,
    TwoPointLatency,
    default_api_model,
    default_cost_table,
    fit_affine,
    round_half_up,
)

# frozen: the exact two-point interpolant through the nonbonded anchors
EXPECT_SLOPE = 19980800 / 6142500  # = 3.252876... ns/atom
EXPECT_FLOOR = 19200.0 - EXPECT_SLOPE * 1500  # = 14320.68... ns


def test_two_point_fit_matches_frozen_interpolant():
    fit = fit_affine(NBNXM_ANCHORS)
    assert fit.slope_ns_per_atom == pytest.approx(EXPECT_SLOPE, rel=1e-12)
    assert fit.floor_ns == pytest.approx(EXPECT_FLOOR, rel=1e-12)
    # headline figures: about 3.256e-3 us/atom slope, about 14.3 us floor
    assert fit.slope_ns_per_atom == pytest.approx(3.256e-3 * 1000, rel=1e-3)
    assert fit.floor_ns == pytest.approx(14.3e3, rel=2e-3)


def test_fit_reproduces_anchors_exactly():
    fit = fit_affine(NBNXM_ANCHORS)
    for atoms, t in NBNXM_ANCHORS:
        assert fit.at(atoms) == pytest.approx(t, abs=1e-6)


def test_native_backend_recovers_anchor_durations():
    table = default_cost_table()
    assert table.duration_ns(KernelKind.NBNXM_LOCAL, 1500, backend="hip") == 19200
    assert table.duration_ns(KernelKind.NBNXM_LOCAL, 6144000, backend="hip") == 20000000


def test_backend_ratio_within_observed_band():
    table = default_cost_table()
    for atoms in (1500, 12000, 384000, 6144000):
        sycl = table.duration_ns(KernelKind.NBNXM_LOCAL, atoms, backend="sycl")
        hip = table.duration_ns(KernelKind.NBNXM_LOCAL, atoms, backend="hip")
        assert 1.10 <= sycl / hip <= 1.25


def test_per_atom_cost_plateaus_by_384k():
    table = default_cost_table()
    per_atom_384k = table.duration_ns(KernelKind.NBNXM_LOCAL, 384000, "hip") / 384000
    asymptote = EXPECT_SLOPE
    assert (per_atom_384k - asymptote) / asymptote < 0.05
    # and small systems sit far off the plateau
    per_atom_1500 = table.duration_ns(KernelKind.NBNXM_LOCAL, 1500, "hip") / 1500
    assert per_atom_1500 / asymptote > 2.0


def test_unknown_backend_raises():
    table = default_cost_table()
    with pytest.raises(KeyError):
        table.duration_ns(KernelKind.NBNXM_LOCAL, 1000, backend="cuda")


def test_round_half_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(0.5) == 1
    assert round_half_up(3.0) == 3


@settings(max_examples=100, deadline=None)
@given(floor=st.floats(min_value=0, max_value=1e6),
       slope=st.floats(min_value=1e-3, max_value=100),
       a1=st.integers(min_value=1, max_value=10**6),
       gap=st.integers(min_value=1, max_value=10**6))
def test_two_point_fit_inverts_evaluation(floor, slope, a1, gap):
    truth = KernelCost(floor, slope)
    pts = [(a1, truth.at(a1)), (a1 + gap, truth.at(a1 + gap))]
    fit = fit_affine(pts)
    assert math.isclose(fit.slope_ns_per_atom, slope, rel_tol=1e-6, abs_tol=1e-9)
    assert math.isclose(fit.floor_ns, floor, rel_tol=1e-6, abs_tol=1e-3)


@settings(max_examples=50, deadline=None)
@given(atoms=st.integers(min_value=0, max_value=10**7),
       more=st.integers(min_value=1, max_value=10**6))
def test_duration_monotone_in_atoms(atoms, more):
    table = default_cost_table()
    for kind in KernelKind:
        assert (table.duration_ns(kind, atoms + more) >= table.duration_ns(kind, atoms))


def test_two_point_latency_mean_is_exact():
    law = TwoPointLatency(mean_ns=2000.0, tail_ns=30000.0)
    mean = costs.TAIL_PROB * law.tail_ns + (1 - costs.TAIL_PROB) * law.common_ns
    assert mean == pytest.approx(2000.0, rel=1e-12)
    assert law.common_ns < law.mean_ns


def test_latency_tail_must_not_undercut_mean():
    with pytest.raises(ValueError):
        TwoPointLatency(mean_ns=5000.0, tail_ns=1000.0)


def test_sampler_is_pure_in_its_arguments():
    model = default_api_model(seed=42)
    a = [model.sample("rank0.app", ApiKind.KERNEL_LAUNCH, i) for i in range(200)]
    b = [model.sample("rank0.app", ApiKind.KERNEL_LAUNCH, i) for i in range(200)]
    assert a == b


def test_sampler_tail_draws_keep_their_pinned_indices():
    """The counter hash is part of every simulated number: the calls that
    hit the tail must not move, whichever actor or kind is drawn first."""
    model = default_api_model(seed=7)
    pinned = {
        ("rank0.app", ApiKind.KERNEL_LAUNCH): [13, 18, 127, 281, 282, 363],
        ("rank0.app", ApiKind.STREAM_WAIT_EVENT): [27, 100, 117, 167, 343, 348, 353],
        ("pp3.dag-flush", ApiKind.KERNEL_LAUNCH):
            [23, 125, 138, 156, 203, 250, 286, 346, 392, 398, 399],
        ("pp3.dag-flush", ApiKind.STREAM_WAIT_EVENT): [10, 34, 65, 106, 157, 250, 274, 374],
    }
    for (actor, kind), tails in pinned.items():
        tail = round_half_up(model.table[kind].tail_ns)
        assert [i for i in range(400) if model.sample(actor, kind, i) == tail] == tails


def test_sampler_draws_do_not_shift_when_other_kinds_interleave():
    """The structural guarantee behind comparing event-recording modes:
    extra EVENT_RECORD draws must leave KERNEL_LAUNCH latencies alone."""
    model = default_api_model(seed=7)

    bare = ApiSampler(model)
    plain = [bare.draw("app", ApiKind.KERNEL_LAUNCH) for _ in range(100)]

    noisy = ApiSampler(model)
    mixed = []
    for _ in range(100):
        noisy.draw("app", ApiKind.EVENT_RECORD)
        noisy.draw("app", ApiKind.EVENT_CREATE_DESTROY)
        mixed.append(noisy.draw("app", ApiKind.KERNEL_LAUNCH))
    assert plain == mixed


def test_sampler_tail_frequency_is_near_nominal():
    model = default_api_model(seed=3)
    law = model.table[ApiKind.STREAM_WAIT_EVENT]
    n = 20000
    draws = [model.sample("app", ApiKind.STREAM_WAIT_EVENT, i) for i in range(n)]
    tails = sum(1 for d in draws if d == round_half_up(law.tail_ns))
    assert abs(tails / n - costs.TAIL_PROB) < 0.005
    mean = sum(draws) / n
    assert mean == pytest.approx(law.mean_ns, rel=0.05)


def test_different_actors_get_different_streams():
    model = default_api_model(seed=1)
    a = [model.sample("rank0.app", ApiKind.KERNEL_LAUNCH, i) for i in range(500)]
    b = [model.sample("rank1.app", ApiKind.KERNEL_LAUNCH, i) for i in range(500)]
    assert a != b


def test_zero_tail_prob_is_deterministic_mean():
    """A law whose tail equals its mean has no tail: every draw, tail or
    common, is the mean, for each mean a test model uses."""
    for mean in (0.0, 1.0, 1000.0, 2000.0, 3000.0, 4000.0, 5500.0, 10000.0):
        law = TwoPointLatency(mean, mean)
        assert law.common_ns == mean
        model = ApiLatencyModel({k: law for k in ApiKind})
        assert all(model.sample("x", k, i) == mean for k in ApiKind for i in range(300))


def test_default_api_means():
    model = default_api_model()
    assert model.table[ApiKind.EVENT_RECORD].mean_ns == 2000.0
    assert model.table[ApiKind.STREAM_WAIT_EVENT].mean_ns == 4000.0
    assert model.table[ApiKind.EVENT_CREATE_DESTROY].mean_ns == 5500.0


def test_sampler_draws_equal_the_pure_sample():
    """Interleaved draws over several actors and every kind, one of them
    with no tail, return ``sample`` at each stream's own index."""
    table = dict(default_api_model().table)
    table[ApiKind.MEMCPY_ASYNC] = TwoPointLatency(3000.0, 3000.0)
    model = ApiLatencyModel(table, seed=2024)
    streams = [(actor, kind) for actor in ("rank0.app", "pp3.dag-flush", "pme0.app")
               for kind in ApiKind]
    calls = streams * 5000
    random.Random(8).shuffle(calls)
    sampler = ApiSampler(model)
    index = dict.fromkeys(streams, 0)
    for actor, kind in calls:
        assert sampler.draw(actor, kind) == model.sample(actor, kind, index[actor, kind])
        index[actor, kind] += 1


B = costs._BLOCK


def kept_blocks(model, actor, kind):
    """The indices of the blocks of one stream that ``model`` keeps."""
    return sorted(b for a, k, b in model._kept if (a, k) == (actor, kind))


def test_blocks_meet_exactly_at_their_edges():
    """A stream read across block edges returns ``sample`` at indices
    ``B - 1``, ``B`` and ``2 B``, and each block holds ``B`` draws."""
    model = ApiLatencyModel(default_api_model().table, seed=10)
    kind = ApiKind.HOST_SYNC_POLL
    sampler = ApiSampler(model)
    draws = [sampler.draw("a", kind) for _ in range(2 * B + 1)]
    for i in (B - 1, B, 2 * B):
        assert draws[i] == model.sample("a", kind, i)
    assert draws == [model.sample("a", kind, i) for i in range(2 * B + 1)]
    assert [len(model._kept["a", kind, b]) for b in range(3)] == [B] * 3
    assert model._kept["a", kind, 1][0] == model.sample("a", kind, B)
    assert len(set(draws)) == 2  # both values of the law come up


def test_draws_are_shared_across_samplers():
    """A second sampler on the same model reads the blocks the first one
    kept, by reference, and hashes the rest; either way each draw is
    ``sample`` at its own index, also around indices B - 1, B and 2 B."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=11)
    first = ApiSampler(model)
    for _ in range(600):
        first.draw("pp0.app", ApiKind.KERNEL_LAUNCH)
    assert kept_blocks(model, "pp0.app", ApiKind.KERNEL_LAUNCH) == list(range(-(-600 // B)))
    before = dict(model._kept)
    kinds = (ApiKind.KERNEL_LAUNCH, ApiKind.EVENT_RECORD, ApiKind.STREAM_WAIT_EVENT)
    calls = [kind for kind in kinds for _ in range(1100)]
    random.Random(4).shuffle(calls)
    second = ApiSampler(model)
    index = dict.fromkeys(kinds, 0)
    for kind in calls:
        assert second.draw("pp0.app", kind) == model.sample("pp0.app", kind, index[kind])
        index[kind] += 1
    assert all(n == 1100 for n in index.values())
    assert [kept_blocks(model, "pp0.app", kind) for kind in kinds] == \
        [list(range(-(-1100 // B)))] * 3
    assert all(model._kept[where] is block for where, block in before.items())
    assert model._room == costs._KEPT_DRAWS - B * len(model._kept)


def test_a_full_model_keeps_no_more_draws():
    """Once a model has kept its share of latencies, later blocks are
    hashed without being kept, and still equal ``sample``."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=12)
    model._room = 3 * B - 1  # room for two blocks
    kinds = (ApiKind.KERNEL_LAUNCH, ApiKind.EVENT_RECORD)
    for _ in range(2):  # the second sampler reads what the first kept
        sampler = ApiSampler(model)
        for i in range(80):
            for actor in ("pp0.app", "pme0.app"):
                for kind in kinds:
                    assert sampler.draw(actor, kind) == model.sample(actor, kind, i)
    assert set(model._kept) == {("pp0.app", kind, 0) for kind in kinds}
    assert model._room == B - 1


def test_a_model_with_less_room_than_a_block_keeps_nothing():
    """With room for less than one block, a model keeps no draw, and
    every draw, hashed anew by each sampler, still equals ``sample``."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=16)
    model._room = B - 1
    streams = [(actor, kind) for actor in ("a", "b") for kind in ApiKind]
    for _ in range(2):
        sampler = ApiSampler(model)
        for actor, kind in streams:
            assert [sampler.draw(actor, kind) for _ in range(B + 3)] == [
                model.sample(actor, kind, i) for i in range(B + 3)]
    assert model._kept == {} and model._room == B - 1


def test_two_live_samplers_share_one_stream_in_turns():
    """Two samplers drawing one (actor, kind) in uneven turns each read
    the blocks the other kept, and each draw is ``sample`` at its own
    index."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=13)
    samplers = [ApiSampler(model), ApiSampler(model)]
    index = [0, 0]
    rng = random.Random(6)
    for _ in range(3000):
        who = rng.random() < 0.7
        got = samplers[who].draw("pp0.app", ApiKind.KERNEL_LAUNCH)
        assert got == model.sample("pp0.app", ApiKind.KERNEL_LAUNCH, index[who])
        index[who] += 1
    assert kept_blocks(model, "pp0.app", ApiKind.KERNEL_LAUNCH) == \
        list(range(-(-max(index) // B)))
    assert model._room == costs._KEPT_DRAWS - B * len(model._kept)


def test_a_stream_goes_on_once_the_room_runs_out_within_it():
    """With room for one block and a bit, a stream keeps its first block
    and goes on hashing the later ones."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=14)
    model._room = B + 50
    kind = ApiKind.STREAM_WAIT_EVENT
    first, second = ApiSampler(model), ApiSampler(model)
    assert [first.draw("a", kind) for _ in range(3 * B)] == [
        model.sample("a", kind, i) for i in range(3 * B)]
    assert kept_blocks(model, "a", kind) == [0] and model._room == 50
    # the second reads the kept block, then hashes the rest
    assert [second.draw("a", kind) for _ in range(3 * B + 10)] == [
        model.sample("a", kind, i) for i in range(3 * B + 10)]
    assert kept_blocks(model, "a", kind) == [0] and model._room == 50


def test_draws_stay_exact_after_a_stream_moves_from_kept_to_hashed():
    """The model has room for one block: ``early`` hashes and keeps block
    0, ``late`` reads it kept, and past index ``B`` both hash block 1
    anew, each time it is read."""
    model = ApiLatencyModel(dict(default_api_model().table), seed=15)
    model._room = B
    kind = ApiKind.EVENT_RECORD

    def expect(n, start=0):
        return [model.sample("a", kind, i) for i in range(start, start + n)]

    early = ApiSampler(model)
    assert [early.draw("a", kind) for _ in range(B - 5)] == expect(B - 5)
    late = ApiSampler(model)
    assert [late.draw("a", kind) for _ in range(B + 10)] == expect(B + 10)
    assert [early.draw("a", kind) for _ in range(10)] == expect(10, B - 5)
    assert [early.draw("a", kind) for _ in range(B)] == expect(B, B + 5)
    assert [late.draw("a", kind) for _ in range(20)] == expect(20, B + 10)
    assert list(model._kept) == [("a", kind, 0)] and model._room == 0


def test_default_model_is_shared_per_seed_value():
    assert default_api_model(0) is default_api_model(seed=0) is default_api_model()
    assert default_api_model(1) is not default_api_model(2)
    assert default_api_model(1).seed == 1 and default_api_model(2).seed == 2


def test_default_model_cache_stays_bounded():
    held = costs._shared_api_model.cache_info().maxsize
    first = default_api_model(seed=10_000)
    for seed in range(10_001, 10_001 + held + 3):
        default_api_model(seed=seed)
    assert costs._shared_api_model.cache_info().currsize == held
    assert default_api_model(seed=10_000) is not first


def test_model_table_is_read_only():
    """Models are shared across runs, so an edit after draws were kept
    would silently change later runs; a copy stays editable."""
    model = default_api_model()
    with pytest.raises(TypeError):
        model.table[ApiKind.KERNEL_LAUNCH] = TwoPointLatency(1.0, 1.0)
    table = dict(model.table)
    table[ApiKind.KERNEL_LAUNCH] = TwoPointLatency(1.0, 1.0)
    assert model.table[ApiKind.KERNEL_LAUNCH].mean_ns == 2000.0


def test_tail_cuts_are_the_edge_of_the_float_test():
    """``h < cut`` must agree with ``sample``'s ``h / 2.0**64 < p`` at the
    edge, where rounding ``h`` to a float decides: at the bundled
    ``TAIL_PROB``, whose cut the blocks compare against, and at others."""
    assert costs._TAIL_CUT == costs._tail_cut(costs.TAIL_PROB)
    for prob in (0.0, costs.TAIL_PROB, 0.3, 0.5, 1 / 3, 1.0 - 2.0**-53):
        cut = costs._tail_cut(prob)
        for h in range(max(0, cut - 3), min(2**64, cut + 3)):
            assert (h < cut) == (h / 2.0**64 < prob)
