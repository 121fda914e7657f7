import hashlib
import heapq
import itertools
import json
import math
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdgpusim.engine import (
    _FIRE,
    JSON_CHUNK,
    PARK,
    CausalityError,
    Charge,
    DeadlockError,
    Engine,
    Sleep,
    Trace,
    WaitFor,
    _json_scalar,
)


def _one_charge(cost, delay=0):
    if delay:
        yield Sleep(delay)
    yield Charge(cost, "w")


def _spans(tr):
    return {actor: (begin, end) for actor, _, begin, end, _ in tr.records}


def _name_spans(tr):
    return {name: (begin, end) for _, name, begin, end, _ in tr.records}


def run_one_charge(cores, backgrounds, cost):
    eng = Engine()
    dom = eng.domain("rank0", cores)
    for i, duty in enumerate(backgrounds):
        eng.add_background(dom, f"bg{i}", duty)

    def body():
        yield Charge(cost, "work")

    eng.spawn("app", body(), domain=dom)
    return eng.run_until_idle()


def test_unshared_charge_takes_exactly_its_cost():
    tr = run_one_charge(cores=1, backgrounds=[], cost=100)
    assert tr.makespan_ns == 100
    _, _, begin, end, _ = tr.records[0]
    assert (begin, end) == (0, 100)


def test_charge_next_to_duty_080_background_stretches_to_180ns():
    tr = run_one_charge(cores=1, backgrounds=[800], cost=100)
    assert tr.makespan_ns == 180


def test_two_charges_on_one_core_run_one_after_the_other():
    eng = Engine()
    dom = eng.domain("rank0", 1)

    def body():
        yield Charge(100, "work")

    eng.spawn("a", body(), domain=dom)
    eng.spawn("b", body(), domain=dom)
    tr = eng.run_until_idle()
    assert [(actor, begin, end) for actor, _, begin, end, _ in tr.records] == [
        ("a", 0, 100), ("b", 100, 200)]
    assert tr.makespan_ns == 200


def test_background_under_one_core_total_means_no_slowdown():
    # 0.4 duty background on 2 cores: load stays at the floor of 1
    tr = run_one_charge(cores=2, backgrounds=[400], cost=100)
    assert tr.makespan_ns == 100


def test_trace_record_fields():
    eng = Engine()

    def body():
        yield Charge(10, "submit", {"node": 3})

    eng.spawn("app", body())
    tr = eng.run_until_idle()
    (rec,) = tr.records
    assert rec == ("app", "submit", 0, 10, {"node": 3})
    (obj,) = json.loads(tr.to_json())["records"]
    assert obj == {"actor": "app", "name": "submit", "begin_ns": 0,
                   "end_ns": 10, "args": {"node": 3}}


def test_dedicated_actor_ignores_domain_sharing():
    # two threads queue on one core; a process with no domain keeps its cost
    eng = Engine()
    dom = eng.domain("rank0", 1)

    def busy():
        yield Charge(1000, "cpu")

    def device():
        yield Charge(1000, "kernel")

    eng.spawn("cpu0", busy(), domain=dom)
    eng.spawn("cpu1", busy(), domain=dom)
    eng.spawn("gpu", device())  # no domain: dedicated timeline
    tr = eng.run_until_idle()
    assert _spans(tr) == {"cpu0": (0, 1000), "cpu1": (1000, 2000), "gpu": (0, 1000)}


def test_wait_on_already_fired_event_resumes_immediately():
    eng = Engine()
    ev = eng.event()
    eng.post(ev, 10)
    got = []

    def late():
        yield Sleep(100)
        yield WaitFor(ev)
        got.append(eng.now)

    eng.spawn("late", late())
    eng.run_until_idle()
    assert got == [100]


def test_negative_delay_raises_causality_error():
    eng = Engine()
    ev = eng.event("bad")
    with pytest.raises(CausalityError):
        eng.post(ev, -1)


def test_double_fire_raises():
    eng = Engine()
    ev = eng.event("once")
    eng.post(ev, 0)
    eng.post(ev, 5)
    with pytest.raises(ValueError):
        eng.run_until_idle()


def test_deadlock_error_names_blocked_actors():
    eng = Engine()
    ev_a = eng.event()
    ev_b = eng.event()

    def a():
        yield WaitFor(ev_a)

    def b():
        yield WaitFor(ev_b)

    eng.spawn("A", a())
    eng.spawn("B", b())
    with pytest.raises(DeadlockError) as exc:
        eng.run_until_idle()
    assert exc.value.actors == ("A", "B")
    assert "A" in str(exc.value) and "B" in str(exc.value)


def test_deadlock_names_only_processes_parked_on_unposted_events():
    eng = Engine()
    posted = eng.event("posted")
    never = eng.event("never")

    def finisher():
        yield Charge(10, "work")
        eng.post(posted, 5)

    def woken():
        yield WaitFor(posted)
        yield Sleep(20)

    def stuck():
        yield WaitFor(never)

    eng.spawn("finisher", finisher())
    eng.spawn("woken", woken())
    eng.spawn("stuck", stuck())
    eng.spawn("poller", stuck(), daemon=True)
    with pytest.raises(DeadlockError) as exc:
        eng.run_until_idle()
    assert exc.value.actors == ("stuck",)
    assert eng.now == 35


def test_daemon_processes_do_not_count_as_deadlocked():
    eng = Engine()
    ev = eng.event()

    def poller():
        yield WaitFor(ev)

    def app():
        yield Charge(10, "work")

    eng.spawn("poller", poller(), daemon=True)
    eng.spawn("app", app())
    tr = eng.run_until_idle()
    assert tr.makespan_ns == 10


# (cores, background milli-duty) of a process's own domain; None runs it
# with no domain.  Stretches: 7/4, 11/8, 1 and 1 (background under a core)
_SHAPES = (None, (1, 750), (4, 4500), (1, 0), (4, 750))


def _own_domain(eng, name, shape):
    if shape is None:
        return None
    cores, duty = shape
    dom = eng.domain(name, cores)
    if duty:
        eng.add_background(dom, "poll", duty)
    return dom


# charges built once and yielded by every process that draws them, in
# every run that draws them: zero, short and long, with and without a payload
_POOLED = tuple(Charge(cost, f"pooled{i}", {"pool": i} if i % 2 else None)
                for i, cost in enumerate((0, 3, 40, 900, 4000)))


def _random_workload(seed, n_procs=20, n_charges=50, keep_trace=True, pooled=False):
    """A tangle of charges, sleeps and cross-process event waits, each
    process on a domain of its own or on none.  With ``pooled`` a fifth
    of the steps yield a charge of ``_POOLED`` instead of a new one."""
    rng = random.Random(seed)
    eng = Engine(keep_trace=keep_trace)
    events = [eng.event(f"e{i}") for i in range(n_procs)]

    def body(idx):
        for j in range(n_charges):
            pick = rng.random()
            if pooled and pick < 0.2:
                yield rng.choice(_POOLED)
            elif pick < 0.5:
                yield Charge(rng.randrange(1, 5000), f"c{idx}.{j}")
            elif pick < 0.8:
                yield Sleep(rng.randrange(0, 2000))
            elif not events[(idx + 1) % n_procs].fired and idx > 0:
                yield Charge(rng.randrange(1, 100), f"pre{idx}.{j}")
        if not events[idx].fired:
            eng.post(events[idx], 0)

    for i in range(n_procs):
        dom = _own_domain(eng, f"cpu{i}", _SHAPES[i % len(_SHAPES)])
        eng.spawn(f"p{i}", body(i), domain=dom)
    return eng.run_until_idle()


def test_replay_is_bit_identical():
    a = _random_workload(1234)
    b = _random_workload(1234)
    assert a.to_json() == b.to_json()


def test_replay_large_workload_is_bit_identical():
    # a few hundred thousand heap operations; still must replay exactly
    a = _random_workload(99, n_procs=40, n_charges=400)
    b = _random_workload(99, n_procs=40, n_charges=400)
    assert a.makespan_ns == b.makespan_ns
    assert a.to_json() == b.to_json()


def test_utilization_and_busy_accounting():
    eng = Engine()

    def body():
        yield Charge(30, "a")
        yield Sleep(50)
        yield Charge(20, "b")

    eng.spawn("app", body())
    tr = eng.run_until_idle()
    assert tr.makespan_ns == 100
    assert tr.busy_ns["app"] == 50


def test_trace_json_round_trip():
    tr = _random_workload(7, n_procs=4, n_charges=5)
    blob = json.loads(tr.to_json())
    assert blob["makespan_ns"] == tr.makespan_ns
    assert all(set(r) == {"actor", "name", "begin_ns", "end_ns", "args"}
               for r in blob["records"])


# strings that exercise every escape: quotes, backslashes, control
# characters and non-ASCII text, alongside whatever else Hypothesis draws
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€\u2028😀'),
                               st.characters()), max_size=12)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _JSON_TEXT,
                          st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]))
# values that compare equal but print differently, so a template keyed
# on payload content rather than identity would write the wrong one
_LOOKALIKES = (1, True, 1.0, 0.0, -0.0, math.nan, "1")
# actors, names, keys and payloads drawn partly from small pools, so
# (actor, name, payload) keys repeat and templates are reused; a pooled
# payload is one dict object shared by every record that draws it, and
# "%" guards against a template filled in by %-formatting
_POOL_TEXT = st.sampled_from(["app", "q0", "%", "%d", "100%s"])
_HEAD_TEXT = _POOL_TEXT | _JSON_TEXT
_ARGS = st.dictionaries(_HEAD_TEXT, st.sampled_from(_LOOKALIKES) | _JSON_SCALARS, max_size=4)
_RECORDS = st.lists(st.tuples(_HEAD_TEXT, _HEAD_TEXT, st.integers(min_value=0),
                              st.integers(min_value=0),
                              st.none() | _ARGS | st.sampled_from([{"node": "%d"}, {"n": 1}])),
                    max_size=8)
# one record holding every kind of scalar, and the two empty payloads
_EVERY_SCALAR = [
    ("a\"\\\x00\x1fé😀", "k\n", 0, 5,
     {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "t": True, "f": False,
      "n": None, "i": -3, "third": 1 / 3, "tiny": 5e-324, "s": "\u2028"}),
    ("app", "idle", 5, 7, None),
    ("app", "empty", 7, 7, {}),
]
# one actor and name whose payloads compare equal but print differently,
# with "%" in the actor, name, key and value, and one payload behind two
# records of different actors and names, which a template keyed on the
# payload's id alone would write with the first one's
_SHARED = {"%d": "%s%%", "n": 1}
_ONE_HEAD = ([("q%d%", "%", 0, 1, {"%d": value}) for value in _LOOKALIKES]
             + [("q%d%", "%", 1, 2, _SHARED), ("app", "%d", 2, 3, _SHARED)])


@settings(max_examples=100, deadline=None)
@given(records=_RECORDS, makespan=st.integers(min_value=0),
       indent=st.sampled_from([None, 0, 2, 4]))
@example(records=[], makespan=0, indent=None)
@example(records=[], makespan=0, indent=2)
@example(records=_EVERY_SCALAR, makespan=7, indent=None)
@example(records=_EVERY_SCALAR, makespan=7, indent=4)
@example(records=_ONE_HEAD, makespan=3, indent=None)
@example(records=_ONE_HEAD, makespan=3, indent=0)
@example(records=_ONE_HEAD, makespan=3, indent=2)
@example(records=_ONE_HEAD, makespan=3, indent=4)
def test_trace_json_matches_json_dumps_of_the_dict_form(records, makespan, indent):
    dict_form = {"makespan_ns": makespan, "records": [
        {"actor": actor, "name": name, "begin_ns": begin, "end_ns": end,
         "args": args if args is not None else {}}
        for actor, name, begin, end, args in records]}
    got = Trace(records=records, makespan_ns=makespan).to_json(indent)
    assert got == json.dumps(dict_form, indent=indent)


def test_trace_built_from_records_reads_them_back():
    """``Trace(records=...)`` keeps its records as columns and reads back
    the same tuples, payloads by reference and times beyond 64 bits
    included."""
    shared = {"n": 1}
    records = [("a", "x", 0, 5, shared), ("b", "x", 5, 2**70, shared), ("a", "y", 7, 7, None)]
    trace = Trace(records=records)
    assert len(trace.records) == 3 and trace.records == records
    assert trace.records[-1] == records[-1]
    assert trace.records[1][4] is shared
    with pytest.raises(IndexError):
        trace.records[3]


@pytest.mark.parametrize("value", [[1], {"node": 3}, (1, 2)], ids=["list", "dict", "tuple"])
@pytest.mark.parametrize("indent", [None, 2])
def test_trace_json_refuses_a_nested_args_value(value, indent):
    trace = Trace(records=[("app", "submit", 0, 10, {"nested": value})])
    with pytest.raises(TypeError, match="not a JSON scalar"):
        trace.to_json(indent)


@pytest.mark.parametrize("part", [slice(None), slice(0, 0), slice(2, 1), slice(-2, None),
                                  slice(None, -1), slice(None, None, 2), slice(None, None, -1),
                                  slice(-1, 0, -2), slice(1, 99)],
                         ids=["all", "empty", "reversed-bounds", "last-two", "all-but-last",
                              "every-second", "reversed", "back-by-two", "past-the-end"])
def test_trace_records_slice_like_a_list(part):
    records = [("a", "x", 0, 5, None), ("b", "y", 5, 7, {"n": 1}), ("a", "x", 7, 9, None),
               ("c", "z", 9, 9, {})]
    assert Trace(records=records).records[part] == records[part]


@pytest.mark.parametrize("indent", [None, 0, 2, 4])
def test_json_chunks_join_to_the_json_text(indent):
    trace = Trace(records=(_EVERY_SCALAR + _ONE_HEAD) * 200, makespan_ns=7)
    assert "".join(trace.json_chunks(indent)) == trace.to_json(indent)


@pytest.mark.parametrize("indent", [None, 2])
def test_json_chunks_hold_at_most_a_chunk_of_records_each(indent):
    """A head, two full pieces, one record and the tail: every piece of
    records holds at most ``JSON_CHUNK`` of them, and the pieces join to
    what ``json.dumps`` writes across their seams."""
    records = [("app", "step", i, i + 1, {"step": i % 3}) for i in range(2 * JSON_CHUNK + 1)]
    pieces = list(Trace(records=records).json_chunks(indent))
    assert [piece.count('"actor": ') for piece in pieces] == [0, JSON_CHUNK, JSON_CHUNK, 1, 0]
    assert "".join(pieces) == json.dumps({"makespan_ns": 0, "records": [
        {"actor": actor, "name": name, "begin_ns": begin, "end_ns": end, "args": args}
        for actor, name, begin, end, args in records]}, indent=indent)


class _Level(IntEnum):
    HIGH = 3


class _Label(str):
    def __str__(self):
        return "not what json writes"


@pytest.mark.parametrize("value", [
    0, -3, 2**70, True, False, _Level.HIGH, None, -0.0, 1 / 3, 5e-324, math.nan, math.inf,
    -math.inf, "", "%d%s%%", '"quoted"', "\\back", "\x00\x1f\n\t\x7f", "é€\u2028😀",
    "\ud800", _Label("label%")],
    ids=lambda value: f"{type(value).__name__}-{value!r}")
def test_json_scalar_writes_what_json_dumps_writes(value):
    """Exact ``int`` and ``str`` values take a path of their own; their
    subclasses (``bool``, an ``IntEnum`` member, a ``str`` subclass) and
    every other scalar go through ``json.dumps``, and all read alike."""
    assert _json_scalar(value) == json.dumps(value)


@settings(max_examples=80, deadline=None)
@given(cores=st.integers(min_value=1, max_value=4),
       backgrounds=st.lists(st.integers(min_value=0, max_value=3000), max_size=3),
       charges=st.lists(st.tuples(st.integers(min_value=1, max_value=10_000),
                                  st.integers(min_value=0, max_value=20_000)),
                        min_size=1, max_size=8),
       together=st.booleans())
def test_work_conservation_under_sharing(cores, backgrounds, charges, together):
    """Charges that share a domain never overlap: each begins when it
    arrives or when the one before it ends, whichever is later, and takes
    ceil(cost * stretch).  Arrivals at one time queue in spawn order, so
    simultaneous ones end at the running sum of their stretched costs."""
    eng = Engine()
    dom = eng.domain("cpu", cores)
    for i, duty in enumerate(backgrounds):
        eng.add_background(dom, f"bg{i}", duty)
    if together:
        charges = [(cost, 0) for cost, _ in charges]
    for i, (cost, delay) in enumerate(charges):
        eng.spawn(f"p{i}", _one_charge(cost, delay), domain=dom)
    tr = eng.run_until_idle()

    stretch = max(Fraction(1), Fraction(sum(backgrounds) + 1000, 1000 * cores))
    free, want = 0, []
    for i, (cost, delay) in sorted(enumerate(charges), key=lambda ic: (ic[1][1], ic[0])):
        begin = max(delay, free)
        free = begin + math.ceil(cost * stretch)
        want.append((f"p{i}", begin, free))
    got = sorted((actor, begin, end) for actor, _, begin, end, _ in tr.records)
    assert got == sorted(want)
    spans = sorted(got, key=lambda g: g[1])
    assert all(a[2] <= b[1] for a, b in zip(spans, spans[1:]))
    if together:
        ends = [end for _, _, end in spans]
        assert ends == list(itertools.accumulate(math.ceil(c * stretch) for c, _ in charges))
    assert tr.makespan_ns == free


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_random_workloads_replay_exactly(seed):
    a = _random_workload(seed, n_procs=6, n_charges=12)
    b = _random_workload(seed, n_procs=6, n_charges=12)
    assert a.to_json() == b.to_json()


def test_staggered_arrivals_run_in_arrival_order():
    # p1 arrives while p0 runs and starts once p0 is done
    eng = Engine()
    dom = eng.domain("cpu", 1)
    eng.spawn("p0", _one_charge(200), domain=dom)
    eng.spawn("p1", _one_charge(200, delay=100), domain=dom)
    assert _spans(eng.run_until_idle()) == {"p0": (0, 200), "p1": (200, 400)}


@settings(max_examples=80, deadline=None)
@given(cores=st.integers(min_value=1, max_value=4),
       backgrounds=st.lists(st.integers(min_value=0, max_value=3000), max_size=3),
       steps=st.lists(st.tuples(st.integers(min_value=1, max_value=10_000),
                                st.integers(min_value=0, max_value=500)),
                      min_size=1, max_size=12))
def test_solo_charges_end_at_the_closed_form(cores, backgrounds, steps):
    """A charge alone on its domain ends at begin + ceil(cost * stretch),
    stretch = max(1, (background + 1000) / (1000 * cores))."""
    eng = Engine()
    dom = eng.domain("cpu", cores)
    for i, duty in enumerate(backgrounds):
        eng.add_background(dom, f"bg{i}", duty)

    def body():
        for cost, gap in steps:
            yield Charge(cost, "w")
            yield Sleep(gap)

    eng.spawn("app", body(), domain=dom)
    tr = eng.run_until_idle()
    stretch = max(Fraction(1), Fraction(sum(backgrounds) + 1000, 1000 * cores))
    begin = 0
    for (_, _, rec_begin, rec_end, _), (cost, gap) in zip(tr.records, steps, strict=True):
        assert rec_begin == begin
        assert rec_end == begin + math.ceil(cost * stretch)
        begin = rec_end + gap


def test_charges_queued_beside_a_background_take_the_stretched_cost():
    # one core, 750 background: each charge takes ceil(100 * 7/4) = 175
    eng = Engine()
    dom = eng.domain("cpu", 1)
    eng.add_background(dom, "bg", 750)
    eng.spawn("a", _one_charge(100), domain=dom)
    eng.spawn("b", _one_charge(100), domain=dom)
    assert _spans(eng.run_until_idle()) == {"a": (0, 175), "b": (175, 350)}


def test_charge_arriving_mid_charge_waits_for_the_core():
    # one core, 750 background: a (1000) ends at 1750; b (50) arrives at
    # 101 and runs from 1750 for ceil(50 * 7/4) = 88
    eng = Engine()
    dom = eng.domain("cpu", 1)
    eng.add_background(dom, "bg", 750)
    eng.spawn("a", _one_charge(1000), domain=dom)
    eng.spawn("b", _one_charge(50, delay=101), domain=dom)
    assert _spans(eng.run_until_idle()) == {"a": (0, 1750), "b": (1750, 1838)}


def _add_background_at(delay):
    eng = Engine()
    dom = eng.domain("cpu", 1)
    eng.spawn("a", _one_charge(1000), domain=dom)
    eng.spawn("b", _one_charge(1000), domain=dom)

    def late():
        yield Sleep(delay)
        eng.add_background(dom, "late", 750)

    eng.spawn("late", late())
    with pytest.raises(ValueError, match="^background 'late' added to domain 'cpu' "
                                         "while a charge runs there until 2000 ns$"):
        eng.run_until_idle()
    assert (dom.background_milli, dom.stretch_num, dom.stretch_den) == (0, 1, 1)


def test_background_added_mid_charge_raises():
    # at 333 a runs
    _add_background_at(333)


def test_background_added_while_a_charge_is_queued_raises():
    # at 1500 b is still queued behind a
    _add_background_at(1500)


def test_background_added_between_charges_stretches_only_later_ones():
    # the background arrives at 100, as a's first charge ends there
    eng = Engine()
    dom = eng.domain("cpu", 1)

    def a():
        yield Charge(100, "a1")
        yield Sleep(50)
        yield Charge(100, "a2")

    def late():
        yield Sleep(100)
        eng.add_background(dom, "late", 750)

    eng.spawn("a", a(), domain=dom)
    eng.spawn("late", late())
    spans = _name_spans(eng.run_until_idle())
    assert spans == {"a1": (0, 100), "a2": (150, 325)}


def test_engine_without_trace_keeps_busy_time_and_makespan():
    kept = _random_workload(3, n_procs=6, n_charges=12)
    bare = _random_workload(3, n_procs=6, n_charges=12, keep_trace=False)
    assert kept.records and bare.records == []
    assert (bare.makespan_ns, bare.busy_ns) == (kept.makespan_ns, kept.busy_ns)


def test_charges_finishing_together_resume_at_their_finish_time():
    # a (on a core) and b (on no domain) both finish at 200; a's sleep
    # must not move the clock before b has resumed at 200
    eng = Engine()
    dom = eng.domain("cpu", 1)

    def a():
        yield Charge(200, "a1")
        yield Sleep(10)
        yield Charge(5, "a2")

    def b():
        yield Charge(200, "b1")
        yield Charge(5, "b2")

    eng.spawn("a", a(), domain=dom)
    eng.spawn("b", b())
    spans = _name_spans(eng.run_until_idle())
    assert spans == {"a1": (0, 200), "b1": (0, 200), "a2": (210, 215), "b2": (200, 205)}


def test_woken_waiter_runs_after_entries_already_due():
    # the sleeper's wake and its next step are queued at 50 before the
    # event fires there, so both run before the waiter does
    eng = Engine()
    ev = eng.event("go")

    def sleeper():
        yield Sleep(50)
        yield Charge(0, "s1")
        yield Charge(0, "s2")

    def waiter():
        yield WaitFor(ev)
        yield Charge(0, "w1")

    def poster():
        eng.post(ev, 50)
        yield Sleep(0)

    eng.spawn("s", sleeper())
    eng.spawn("w", waiter())
    eng.spawn("p", poster())
    assert [name for _, name, *_ in eng.run_until_idle().records] == ["s1", "s2", "w1"]


def _wake_run(park, waker_tail, daemon_cost=0):
    """A daemon idles until a waker rouses it at 50 and then charges
    ``daemon_cost`` as "d1"; the waker goes on with ``waker_tail``.  With
    ``park`` the daemon yields ``PARK`` and is woken with ``wake``, else
    it waits on an event that the waker posts with no delay.  Returns the
    record names and the number of heap entries the run pushed."""
    eng = Engine()
    ev = eng.event("wake")

    def daemon():
        yield PARK if park else WaitFor(ev)
        yield Charge(daemon_cost, "d1")

    proc = eng.spawn("d", daemon(), daemon=True)

    def waker():
        yield Sleep(50)
        if park:
            eng.wake(proc)
        else:
            eng.post(ev, 0)
        yield from waker_tail()

    eng.spawn("w", waker())
    tr = eng.run_until_idle()
    return [(name, begin, end) for _, name, begin, end, _ in tr.records], eng._seq


def test_woken_daemon_runs_after_entries_already_due():
    # the waker's zero-cost charges queue its next step at 50 behind the
    # wake, so the daemon resumes only after both of them
    def tail():
        yield Charge(0, "w1")
        yield Charge(0, "w2")

    order = [("w1", 50, 50), ("w2", 50, 50), ("d1", 50, 50)]
    assert _wake_run(True, tail) == _wake_run(False, tail)
    assert _wake_run(True, tail)[0] == order


def test_woken_daemon_with_nothing_due_resumes_at_once():
    def tail():
        yield Sleep(10)
        yield Charge(5, "w1")

    parked, pushes = _wake_run(True, tail, daemon_cost=7)
    assert (parked, pushes) == _wake_run(False, tail, daemon_cost=7)
    assert parked == [("d1", 50, 57), ("w1", 60, 65)]


def test_wake_is_a_no_op_unless_parked():
    eng = Engine()
    resumes = []

    def daemon():
        while True:
            yield PARK
            resumes.append(eng.now)

    proc = eng.spawn("d", daemon(), daemon=True)

    def body():
        me = procs["self"]
        seq = eng._seq
        eng.wake(me)  # running
        eng.wake(proc)
        eng.wake(proc)  # already woken, not yet resumed
        assert eng._seq == seq + 1
        yield Sleep(10)
        assert proc.parked
        eng.wake(proc)
        yield Sleep(10)

    procs = {"self": eng.spawn("w", body())}
    eng.run_until_idle()
    assert resumes == [0, 10]
    seq = eng._seq
    eng.wake(procs["self"])  # finished
    assert eng._seq == seq and not eng._heap


def test_deadlock_names_parked_processes_but_not_parked_daemons():
    eng = Engine()

    def parker():
        yield PARK
        yield Charge(5, "after")

    woken = eng.spawn("woken", parker())
    eng.spawn("stuck", parker())
    eng.spawn("idle", parker(), daemon=True)

    def waker():
        yield Sleep(20)
        eng.wake(woken)

    eng.spawn("waker", waker())
    with pytest.raises(DeadlockError) as exc:
        eng.run_until_idle()
    assert exc.value.actors == ("stuck",)
    assert eng.now == 25


# -- Engine.fire ----------------------------------------------------------------


def _spy_on_queued_entries(monkeypatch, on_entry):
    """Call ``on_entry(entry)`` on every entry the engine queues: those it
    pushes with ``heapq.heappush`` and those it swaps in for the heap's
    head with ``heapq.heapreplace``."""
    push, replace = heapq.heappush, heapq.heapreplace

    def spy_push(heap, entry):
        on_entry(entry)
        push(heap, entry)

    def spy_replace(heap, entry):
        on_entry(entry)
        return replace(heap, entry)

    monkeypatch.setattr(heapq, "heappush", spy_push)
    monkeypatch.setattr(heapq, "heapreplace", spy_replace)


def test_fire_with_no_waiter_and_nothing_due_pushes_nothing(monkeypatch):
    pushes = []
    _spy_on_queued_entries(monkeypatch, lambda entry: pushes.append(entry[2]))
    eng = Engine()
    ev = eng.event("done")
    seen = []

    def firer():
        yield Sleep(50)
        before = len(pushes)
        eng.fire(ev)
        seen.append((ev.fired, len(pushes) - before))
        yield Charge(5, "f1")

    def late():
        yield Sleep(80)
        yield WaitFor(ev)
        yield Charge(0, "l1")

    eng.spawn("f", firer())
    eng.spawn("l", late())
    tr = eng.run_until_idle()
    assert seen == [(True, 0)] and _FIRE not in pushes
    assert [(name, begin, end) for _, name, begin, end, _ in tr.records] == [
        ("f1", 50, 55), ("l1", 80, 80)]


def _fire_or_post_run(use_fire, case):
    """A firer fires "done" at 50, then charges "f1" (zero cost) and "f2".
    With ``case`` "waiter" a process waits on "done" and charges "w1"; with
    "due" another process wakes at 50 behind the firer and charges "o1".
    Returns the records and the number of entries pushed."""
    eng = Engine()
    ev = eng.event("done")

    def firer():
        yield Sleep(50)
        if use_fire:
            eng.fire(ev)
        else:
            eng.post(ev, 0)
        yield Charge(0, "f1")
        yield Charge(3, "f2")

    def waiter():
        yield WaitFor(ev)
        yield Charge(0, "w1")

    def other():
        yield Sleep(50)
        yield Charge(0, "o1")

    eng.spawn("f", firer())
    eng.spawn(case, waiter() if case == "waiter" else other())
    tr = eng.run_until_idle()
    return [(name, begin, end) for _, name, begin, end, _ in tr.records], eng._seq


@pytest.mark.parametrize("case", ["waiter", "due"])
def test_fire_with_a_waiter_or_an_entry_due_is_a_post(case):
    fired = _fire_or_post_run(True, case)
    assert fired == _fire_or_post_run(False, case)
    # "f1" is written as it is yielded; the waiter, or the entry already
    # due, runs before the firer goes on
    other = "w1" if case == "waiter" else "o1"
    assert fired[0] == [("f1", 50, 50), (other, 50, 50), ("f2", 50, 53)]


def test_fire_of_a_fired_event_raises():
    eng = Engine()
    ev = eng.event("once")

    def body():
        eng.fire(ev)  # nothing waits and nothing is due: fired in place
        yield Sleep(1)
        eng.fire(ev)
        yield Sleep(1)

    eng.spawn("p", body())
    with pytest.raises(ValueError, match="'once' already fired"):
        eng.run_until_idle()


def _fire_workload(seed, n_procs=8, n_steps=40, keep_trace=True):
    """Processes that each fire one event of their own with ``fire`` just
    before every yield, as ``Engine.fire`` allows.  Each waits only on the
    events of lower-numbered processes, so nothing deadlocks; many of
    those have fired already, some have a waiter when they fire, and
    short costs from a small set leave entries due at many fires."""
    rng = random.Random(seed)
    eng = Engine(keep_trace=keep_trace)
    events = [[eng.event(f"e{i}.{j}") for j in range(n_steps)] for i in range(n_procs)]

    def body(idx):
        for j in range(n_steps):
            pick = rng.random()
            if pick < 0.35 or idx == 0:
                effect = Charge(rng.choice((0, 0, 5, 10, 40)), f"c{idx}.{j}")
            elif pick < 0.6:
                effect = Sleep(rng.choice((0, 5, 10, 30)))
            else:  # near this step, so it often fires at the same time
                step = min(n_steps - 1, max(0, j + rng.randrange(-2, 3)))
                effect = WaitFor(events[rng.randrange(idx)][step])
            eng.fire(events[idx][j])
            yield effect

    for i in range(n_procs):
        dom = _own_domain(eng, f"cpu{i}", _SHAPES[i % len(_SHAPES)])
        eng.spawn(f"p{i}", body(i), domain=dom)
    return eng.run_until_idle()


def _handoff_engine(seed, n_workers=10, n_steps=40):
    """A seeded workload over every case the loop completes without the
    heap: all workers wake from one event, zero-cost charges, ``Sleep(0)``
    and waits on events that may already have fired, with each worker on
    a domain of its own or on none.  Returned unrun."""
    rng = random.Random(seed)
    eng = Engine()
    events = [eng.event(f"e{i}") for i in range(12)]

    def poster():
        for ev in events:
            yield Sleep(rng.randrange(0, 400))
            eng.post(ev, rng.choice((0, 0, 50)))

    def worker(idx):
        yield WaitFor(events[0])
        yield Charge(0, "woke", {"got": events[0].name})
        for j in range(n_steps):
            pick = rng.random()
            if pick < 0.3:
                yield Charge(rng.randrange(1, 600), f"w{idx}.{j}")
            elif pick < 0.4:
                yield Charge(0, f"z{idx}.{j}")
            elif pick < 0.5:
                yield Sleep(0)
            elif pick < 0.7:
                yield Sleep(rng.randrange(1, 300))
            else:
                ev = rng.choice(events)
                yield WaitFor(ev)
                yield Charge(rng.randrange(0, 3), f"got{idx}.{j}", {"got": ev.name})

    eng.spawn("poster", poster())
    for i in range(n_workers):
        dom = _own_domain(eng, f"cpu{i}", _SHAPES[i % len(_SHAPES)])
        eng.spawn(f"w{i}", worker(i), domain=dom)
    return eng


def _digest(trace):
    return hashlib.sha256(trace.to_json().encode()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (0,
     "fe3c54b4094eaaa2358010f4e5de7c61485e2dee6956f667b8cb4fd8e6d42629"),
    (1,
     "b9b63c9f3188d38513e773ec6f2956fadb4d8fab02233aed4dcaa4c402e1d66e"),
    (2,
     "d4e1502021eab9d67a6dd2814faa0b693e046c8452e702f0d48779e60b5a54c8"),
    (3,
     "53fb8b53d853868f2fd3fd0bd9e3e88e35ad39194dee430171fd93307ab7e699"),
    (4,
     "b7fa4925ea9182733d4ab9d70c8032bd56c87309557508fbbcc6d3bece2879d4"),
])
def test_mixed_workload_traces_are_pinned(seed, digest):
    """Digests recorded with the processor-sharing engine, before domains
    ran their charges one at a time; an engine that pushed every entry on
    the heap gives the same ones."""
    assert _digest(_handoff_engine(seed).run_until_idle()) == digest


@pytest.mark.parametrize("seed, digest", [
    (1234,
     "994f1b786bc644ae652cb95d33c43ba375e051980a1563ec3e356e3d983665ec"),
    (99,
     "259a7214711b3215124ab2c37122d1c23ab87843f6c0fc0cbf970f82901a5914"),
])
def test_random_workload_traces_are_pinned(seed, digest):
    assert _digest(_random_workload(seed, n_procs=12, n_charges=60)) == digest
