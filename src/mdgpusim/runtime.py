"""Host-side GPU runtime behaviour: submission, flushing, queues, sync.

Two submission disciplines are modelled:

* deferred: ``submit`` records a node into a task-graph buffer on the
  application thread.  Once the buffer holds more than
  ``max_cached_nodes`` entries (or a host sync arrives) the batch is
  handed to a flush worker thread, which pays a per-batch bookkeeping
  cost plus a per-node processing cost and launch API call, then the
  node reaches its device queue.  A second worker wakes the host on
  sync and pays graph retirement costs that grow with how long each
  flushed batch has been in flight, capped per batch and per sync.
  Every batch's term is >= 0, so the sum stops once it reaches the
  sync cap: at a cache of 0 that is after a few of a sync's hundreds
  of flushes.  Only the per-batch retirement term is the profile's;
  its growth with age, both caps and the hand-over charge are shared.

* instant: ``submit`` pays the launch API cost directly on the
  application thread and the node reaches its queue immediately; sync
  is a plain completion poll.  No worker threads exist.

Device side, streams are multiplexed round-robin onto at most
``max_hw_queues`` hardware queue slots in creation order; a slot is
built when the first stream maps onto it.  Work in one slot is FIFO:
a cross-stream dependency blocks the whole slot until it resolves,
and sharing a slot serializes otherwise-independent streams.  When
more streams exist than ``max_hw_queues``, every dispatch pays a small
extra scheduling penalty.  The same slot class serves the transfer
links between ranks.

An idle queue slot or link, flush worker or monitor parks (``PARK``)
rather than waiting on an event of its own; whoever hands it work
calls ``Engine.wake`` if it is parked, which resumes it exactly where
posting such an event would have.  A busy one reaches the work itself,
so it is not woken.

Every charge that repeats is built once per run, in a ``costs.Table``
that builds a missing entry from its key, and yielded by reference (the
engine never mutates a charge).  A rank keeps one ``Work`` per
``(stream, name, duration_ns)`` node, holding that stream, its trace
payloads, its kernel, device packet, submit and flush-processing
charges and tables of its launch charges by drawn latency and dispatch
charges by gap, plus a table of API-call charges per kind; a link keeps
one ``Work`` per direction.  Per rank and distinct input it keeps a
flush trigger per ``(nodes, contention applies)``, a flush worker's
bookkeeping per batch size and a retirement per ``(tax, flushes)``.  No
builder holds the runtime.  Contention applies only to a threshold
flush on a rank with peers on its node, so a rank alone on its node
does no contention arithmetic and keeps no count of its buffered kernel
time.

A submission is one object: the ``DevTask`` is itself the ``Event`` that
its completion fires.  Its slot fires it with ``Engine.fire``, so a
task that nobody waits on, ending while nothing else is due, queues no
heap entry.  A ``Stream`` puts a task on its slot's FIFO and wakes the
slot itself.  ``submit`` and ``sync`` yield the flush trigger charge
themselves and then hand the batch over with a plain method call, so a
flush adds no generator of its own.  The buffer and each batch hold
bare tasks: the flush worker reaches a task's stream through its
``Work``.

Event-recording modes: ``COARSE`` records only the sync marker, while
``FULL`` records one event per node, paying host-side create/record
API costs on the launching thread plus a device-side packet after
every task.  Latency draws are counter-hashed per (actor, kind), so
the FULL run sees exactly the same launch latencies as the COARSE
run and can only add cost, never reshuffle it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import List, Optional, Sequence, Tuple

from .config import is_int
from .costs import ApiKind, ApiLatencyModel, ApiSampler, Table, round_half_up
from .engine import PARK, Charge, Engine, Event, WaitFor


class EventMode(Enum):
    COARSE = "coarse"
    FULL = "full"


# costs every deferring version shares: the app's hand-over of a batch,
# and the retirement per ns of batch age, capped per batch and per sync
FLUSH_TRIGGER_NS = 500
RETIRE_RATE = 0.009
RETIRE_FLUSH_CAP_NS = 25000
RETIRE_SYNC_CAP_NS = 60000


@dataclass(frozen=True)
class RuntimeProfile:
    """Mechanics constants of one runtime version.

    All times in nanoseconds.  A cost that all versions share, or all
    that defer, is a module constant where the model reads it.  Every
    bundled profile sets each field without a default (``hip-native``
    also the deferred costs no run of it reads); only the contention
    terms (which ``hip-native`` omits) and the HSA worker duty (which
    the acpp files omit) fall back to one.  ``validate`` enforces the
    relation that keeps launch delay non-decreasing in the node-cache
    size: the per-batch worker bookkeeping must not exceed what the
    application pays per submission, otherwise batching could beat
    eager flushing even for the head-of-batch node.  Frozen, like
    ``SystemPreset``: the loader hands every caller the same object.
    """

    name: str
    submission: str                      # "deferred", "instant" or "both"
    submit_cost_ns: int                  # app: record one node into the buffer
    flush_bookkeeping_cost_ns: int       # worker: per batch
    per_node_flush_cost_ns: int          # worker: per node, excl. launch API
    notify_cost_ns: int                  # monitor: wake the host after sync
    retire_fixed_ns: int                 # monitor: per flushed batch at sync
    mpi_msg_cpu_ns: int
    pme_comm_overlap: bool               # overlap PME-rank MPI with its chain
    # app: extra cost per threshold-triggered flush for every other rank
    # sharing the node.  Mid-step flushes race the peers' runtime and HSA
    # threads for the shared queue doorbells; sync-point flushes happen
    # while the node quiesces and do not pay either term.  The scan term
    # is charged once per node pair in the flushed batch: dependency
    # resolution walks the batch against itself while holding the graph
    # lock, so batching submissions does not make mid-step flushes free.
    flush_contention_ns_per_peer: int = 0
    flush_contention_scan_ns: int = 0
    # traffic cutoff: the contention terms apply only when the flushed
    # batch carries less device work than this.  Small batches mean short
    # steps and dense flush traffic across the node; batches hauling big
    # kernels flush while the peers still crunch.  Zero charges every
    # threshold flush regardless of batch size.
    flush_contention_cutoff_ns: int = 0
    hsa_worker_duty_milli: int = 750

    def validate(self) -> "RuntimeProfile":
        for f in fields(self):  # each f.type is a string, as annotations are here
            value = getattr(self, f.name)
            if f.type == "int" and not (is_int(value) and value >= 0):
                raise ValueError(f"{self.name}: {f.name} must be an integer >= 0, "
                                 f"got {value!r}")
        if self.submission not in ("deferred", "instant", "both"):
            raise ValueError(f"{self.name}: bad submission mode {self.submission!r}")
        if not isinstance(self.pme_comm_overlap, bool):
            raise ValueError(f"{self.name}: pme_comm_overlap must be true or false, "
                             f"got {self.pme_comm_overlap!r}")
        if self.supports_deferred():
            budget = self.submit_cost_ns + FLUSH_TRIGGER_NS
            if self.flush_bookkeeping_cost_ns > budget:
                raise ValueError(
                    f"{self.name}: flush bookkeeping ({self.flush_bookkeeping_cost_ns}) "
                    f"exceeds per-submission cost ({budget}); launch delay would "
                    f"not be monotone in the cache size")
        return self

    def supports_deferred(self) -> bool:
        return self.submission in ("deferred", "both")

    def supports_instant(self) -> bool:
        return self.submission in ("instant", "both")


ENV_MAX_CACHED_NODES = "HIPSYCL_RT_MAX_CACHED_NODES"
ENV_MAX_HW_QUEUES = "GPU_MAX_HW_QUEUES"


@dataclass
class RunSettings:
    """Per-run knobs, named after the environment variables they model."""

    max_cached_nodes: int = 100
    instant_submission: bool = False
    max_hw_queues: int = 4
    hsa_affinity_override: bool = False
    event_mode: EventMode = EventMode.COARSE
    visible_devices: int = 1
    seed: int = 0

    def __post_init__(self):
        # types before ranges, so a bad override is one error line
        if not (is_int(self.max_cached_nodes) and self.max_cached_nodes >= 0):
            raise ValueError(f"{ENV_MAX_CACHED_NODES} must be an integer >= 0, "
                             f"got {self.max_cached_nodes!r}")
        if not (is_int(self.max_hw_queues) and self.max_hw_queues >= 1):
            raise ValueError(f"{ENV_MAX_HW_QUEUES} must be an integer >= 1, "
                             f"got {self.max_hw_queues!r}")
        if not (is_int(self.visible_devices) and self.visible_devices >= 1):
            raise ValueError("at least one device must be visible, "
                             f"got {self.visible_devices!r}")
        for f in ("instant_submission", "hsa_affinity_override"):
            if not isinstance(getattr(self, f), bool):
                raise ValueError(f"{f} must be true or false, got {getattr(self, f)!r}")
        if not isinstance(self.event_mode, EventMode):
            raise ValueError(f"event_mode must be an EventMode, got {self.event_mode!r}")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


# -- device side -------------------------------------------------------------


class Work:
    """The charges and payloads every task of one node or transfer shares.

    A rank builds one per ``(stream, name, duration_ns)`` and a link one
    per direction; each is built once per run and yielded by reference
    on every submit, flush and dispatch.  ``kernel`` carries the
    stream's payload, or None on a link.  ``packet`` is the full-events
    device packet and ``process`` the flush worker's per-node charge,
    each None where the run pays none.  ``launches`` is the table of
    ``kernel_launch`` charges by drawn latency, and ``dispatches`` that
    of ``dispatch`` charges by its slot's gap.  ``stream`` is the stream
    its tasks go to, or None on a link.
    """

    __slots__ = ("kernel", "packet", "submit", "process", "stream", "done_name",
                 "launches", "dispatches")

    def __init__(self, kernel: Charge, for_args: Optional[dict] = None,
                 packet: Optional[Charge] = None, node_args: Optional[dict] = None,
                 submit: Optional[Charge] = None, process: Optional[Charge] = None,
                 stream: Optional["Stream"] = None):
        self.kernel = kernel
        self.packet = packet
        self.submit = submit
        self.process = process
        self.stream = stream
        self.done_name = f"{kernel.name}.done"
        self.launches = Table(partial(Charge, name="kernel_launch", args=node_args))
        self.dispatches = Table(partial(Charge, name="dispatch", args=for_args))


class DevTask(Event):
    """One submission of a ``Work``, and the event its completion fires:
    it waits for ``deps``, runs, and its slot fires it.  Named after the
    work's kernel unless ``name`` is given.  A tuple of ``deps`` is kept
    as it is, any other sequence copied into one."""

    __slots__ = ("work", "deps", "submit_time")

    def __init__(self, work: Work, deps: Sequence[Event] = (),
                 submit_time: Optional[int] = None, name: Optional[str] = None):
        # Event's fields are set here: one task is made per submission,
        # and a super().__init__ call per task is a measured cost
        self.name = work.done_name if name is None else name
        self.fired = False
        self._waiters = []
        self.work = work
        self.deps = deps if type(deps) is tuple else tuple(deps)
        self.submit_time = submit_time


class Stream:
    """An in-order submission queue, muxed onto one hardware slot.

    ``args`` is the trace payload of every task it runs, built once.
    """

    def __init__(self, name: str, slot: "Slot"):
        self.name = name
        self.slot = slot
        self.args = {"stream": name}
        self._fifo, self._proc, self._engine = slot.fifo, slot._proc, slot.engine

    def enqueue(self, task: DevTask) -> None:
        """``Slot.enqueue`` on its slot, written out here: a call fewer
        per task."""
        self._fifo.append(task)
        if self._proc.parked:
            self._engine.wake(self._proc)


class Slot:
    """One hardware queue or link: strict FIFO over the tasks of everything
    mapped to it.  Each task yields its ``Work``'s charges, so a kernel
    carries its stream's payload, and its dispatch charge at the slot's
    current ``dispatch_gap_ns``."""

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.fifo: deque = deque()
        self.dispatch_gap_ns = 0
        self._proc = engine.spawn(name, self._run(), daemon=True)

    def enqueue(self, task: DevTask) -> None:
        self.fifo.append(task)
        if self._proc.parked:  # a busy slot reaches the task itself
            self.engine.wake(self._proc)

    def _run(self):
        # after each fire it only pops its FIFO and reads the next task's
        # deps before it yields, as Engine.fire asks
        fifo, fire = self.fifo, self.engine.fire
        while True:
            if not fifo:
                yield PARK
                continue
            task = fifo.popleft()
            for dep in task.deps:
                if not dep.fired:
                    yield WaitFor(dep)
            work = task.work
            gap = self.dispatch_gap_ns
            if gap:
                yield work.dispatches[gap]
            yield work.kernel
            if work.packet is not None:
                yield work.packet
            fire(task)


# device-side costs, the same under every runtime version: the gap a slot
# waits before each dispatch, its rise per unit of streams-per-slot above
# one, and the packet a FULL-events run adds after every task
DISPATCH_GAP_NS = 3500
OVERSUB_EXTRA_NS = 450
EVENT_PACKET_NS = 7000


class Device:
    """A GPU die: hardware queue slots plus round-robin stream creation.

    The runtime opens ``idle_streams`` of its own before the application
    creates any (it does so for every visible device), so restricting
    device visibility changes which slots application streams land on.
    ``slots`` holds only the slots some stream maps onto.  No device cost
    depends on the runtime version, so ``profile`` is not read.
    """

    def __init__(self, engine: Engine, name: str, profile: RuntimeProfile,
                 settings: RunSettings):
        self.engine = engine
        self.name = name
        self.max_hw_queues = settings.max_hw_queues
        self.slots: List[Slot] = []
        self.streams: List[Stream] = []
        idle = 4 if settings.visible_devices > 1 else 0
        for i in range(idle):
            self.new_stream(f"idle{i}")

    def new_stream(self, label: str) -> Stream:
        index = len(self.streams) % self.max_hw_queues
        if index == len(self.slots):
            self.slots.append(Slot(self.engine, f"{self.name}.q{index}"))
        stream = Stream(f"{self.name}.{label}", self.slots[index])
        self.streams.append(stream)
        self._retune_dispatch()
        return stream

    def _retune_dispatch(self) -> None:
        ratio = len(self.streams) / self.max_hw_queues
        gap = DISPATCH_GAP_NS
        if ratio > 1.0:
            gap += round_half_up(OVERSUB_EXTRA_NS * (ratio - 1.0))
        for slot in self.slots:
            slot.dispatch_gap_ns = gap


# -- host side ---------------------------------------------------------------


_WAIT, _LAUNCH, _POLL = ApiKind.STREAM_WAIT_EVENT, ApiKind.KERNEL_LAUNCH, ApiKind.HOST_SYNC_POLL
_CREATE, _RECORD = ApiKind.EVENT_CREATE_DESTROY, ApiKind.EVENT_RECORD


class RankRuntime:
    """Submission front-end for one rank: buffer, workers, sync taxes.

    Threads are pinned one per core, but only the application thread
    gets a single-core domain: the HSA poller thread has no core of its
    own, lands on the application core and steals cycles there, unless
    the affinity override banishes it (modelling the debug knob that
    lets runtime threads escape the rank's mask).  The flush and monitor
    workers share their cores with nothing, so they need no domain.
    """

    def __init__(self, engine: Engine, name: str,
                 profile: RuntimeProfile, settings: RunSettings,
                 api_model: ApiLatencyModel):
        profile.validate()
        self.engine = engine
        self.name = name
        self.profile = profile
        self.api = ApiSampler(api_model)
        self.instant = settings.instant_submission
        self.max_cached_nodes = settings.max_cached_nodes
        if self.instant and not profile.supports_instant():
            raise ValueError(f"runtime {profile.name!r} has no instant submission")
        if not self.instant and not profile.supports_deferred():
            raise ValueError(f"runtime {profile.name!r} only submits instantly")

        self.app_actor = f"{name}.app"
        self.launch_delays: List[int] = []
        self._buffer: List[DevTask] = []
        self._peers = settings.visible_devices - 1  # ranks sharing the node
        self._buffer_ns = 0  # the kernel ns of the buffered tasks, kept with peers
        self._batches: deque = deque()
        self._flushes_since_sync: List[int] = []  # trigger timestamps
        # (nodes, contention applies) -> the flush trigger charge
        self._triggers = Table(partial(_trigger_charge, profile, self._peers))
        self._notify_requests: deque = deque()
        self.full = settings.event_mode is EventMode.FULL
        self._works = Table(partial(_build_work, profile, self.full))
        # API calls without a payload: kind -> drawn ns -> its charge
        self._api_charges = {kind: Table(partial(Charge, name=kind.value)) for kind in ApiKind}

        self.app_domain = engine.domain(f"{name}.core0", 1)
        if not settings.hsa_affinity_override:
            engine.add_background(self.app_domain, f"{name}.hsa-worker",
                                  profile.hsa_worker_duty_milli)
        if not self.instant:
            self.flush_actor = f"{name}.dag-flush"
            self.monitor_actor = f"{name}.dag-monitor"
            self._flusher = engine.spawn(self.flush_actor, self._flush_loop(),
                                         daemon=True)
            self._monitor = engine.spawn(self.monitor_actor, self._monitor_loop(),
                                         daemon=True)
        else:
            self.flush_actor = None
            self.monitor_actor = None

    # -- submission (runs on the application process) ----------------------

    def submit(self, stream: Stream, name: str, duration_ns: int,
               deps: Sequence[Event] = ()):
        """Generator; ``yield from`` it on the app process.  Returns the
        device task, which fires when it completes."""
        work = self._works[stream, name, duration_ns]
        task = DevTask(work, deps, self.engine.now)
        if self.instant:
            app, draw, charges = self.app_actor, self.api.draw, self._api_charges
            for _ in task.deps:
                yield charges[_WAIT][draw(app, _WAIT)]
            if self.full:
                yield charges[_CREATE][draw(app, _CREATE)]
                yield charges[_RECORD][draw(app, _RECORD)]
            yield work.launches[draw(app, _LAUNCH)]
            self.launch_delays.append(self.engine.now - task.submit_time)
            stream.enqueue(task)
        else:
            yield work.submit
            self._buffer.append(task)
            if self._peers:  # only contention reads the buffered kernel ns
                self._buffer_ns += work.kernel.cost_ns
            if len(self._buffer) > self.max_cached_nodes:
                yield self._flush_trigger(threshold=True)
                self._hand_over()
        return task

    def _flush_trigger(self, threshold: bool = False) -> Charge:
        """The app's charge for handing the non-empty buffer over: yield
        it, then call ``_hand_over``.  The contention terms apply to a
        threshold flush on a rank with peers, below the cutoff if one is
        set; the charge is built once per ``(nodes, applies)``."""
        applies = (threshold and self._peers > 0
                   and not 0 < self.profile.flush_contention_cutoff_ns <= self._buffer_ns)
        return self._triggers[len(self._buffer), applies]

    def _hand_over(self) -> None:
        """Give the buffered batch to the flush worker, and wake it if it
        is parked: a busy worker reaches the batch itself."""
        self._batches.append(self._buffer)
        self._buffer = []
        self._buffer_ns = 0
        self._flushes_since_sync.append(self.engine.now)
        if self._flusher.parked:
            self.engine.wake(self._flusher)

    def sync(self, events: Sequence[Event]):
        """Generator; host-side synchronization against ``events``."""
        if self._buffer:
            yield self._flush_trigger()
            self._hand_over()
        for ev in events:
            if not ev.fired:
                yield WaitFor(ev)
        app, draw, charges = self.app_actor, self.api.draw, self._api_charges
        if self.instant:
            yield charges[_POLL][draw(app, _POLL)]
        else:
            req = Event("sync_notify")
            self._notify_requests.append((req, self._flushes_since_sync))
            self._flushes_since_sync = []
            if self._monitor.parked:
                self.engine.wake(self._monitor)
            yield WaitFor(req)
        # sync marker bookkeeping, identical in every mode
        yield charges[_CREATE][draw(app, _CREATE)]
        yield charges[_RECORD][draw(app, _RECORD)]

    # -- worker threads -----------------------------------------------------

    def _flush_loop(self):
        engine, batches, draw = self.engine, self._batches, self.api.draw
        delays, full, flush = self.launch_delays, self.full, self.flush_actor
        waits, creates, records = (self._api_charges[kind]
                                   for kind in (_WAIT, _CREATE, _RECORD))
        # nodes -> the batch's charge
        bookkeeping = Table(partial(_bookkeeping_charge, self.profile.flush_bookkeeping_cost_ns))
        while True:
            if not batches:
                yield PARK
                continue
            batch = batches.popleft()
            yield bookkeeping[len(batch)]
            for task in batch:
                work = task.work
                for _ in task.deps:
                    yield waits[draw(flush, _WAIT)]
                if full:
                    yield creates[draw(flush, _CREATE)]
                    yield records[draw(flush, _RECORD)]
                if work.process is not None:
                    yield work.process
                yield work.launches[draw(flush, _LAUNCH)]
                delays.append(engine.now - task.submit_time)
                work.stream.enqueue(task)

    def _monitor_loop(self):
        prof = self.profile
        notify = Charge(prof.notify_cost_ns, "sync_notify")
        retires = Table(_retire_charge)  # (tax, flushes) -> its charge
        while True:
            if not self._notify_requests:
                yield PARK
                continue
            req, triggers = self._notify_requests.popleft()
            yield notify
            tax = _retire_tax(prof, triggers, self.engine.now)
            if tax:
                yield retires[tax, len(triggers)]
            self.engine.post(req, 0)


def _retire_tax(prof: RuntimeProfile, triggers: Sequence[int], now: int) -> int:
    """The monitor's retirement tax at ``now`` for batches flushed at
    ``triggers``: ``min(sum(min(fixed + round_half_up(RETIRE_RATE * age),
    RETIRE_FLUSH_CAP_NS)), RETIRE_SYNC_CAP_NS)``.  Every term is >= 0, so
    the sum stops once it reaches the sync cap: at MCN 0 that is after a
    few of a sync's hundreds of flushes."""
    fixed, rate = prof.retire_fixed_ns, RETIRE_RATE
    flush_cap, sync_cap = RETIRE_FLUSH_CAP_NS, RETIRE_SYNC_CAP_NS
    tax = 0
    for t in triggers:
        per_flush = fixed + round_half_up(rate * (now - t))
        tax += per_flush if per_flush < flush_cap else flush_cap
        if tax >= sync_cap:
            return sync_cap
    return tax


def _build_work(prof: RuntimeProfile, full: bool,
                key: Tuple[Stream, str, int]) -> Work:
    """The ``Work`` of a node, built whole the first time it is submitted
    on ``stream`` with ``duration_ns``.  A pipeline submits each node
    name on one stream with one duration per run, so each name's
    payloads are built once and trace records share them by identity."""
    stream, name, duration_ns = key
    node_args, for_args = {"node": name}, {"for": name}
    packet = Charge(EVENT_PACKET_NS, "event_packet", for_args) if full else None
    process = (Charge(prof.per_node_flush_cost_ns, "graph_process", node_args)
               if prof.per_node_flush_cost_ns else None)
    return Work(Charge(duration_ns, name, stream.args), for_args, packet, node_args,
                Charge(prof.submit_cost_ns, "submit_node", node_args), process, stream)


def _trigger_charge(prof: RuntimeProfile, peers: int, key: Tuple[int, bool]) -> Charge:
    """The app's charge for handing ``nodes`` over, contended by ``peers``."""
    nodes, applies = key
    pairs = nodes * (nodes - 1) // 2
    contention = prof.flush_contention_ns_per_peer + prof.flush_contention_scan_ns * pairs
    return Charge(FLUSH_TRIGGER_NS + (peers * contention if applies else 0),
                  "flush_trigger", {"nodes": nodes})


def _bookkeeping_charge(cost_ns: int, nodes: int) -> Charge:
    return Charge(cost_ns, "flush_bookkeeping", {"nodes": nodes})


def _retire_charge(key: Tuple[int, int]) -> Charge:
    tax, flushes = key
    return Charge(tax, "graph_retire", {"flushes": flushes})
