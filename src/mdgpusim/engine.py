"""Discrete-event core with CPU charges run one at a time per core.

Building blocks:

* ``Engine``     -- integer-nanosecond clock, (time, seq) ordered heap
* ``Process``    -- generator coroutine spawned onto the engine
* ``Charge``     -- CPU work, stretched by its domain's background threads
* ``Sleep``      -- plain timer, occupies no CPU
* ``WaitFor``    -- block until an Event fires; resumes with None
* ``PARK``       -- sleep with no heap entry until ``Engine.wake``; for
  idle workers that only one waker ever resumes
* ``Domain``     -- one core that runs its occupants' charges one at a
  time, in arrival order, each stretched by the background duty
* ``Trace``      -- completed charge records, kept as columns, plus
  per-actor busy time; writes its own JSON in pieces of ``JSON_CHUNK``
  records, each filled with one ``bytes %`` from an ASCII template per
  ``(actor, charge)`` head, whose parts are cached per ``(actor, name)``
  and per payload

An event carries no payload: it only fires.  Busy time is kept on each
``Process``, counted when a charge begins (its end is fixed then), and
gathered into ``Trace.busy_ns``, one key per actor name, when the heap
drains; every charge that begins has ended by then.

Heap entries come in four kinds: resume a process, finish a charge
(write its record, then resume its process), fire an event, and unpark
a process that ``Engine.wake`` roused.  A charge that must wait on the
heap is queued as a finish entry only when the run keeps a trace;
untraced, nothing is left to do when it ends, so it is a plain resume.

Invariants the rest of the package leans on:

* the clock is an int and never moves backwards; violations raise
  ``CausalityError`` instead of silently reordering
* two runs with identical inputs produce byte-identical traces: ties are
  broken by insertion sequence, never by hash or wall-clock state
* effects are shared values: the engine only reads a yielded
  ``Charge``, ``Sleep`` or ``WaitFor`` and keeps each yield's state
  (its process, begin and end) in heap entries and records, never on
  the effect, so one effect object may be yielded any number of times
  by any process, on a domain or with none
* integers only inside the engine, no floats or rationals: thread
  duty is tracked in milli-duty integers and a charge's stretch is the
  integer ratio ``stretch_num / stretch_den``, fixed when it begins
* a drained event queue with a non-daemon process unfinished raises
  ``DeadlockError`` naming every such actor: a process with work left
  always has an entry queued, so once the heap drains each of them is
  parked on an event that nothing will post or has yielded ``PARK`` and
  is never woken
* handoff: ``run_until_idle`` alone pops entries and resumes processes.
  In its inner loop a ``Charge``, a ``WaitFor`` on a fired event or a
  ``Sleep`` whose entry would be the next one popped -- the heap is
  empty or its head lies strictly later -- completes at once: the loop
  moves the clock, writes the record and resumes the process, with no
  heap round trip.  One that must wait swaps its entry in for the head
  with a single ``heapreplace``, and the head runs next.  Of the pop
  branches, fire resumes its first waiter at once after queueing the
  others, and unpark its process unless another entry is due now, when
  it swaps the process's resume in for the head in the same way.
  ``Engine.fire`` sets an event fired with no entry when that entry
  would be popped next and resume no one; its docstring states what its
  caller must keep to until it yields.  The
  order and the records match a run that pushes every entry
  (``tests/reference_engine.py``): sequence numbers only break ties
  between entries due at the same time, so an entry never pushed
  shifts no relative order.  A branch may hand off only as its last
  action: the clock must not move while it has work left at the current
  time, such as fire's other waiters
"""

from __future__ import annotations

import heapq
import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Generator, Iterable, Iterator, Optional

MILLI_DUTY = 1000  # duty units contributed by one fully-busy thread
JSON_CHUNK = 2048  # records per piece of ``Trace.json_chunks``


class CausalityError(RuntimeError):
    """Something was scheduled before the current simulation time."""


class DeadlockError(RuntimeError):
    """The event queue drained while non-daemon processes still wait."""

    def __init__(self, actors):
        self.actors = tuple(sorted(actors))
        super().__init__("deadlock: blocked actors: " + ", ".join(self.actors))


@dataclass(slots=True, eq=False)
class Charge:
    """Yield to spend ``cost_ns`` of CPU work.

    On a domain the charge waits for the core's earlier charges, then
    takes ``ceil(cost_ns * stretch)``; with no domain, or at zero cost,
    it takes exactly ``cost_ns`` from now.  One charge may be yielded
    any number of times, by any process: the engine never mutates it
    and stores no per-yield state on it, so a charge that repeats can
    be built once and yielded by reference.  It compares and hashes by
    identity, as ``Process.heads`` keys it.

    Attributes:
        cost_ns: pure work in nanoseconds, before any slowdown
        name:    label recorded in the trace
        args:    optional payload stored, by reference, alongside the
                 record: a flat dict whose keys are str and whose values
                 are JSON scalars (str, int, float, bool or None);
                 ``Trace.to_json`` raises on a nested value.  One payload
                 may be shared by many records, so it must not be
                 mutated once it is yielded
    """

    cost_ns: int
    name: str
    args: Optional[dict] = None


@dataclass(slots=True)
class Sleep:
    """Yield to pause for ``delay_ns`` without occupying a core."""

    delay_ns: int


@dataclass(slots=True)
class WaitFor:
    """Yield to block until ``event`` fires; the yield evaluates to None."""

    event: "Event"


class _Park:
    __slots__ = ()

    def __repr__(self):
        return "PARK"


# Yield to sleep, with no heap entry, until ``Engine.wake``; resumes with None.
PARK = _Park()


class Event:
    """One-shot occurrence processes can wait on.

    ``_waiters`` lists the processes blocked on it until it fires, and
    is None from then on, so a fired event holds no process.
    """

    __slots__ = ("name", "fired", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self.fired = False
        self._waiters: Optional[list["Process"]] = []

    def __repr__(self):
        return f"Event({self.name!r}, {'fired' if self.fired else 'pending'})"


class Process:
    """A named generator coroutine owned by the engine.

    ``parked`` is true while it sits on a ``PARK`` that no ``wake`` has
    answered yet.  ``busy`` sums the ns of the charges it has begun, each
    counted whole when it begins, as its end is fixed then; once the run
    drains, that is the ns of its finished charges.  ``send`` is the
    generator's bound ``send``, taken once.  Under a kept trace,
    ``heads`` maps each charge it has finished to the position of its
    ``(name, charge)`` head in the trace's heads.
    """

    __slots__ = ("name", "gen", "send", "domain", "daemon", "done", "parked", "busy",
                 "heads")

    def __init__(self, name: str, gen: Generator, domain: Optional["Domain"], daemon: bool):
        self.name = name
        self.gen = gen
        self.send = gen.send
        self.domain = domain
        self.daemon = daemon
        self.done = False
        self.parked = False
        self.busy = 0
        self.heads: dict = {}

    def __repr__(self):
        return f"Process({self.name!r}{', done' if self.done else ''})"


class Domain:
    """One core that runs its occupants' charges one at a time, in
    arrival order.

    Registered background threads slow every charge by
    ``max(1, (background_milli + MILLI_DUTY) / (MILLI_DUTY * cores))``,
    kept as the integer ratio ``stretch_num / stretch_den``; ``cores``
    only spreads that background duty.  ``free_at`` is when the last
    charge queued on the core ends.
    """

    __slots__ = ("name", "cores", "background_milli", "stretch_num", "stretch_den",
                 "free_at")

    def __init__(self, name: str, cores: int):
        if cores < 1:
            raise ValueError(f"domain {name!r} needs at least one core")
        self.name = name
        self.cores = cores
        self.background_milli = 0
        self.free_at = 0
        self._set_stretch()

    def _set_stretch(self) -> None:
        total = self.background_milli + MILLI_DUTY
        full = MILLI_DUTY * self.cores
        self.stretch_num, self.stretch_den = (total, full) if total > full else (1, 1)

    def __repr__(self):
        return f"Domain({self.name!r}, cores={self.cores}, free_at={self.free_at})"


class Trace:
    """Everything a finished run left behind.

    Its records are kept as columns: ``heads`` lists each distinct
    ``(actor, charge)`` once, the array ``index`` gives each record's
    head by its position there, and the signed 64-bit array ``times``
    alternates each record's begin and end ns, so a record costs 20
    bytes and no object of its own.  ``records`` reads them back as the
    tuples ``(actor, name, begin_ns, end_ns, args)``, with ``args`` the
    charge's payload or None.  ``Trace(records=...)`` builds the columns
    from such tuples, with one ``Charge`` per distinct name and payload,
    and keeps times that do not fit in 64 bits as a list of ints.
    """

    def __init__(self, records: Iterable[tuple] = (), makespan_ns: int = 0,
                 busy_ns: Optional[dict] = None, *, columns: Optional[tuple] = None):
        self.makespan_ns = makespan_ns
        self.busy_ns = {} if busy_ns is None else busy_ns
        if columns is not None:
            self.heads, self.index, self.times = columns
            return
        # (actor, name, id(args)) -> position in heads, whose charge keeps args alive
        found: dict = {}
        self.heads, self.index, times = [], array("I"), []
        for actor, name, begin, end, args in records:
            i = found.get((actor, name, id(args)))
            if i is None:
                i = found[actor, name, id(args)] = len(self.heads)
                self.heads.append((actor, Charge(0, name, args)))
            self.index.append(i)
            times += begin, end
        try:
            self.times = array("q", times)
        except OverflowError:
            self.times = times

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def json_chunks(self, indent: Optional[int] = None) -> Iterator[str]:
        """The text of ``to_json(indent)`` in pieces of at most
        ``JSON_CHUNK`` records each, so a writer holds one piece at a time.

        Each head is encoded once, with the C string encoder, into an
        ASCII ``bytes`` template: the %-format of its record and the
        separator before it, with ``%d`` for ``begin_ns`` and ``end_ns``.
        A template is two cached parts, the text up to ``begin_ns``'s
        value, built once per ``(actor, name)``, and the text from
        ``args`` on, built once per payload object.  A piece is its
        records' templates joined, filled from that slice of ``times``
        with one ``bytes %`` and decoded once, so no per-record string is
        ever made.  ``bytes %`` finds each ``%`` with ``memchr``, where
        ``str %`` reads its format one character at a time.

        ``json`` itself would fall back to its pure-Python encoder
        whenever ``indent`` is set.  ``indent=None`` and an int share one
        path: they differ only in the item separator and in the line
        break and padding before each nested item.
        """
        def pad(level: int) -> str:
            return "" if indent is None else "\n" + " " * (indent * level)

        comma = ", " if indent is None else ","
        # levels: the top object's keys, records, record fields, args entries
        p0, p1, p2, p3, p4 = (pad(level) for level in range(5))
        field_sep = comma + p3
        args_open, args_sep, args_close = "{" + p4, comma + p4, p3 + "}"
        enc = encode_basestring_ascii
        times_text = ("%d" + field_sep + '"end_ns": %d').encode()
        # (actor, name) -> the template up to begin_ns's value, then both %d
        befores: dict = {}
        # id(args) -> the template from args on; the heads keep each args alive
        afters: dict = {}

        def template(head) -> bytes:
            actor, charge = head
            name, args = charge.name, charge.args
            before = befores.get((actor, name))
            if before is None:
                text = (comma + p2 + "{" + p3 + '"actor": ' + enc(actor) + field_sep
                        + '"name": ' + enc(name) + field_sep + '"begin_ns": ')
                before = befores[actor, name] = text.replace("%", "%%").encode() + times_text
            after = afters.get(id(args))
            if after is None:
                if args:
                    text = args_open + args_sep.join(
                        [enc(k) + ": " + _json_scalar(v) for k, v in args.items()]
                    ) + args_close
                else:
                    text = "{}"
                text = field_sep + '"args": ' + text + p2 + "}"
                after = afters[id(args)] = text.replace("%", "%%").encode()
            return before + after

        templates = [template(head) for head in self.heads]
        index, times = self.index, self.times
        yield "{" + p1 + '"makespan_ns": %d' % self.makespan_ns + comma + p1 + '"records": ['
        for lo in range(0, len(index), JSON_CHUNK):
            hi = lo + JSON_CHUNK
            text = b"".join(map(templates.__getitem__, index[lo:hi])) % tuple(
                times[2 * lo:2 * hi])
            # no separator before the first record
            yield (text[len(comma):] if lo == 0 else text).decode()
        yield (p1 if index else "") + "]" + p0 + "}"

    def to_json(self, indent: Optional[int] = None) -> str:
        """The bytes ``json.dumps({"makespan_ns": ..., "records": [...]},
        indent=indent)`` gives with each record the object ``{"actor",
        "name", "begin_ns", "end_ns", "args"}``, ``args`` ``{}`` for none:
        the pieces of ``json_chunks`` joined once, so at its peak it holds
        the text twice and no string per record."""
        return "".join(self.json_chunks(indent))


class _Records(Sequence):
    """A read-only view of a ``Trace``'s records as ``(actor, name,
    begin_ns, end_ns, args)`` tuples, each built when it is read; equal
    to another view or a list holding the same tuples."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.index)

    def __getitem__(self, index):
        i = range(len(self))[index]  # the IndexError, negative indices and slices of a list
        if isinstance(i, range):
            return [self[j] for j in i]
        trace = self._trace
        actor, charge = trace.heads[trace.index[i]]
        return actor, charge.name, trace.times[2 * i], trace.times[2 * i + 1], charge.args

    def __iter__(self) -> Iterator[tuple]:
        heads = self._trace.heads
        times = iter(self._trace.times)  # zip over it twice reads begin, then end
        for i, begin, end in zip(self._trace.index, times, times):
            actor, charge = heads[i]
            yield actor, charge.name, begin, end, charge.args

    def __eq__(self, other):
        if isinstance(other, (list, _Records)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return repr(list(self))


# kinds of heap entry, each the tuple (when, seq, kind, obj, charge, begin);
# only a _FINISH entry has a charge and a begin, the others None.  An
# untraced run queues no _FINISH: its waiting charges end with a _RESUME
_RESUME = "resume"  # obj: a Process, resumed with None
_FINISH = "finish"  # obj: a Process, charge: its Charge, begin: begin_ns
_FIRE = "fire"      # obj: an Event
_UNPARK = "unpark"  # obj: a Process that Engine.wake roused


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it; only scalars are accepted.
    An exact ``int`` or ``str``, nearly every payload value, is written by
    the function ``json.dumps`` would call; a subclass, such as ``bool``
    or an ``IntEnum``, goes through ``json.dumps`` itself."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if not (value is None or isinstance(value, (str, int, float))):
        raise TypeError(f"trace args value {value!r} is not a JSON scalar "
                        "(str, int, float, bool or None)")
    return json.dumps(value)


class Engine:
    """Event loop: spawn processes, post events, run to quiescence.

    With ``keep_trace`` false the returned ``Trace`` has no records;
    ``busy_ns`` and the makespan are kept either way.  A kept trace
    stores its times in 64 bits, so a traced run must end before 2**63
    ns (292 years); a later record raises ``OverflowError``.
    """

    def __init__(self, keep_trace: bool = True):
        self.keep_trace = keep_trace
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self._procs: list[Process] = []
        self._domains: dict[str, Domain] = {}
        # the columns of the trace it keeps
        self._heads: list = []
        self._index = array("I")
        self._times = array("q")
        # processes that finished a zero-cost charge: each has a busy key
        # even if its busy time is 0
        self._zero_charged: set[Process] = set()

    # -- construction -----------------------------------------------------

    def domain(self, name: str, cores: int) -> Domain:
        if name in self._domains:
            raise ValueError(f"duplicate domain {name!r}")
        dom = Domain(name, cores)
        self._domains[name] = dom
        return dom

    def add_background(self, dom: Domain, name: str, milli_duty: int) -> None:
        """Register an always-on thread (a poller, a progress thread); only
        its duty is kept, and ``name`` appears in no record.  It stretches
        the charges that begin later, so it may not arrive while a charge
        is in flight on ``dom``."""
        if milli_duty < 0:
            raise ValueError("milli_duty must be >= 0")
        if dom.free_at > self.now:
            raise ValueError(f"background {name!r} added to domain {dom.name!r} "
                             f"while a charge runs there until {dom.free_at} ns")
        dom.background_milli += milli_duty
        dom._set_stretch()

    def spawn(self, name: str, gen: Generator, domain: Optional[Domain] = None,
              daemon: bool = False) -> Process:
        proc = Process(name, gen, domain, daemon)
        self._procs.append(proc)
        heapq.heappush(self._heap, (self.now, self._seq, _RESUME, proc, None, None))
        self._seq += 1
        return proc

    def event(self, name: str = "") -> Event:
        return Event(name)

    # -- scheduling -------------------------------------------------------

    def post(self, event: Event, delay_ns: int = 0) -> None:
        """Fire ``event`` after ``delay_ns``."""
        if delay_ns < 0:
            raise CausalityError(f"event {event.name!r} posted {-delay_ns} ns in the past")
        if event.fired:
            raise ValueError(f"event {event.name!r} already fired")
        heapq.heappush(self._heap, (self.now + delay_ns, self._seq, _FIRE, event, None, None))
        self._seq += 1

    def fire(self, event: Event) -> None:
        """Fire ``event`` now, from the running process, as ``post(event,
        0)`` would.  With no waiter and no entry due at or before now,
        that entry would be the next one popped once the caller yields,
        and would resume no one; so the event fires in place instead, with
        no heap entry.

        Contract: until its next yield the caller queues nothing due now,
        does not post ``event`` again, and reads ``event.fired`` only to
        skip yielding ``WaitFor(event)``.  A caller that cannot promise
        this calls ``post``.
        """
        heap = self._heap
        if event._waiters or event.fired or heap and heap[0][0] <= self.now:
            self.post(event, 0)
        else:
            event.fired = True
            event._waiters = None

    def wake(self, proc: Process) -> None:
        """Resume ``proc`` from ``PARK`` at the current time, queued behind
        entries already due then, as ``post(event, 0)`` would for an event
        it alone waits on.  A no-op unless ``proc`` is parked."""
        if proc.parked:
            proc.parked = False
            heapq.heappush(self._heap, (self.now, self._seq, _UNPARK, proc, None, None))
            self._seq += 1

    # -- the loop ---------------------------------------------------------

    def run_until_idle(self) -> Trace:
        """Run entries in (time, seq) order until the heap drains.

        The only place that pops an entry and resumes a process: a popped
        entry picks the process to resume, and the inner loop acts on
        each effect it yields until one must wait on the heap (the
        handoff in the module docstring).

        An effect that must wait queues its entry with ``heapreplace``,
        which returns the head and puts the new entry in its place, in
        one sift instead of a push and the next pop.  It returns the
        entry that push and pop would: the effect waits only if the
        head's time is at or before the new entry's, and the new entry
        holds the newest sequence number, so on a tie too the head comes
        first.  While a process runs, the heap holds what it would after
        that pop, so ``Engine.fire`` and the handoff read the same head.
        A block, a park, a finished generator and a fire that resumes no
        waiter at once queue nothing, and pop the next entry.
        """
        heap = self._heap
        pop, push, replace = heapq.heappop, heapq.heappush, heapq.heapreplace
        index = self._index if self.keep_trace else None
        times = self._times
        head = self._head
        ends = _RESUME if index is None else _FINISH  # a queued charge's end entry
        zero_charged = self._zero_charged
        resume, finish, fire = _RESUME, _FINISH, _FIRE
        now = self.now
        entry = None  # the next entry to run when a swap took it, else None
        while True:
            if entry is None:
                if not heap:
                    break
                entry = pop(heap)
            # charge and begin are a _FINISH entry's, None on the others
            when, _, kind, proc, charge, begin = entry
            if when < now:
                raise CausalityError(f"event at {when} ns behind clock {now} ns")
            self.now = now = when
            if kind is not resume:  # a resume, the commonest, needs nothing first
                if kind is finish:  # charge ends now
                    i = proc.heads.get(charge)
                    index.append(head(proc, charge) if i is None else i)
                    times.append(begin)
                    times.append(now)
                elif kind is fire:  # proc is the Event
                    event = proc
                    if event.fired:
                        raise ValueError(f"event {event.name!r} fired twice")
                    event.fired = True
                    waiters = event._waiters
                    event._waiters = None
                    # with nothing else due now the first waiter's entry would
                    # be popped next, so it resumes here after the others queue
                    direct = bool(waiters) and (not heap or heap[0][0] > now)
                    for proc in waiters[1:] if direct else waiters:
                        push(heap, (now, self._seq, resume, proc, None, None))
                        self._seq += 1
                    if not direct:
                        entry = None
                        continue
                    proc = waiters[0]
                elif heap and heap[0][0] <= now:  # _UNPARK, behind entries due now
                    entry = replace(heap, (now, self._seq, resume, proc, None, None))
                    self._seq += 1
                    continue
            send = proc.send
            try:  # outside the loop: the loop then runs no try per effect
                while True:
                    effect = send(None)
                    cls = type(effect)
                    if cls is Charge:
                        cost = effect.cost_ns
                        dom = proc.domain
                        # its end is fixed once it begins, so its busy time counts then
                        if cost > 0 and dom is not None:
                            # behind the core's earlier charges, ceil(cost * stretch)
                            begin = dom.free_at if dom.free_at > now else now
                            when = begin - (-cost * dom.stretch_num // dom.stretch_den)
                            dom.free_at = when
                            proc.busy += when - begin
                        else:
                            if cost > 0:
                                proc.busy += cost
                            elif cost:
                                raise ValueError(f"{proc.name} charged {cost} ns")
                            else:
                                zero_charged.add(proc)
                            begin = now
                            when = now + cost  # no core to wait for: exactly cost_ns
                        if heap and heap[0][0] <= when:
                            if cost:
                                entry = replace(heap, (when, self._seq, ends, proc, effect,
                                                       begin))
                                self._seq += 1
                                break
                            # zero cost: it ends now, its resume queued behind
                            # the entries due now
                            if index is not None:
                                i = proc.heads.get(effect)
                                index.append(head(proc, effect) if i is None else i)
                                times.append(now)
                                times.append(now)
                            entry = replace(heap, (now, self._seq, resume, proc, None, None))
                            self._seq += 1
                            break
                        # handed off: it ends here
                        if index is not None:
                            i = proc.heads.get(effect)
                            index.append(head(proc, effect) if i is None else i)
                            times.append(begin)
                            times.append(when)
                        self.now = now = when
                    elif cls is WaitFor:
                        event = effect.event
                        if not event.fired:
                            event._waiters.append(proc)
                            entry = None
                            break
                        if heap and heap[0][0] <= now:
                            entry = replace(heap, (now, self._seq, resume, proc, None, None))
                            self._seq += 1
                            break
                    elif effect is PARK:
                        proc.parked = True
                        entry = None
                        break
                    elif cls is Sleep:
                        if effect.delay_ns < 0:
                            raise CausalityError(f"{proc.name} slept for {effect.delay_ns} ns")
                        when = now + effect.delay_ns
                        if heap and heap[0][0] <= when:
                            entry = replace(heap, (when, self._seq, resume, proc, None, None))
                            self._seq += 1
                            break
                        self.now = now = when
                    else:
                        raise TypeError(f"{proc.name} yielded {effect!r}, "
                                        "expected Charge/Sleep/WaitFor/PARK")
            except StopIteration:
                proc.done = True
                entry = None
        blocked = [p.name for p in self._procs if not (p.done or p.daemon)]
        if blocked:
            raise DeadlockError(blocked)
        # one key per actor name with a finished charge, summed over the
        # processes that share the name
        busy: dict[str, int] = {}
        for p in self._procs:
            if p.busy or p in zero_charged:
                busy[p.name] = busy.get(p.name, 0) + p.busy
        return Trace(makespan_ns=self.now, busy_ns=busy,
                     columns=(self._heads, self._index, self._times))

    def _head(self, proc: Process, charge: Charge) -> int:
        """Add ``(proc.name, charge)`` to the trace's heads, on its first
        record, and return its position there."""
        i = proc.heads[charge] = len(self._heads)
        self._heads.append((proc.name, charge))
        return i

    def close(self) -> None:
        """Close every unfinished process's generator.  A parked daemon's
        frame holds its owner, which holds this engine, so until then a
        finished or deadlocked run is a reference cycle."""
        for proc in self._procs:
            if not proc.done:
                proc.gen.close()
