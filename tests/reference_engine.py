"""A plain engine that queues every entry on its heap, as a test oracle.

``mdgpusim.engine.Engine`` completes an effect without a heap round trip
when the entry it would push is the next one it would pop (the handoff
in its module docstring).  This engine has no such path.  Every charge
end, sleep, zero-cost charge, fired waiter and wake is pushed, and a
process resumes only when one of its own entries is popped.  It offers
the surface that ``pipeline`` and ``runtime`` use, so a test can put it
in place of ``Engine`` and require byte-equal results.

It reuses the engine's effect, ``Event``, ``Process``, ``Domain`` and
``Trace`` types, so the two engines differ in scheduling alone.
"""

from __future__ import annotations

import heapq

from mdgpusim.engine import (
    PARK,
    CausalityError,
    Charge,
    DeadlockError,
    Domain,
    Event,
    Process,
    Sleep,
    Trace,
    WaitFor,
)


class ReferenceEngine:
    def __init__(self, keep_trace: bool = True):
        self.keep_trace = keep_trace
        self.now = 0
        self._heap = []
        self._seq = 0
        self._procs = []
        self._domains = {}
        self._records = []
        self._busy = {}

    def domain(self, name, cores):
        if name in self._domains:
            raise ValueError(f"duplicate domain {name!r}")
        dom = self._domains[name] = Domain(name, cores)
        return dom

    def add_background(self, dom, name, milli_duty):
        if milli_duty < 0:
            raise ValueError("milli_duty must be >= 0")
        if dom.free_at > self.now:
            raise ValueError(f"background {name!r} added to domain {dom.name!r} "
                             f"while a charge runs there until {dom.free_at} ns")
        dom.background_milli += milli_duty
        dom._set_stretch()

    def spawn(self, name, gen, domain=None, daemon=False):
        proc = Process(name, gen, domain, daemon)
        self._procs.append(proc)
        self._push(self.now, self._resume, proc)
        return proc

    def event(self, name=""):
        return Event(name)

    def close(self):
        for proc in self._procs:
            if not proc.done:
                proc.gen.close()

    def post(self, event, delay_ns=0):
        if delay_ns < 0:
            raise CausalityError(f"event {event.name!r} posted {-delay_ns} ns in the past")
        if event.fired:
            raise ValueError(f"event {event.name!r} already fired")
        self._push(self.now + delay_ns, self._fire, event)

    def fire(self, event):
        self.post(event, 0)

    def wake(self, proc):
        if proc.parked:
            proc.parked = False
            self._push(self.now, self._unpark, proc)

    def _push(self, when, action, *args):
        if when < self.now:
            raise CausalityError(f"schedule at {when} ns but clock is at {self.now} ns")
        heapq.heappush(self._heap, (when, self._seq, action, args))
        self._seq += 1

    def run_until_idle(self):
        while self._heap:
            self.now, _, action, args = heapq.heappop(self._heap)
            action(*args)
        blocked = [p.name for p in self._procs if not (p.done or p.daemon)]
        if blocked:
            raise DeadlockError(blocked)
        return Trace(records=self._records, makespan_ns=self.now, busy_ns=self._busy)

    def _fire(self, event):
        if event.fired:
            raise ValueError(f"event {event.name!r} fired twice")
        event.fired = True
        waiters, event._waiters = event._waiters, None
        for proc in waiters:
            self._push(self.now, self._resume, proc)

    def _unpark(self, proc):
        # as a fired event with ``proc`` its lone waiter
        self._push(self.now, self._resume, proc)

    def _record(self, proc, charge, begin):
        if self.keep_trace:
            self._records.append((proc.name, charge.name, begin, self.now, charge.args))
        self._busy[proc.name] = self._busy.get(proc.name, 0) + self.now - begin

    def _finish(self, proc, charge, begin):
        self._record(proc, charge, begin)
        self._resume(proc)

    def _resume(self, proc):
        try:
            effect = proc.gen.send(None)
        except StopIteration:
            proc.done = True
            return
        now = self.now
        if isinstance(effect, Charge):
            cost, dom = effect.cost_ns, proc.domain
            if cost < 0:
                raise ValueError(f"{proc.name} charged {cost} ns")
            if cost == 0:
                self._record(proc, effect, now)
                self._push(now, self._resume, proc)
            elif dom is None:
                self._push(now + cost, self._finish, proc, effect, now)
            else:
                begin = max(dom.free_at, now)
                dom.free_at = begin + -(-cost * dom.stretch_num // dom.stretch_den)
                self._push(dom.free_at, self._finish, proc, effect, begin)
        elif isinstance(effect, WaitFor):
            if effect.event.fired:
                self._push(now, self._resume, proc)
            else:
                effect.event._waiters.append(proc)
        elif effect is PARK:
            proc.parked = True
        elif isinstance(effect, Sleep):
            if effect.delay_ns < 0:
                raise CausalityError(f"{proc.name} slept for {effect.delay_ns} ns")
            self._push(now + effect.delay_ns, self._resume, proc)
        else:
            raise TypeError(f"{proc.name} yielded {effect!r}, "
                            "expected Charge/Sleep/WaitFor/PARK")
