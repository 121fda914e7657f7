"""MD step execution over the runtime model.

A run is organised in eras of ``nstlist`` steps: pair search happens at
era start, host synchronization happens at era boundaries (plus
whenever halo or long-range exchanges force one mid-step), and the
first era is warm-up that measurement discards.

Every rank layout runs one step program, that of a short-range rank.
The step programs only send and receive, on per-step transfer tasks
handed to them: each wire carries one ``DevTask`` per step and
direction, which is also the event its receiver waits on.  ``simulate``
alone builds those tasks and chooses the layout: a periodic block of
short-range ranks, simulated for real, stands for the whole grid.
Each block rank sits where a grid rank does, prices each halo link by
that rank's link to its +1 neighbour, and receives what its -1
neighbour in the block sends.  Every scenario runs the block of one
rank, the mirror, which receives each halo on the events it sends on
(by the symmetry of a homogeneous decomposition, a peer's slab lands
when ours does), so a 4096-rank step costs about as many events as a
2-rank one.
Mesh systems on two or more ranks add one real long-range rank that
waits on every block rank's sends as if the other peers' came over
parallel links, runs the spread/FFT/solve/FFT/gather chain at full
system size, and returns forces on one wire.
``test_mirror_equals_ranks_wired_for_real`` (``tests/test_pipeline.py``)
checks every block that tiles the grid against the mirror.  Each link,
halo or long-range, is a FIFO ``Slot`` of its own, the class that
serves the device queues: transfers queued on it serialize.

``simulate`` wires a run in one pass, spawning slots, workers and step
programs in a fixed order (heap ties break by it, so it shows in the
output): each block rank's device, streams and halo wires, in rank
order; then the long-range rank, its wires and step program; then the
short-range step programs, in rank order.  It closes the engine however
the run ends.

One rank is the same program with nothing to exchange: its
decomposition splits no dimension, so there is no halo, and a mesh
system runs the long-range chain inline on the local queue, between
the short-range and the listed forces, with the grid clear after
constraints.  That is eleven kernels per step on one stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .comm import FORCE_BYTES_PER_ATOM, XYZ_BYTES_PER_ATOM, default_comm_model, slab_atoms
from .config import is_int
from .costs import KernelKind, default_api_model, default_cost_table
from .engine import Charge, Engine, Event, WaitFor
from .presets import SystemPreset
from .runtime import DevTask, Device, RankRuntime, RunSettings, RuntimeProfile, Slot, Work
from .topology import GCDS, link_class


def balanced_dims(n: int) -> Tuple[int, int, int]:
    """Factor a rank count into a near-cubic decomposition grid."""
    if n < 1:
        raise ValueError("need at least one rank")
    best = (n, 1, 1)
    for dz in range(1, int(round(n ** (1 / 3))) + 1):
        if n % dz:
            continue
        rest = n // dz
        for dy in range(dz, int(rest ** 0.5) + 1):
            if rest % dy:
                continue
            dx = rest // dy
            if dx >= dy:
                best_spread = max(best) - min(best)
                cand_spread = dx - dz
                if cand_spread < best_spread:
                    best = (dx, dy, dz)
    return best


@dataclass
class RunPlan:
    """Everything a simulated run was configured with."""

    system: SystemPreset
    profile: RuntimeProfile
    settings: RunSettings
    backend: str = "sycl"
    ranks: int = 1
    n_eras: int = 3

    def validate(self) -> "RunPlan":
        """Reject a rank count, era count, device count or backend no run
        can use, naming the field."""
        if not (is_int(self.ranks) and self.ranks >= 1):
            raise ValueError(f"ranks must be an integer >= 1, got {self.ranks!r}")
        if self.settings.visible_devices > GCDS:
            raise ValueError(f"visible_devices must be at most the {GCDS} devices "
                             f"of a node, got {self.settings.visible_devices}")
        if not (is_int(self.n_eras) and self.n_eras >= 2):
            raise ValueError("n_eras must be an integer >= 2 (the first era is "
                             f"warm-up), got {self.n_eras!r}")
        backends = default_cost_table().backends
        if self.backend not in backends:
            raise ValueError(f"backend must be one of {', '.join(backends)}, "
                             f"got {self.backend!r}")
        return self

    @property
    def pme_ranks(self) -> int:
        return 1 if (self.system.pme and self.ranks >= 2) else 0

    @property
    def pp_ranks(self) -> int:
        return self.ranks - self.pme_ranks

    @property
    def nodes_used(self) -> int:
        return (self.ranks + GCDS - 1) // GCDS


@dataclass
class RunReport:
    plan: RunPlan
    steps_measured: int
    # one entry per short-range rank simulated for real
    rank_ms_per_step: List[float]
    makespan_ns: int
    era_marks: List[int]
    # each simulated rank's own list of launch delays, held by reference
    launch_delays: List[List[int]]
    busy_ns: Dict[str, int]
    # the mean busy share of the run's device queues and app threads
    gpu_utilization: float = 0.0
    app_utilization: float = 0.0
    trace: object = None

    @property
    def ms_per_step(self) -> float:
        """The slowest rank's."""
        return max(self.rank_ms_per_step)

    @property
    def ns_per_day(self) -> float:
        if self.ms_per_step == 0:
            return float("inf")
        return 86.4 * DT_FS / self.ms_per_step

    @property
    def max_launch_delay_ns(self) -> int:
        return max((max(delays) for delays in self.launch_delays if delays), default=0)


def _utilization(trace, actors) -> float:
    """The mean busy share of the ``actors`` that finished some charge."""
    busy, span = trace.busy_ns, trace.makespan_ns
    used = [busy[actor] for actor in actors if actor in busy]
    return sum(used) / (span * len(used)) if used and span > 0 else 0.0


# the long-range chain, in queue order, at full system size
_PME_CHAIN = (("pme_spread", KernelKind.PME_SPREAD),
              ("fft_3d_forward", KernelKind.FFT_3D_FORWARD),
              ("pme_solve", KernelKind.PME_SOLVE),
              ("fft_3d_inverse", KernelKind.FFT_3D_INVERSE),
              ("pme_gather", KernelKind.PME_GATHER))


def _build_rank(engine, plan, api, name):
    """A rank's device and runtime, the device built first."""
    return (Device(engine, f"{name}.gcd", plan.profile, plan.settings),
            RankRuntime(engine, name, plan.profile, plan.settings, api))


def _link(plan, comm, a, b, atoms, x_name, f_name):
    """The link between ranks ``a`` and ``b`` as one ``Work`` per direction,
    each transfer carrying ``atoms`` atoms' coordinates or forces."""
    link = link_class(a % GCDS, b % GCDS, same_node=a // GCDS == b // GCDS)
    return (Work(Charge(comm.transfer_ns(link, atoms * XYZ_BYTES_PER_ATOM), x_name)),
            Work(Charge(comm.transfer_ns(link, atoms * FORCE_BYTES_PER_ATOM), f_name)))


def shifted(rank, stride, size, by):
    """The rank ``by`` places along the dimension of ``stride`` and
    ``size``, periodic."""
    coord = (rank // stride) % size
    return rank + ((coord + by) % size - coord) * stride


def simulate(plan: RunPlan, keep_trace: bool = False, *,
             block: Tuple[int, int, int] = (1, 1, 1)) -> RunReport:
    """Wire ``plan``'s ranks in one pass, run them, close the engine
    however the run ends, and report steady-state per-step timing.

    ``block`` gives the extent of the periodic block of short-range
    ranks simulated for real along each dimension of
    ``balanced_dims(plan.pp_ranks)``; each extent divides its dimension.
    The default block of one rank is the mirror.  The engine keeps no
    trace unless ``keep_trace`` asks for one."""
    plan.validate()
    sys_ = plan.system.validate()
    pp_ranks = plan.pp_ranks
    dims = balanced_dims(pp_ranks)
    if len(block) != 3 or not all(is_int(b) and b >= 1 and d % b == 0
                                  for b, d in zip(block, dims)):
        raise ValueError(f"block must give one extent dividing each of {dims}, "
                         f"got {block!r}")
    costs = default_cost_table()
    comm = default_comm_model()
    api = default_api_model(seed=plan.settings.seed)
    total_steps = plan.n_eras * sys_.nstlist

    def kcost(kind: KernelKind, atoms: int) -> int:
        return costs.duration_ns(kind, atoms, plan.backend, sys_.scale_for(kind))

    atoms_pp = max(1, sys_.atoms // pp_ranks)
    slab = slab_atoms(atoms_pp, sys_.cutoff_nm, DENSITY_PER_NM3)
    # (stride, extent) in the grid and in the block, per split dimension
    split, stride, bstride = [], 1, 1
    for d, b in zip(dims, block):
        if d > 1:
            split.append((stride, d, bstride, b))
        stride, bstride = stride * d, bstride * b
    # one halo pulse per split dimension, so the nonlocal pair work sees
    # the received one-sided shell, never more than the home domain
    nonlocal_atoms = min(atoms_pp, slab * len(split))
    # block rank k sits at the grid coordinates of global rank home[k];
    # bstride is now the block's rank count
    home = [sum((k // bs) % b * s for s, _, bs, b in split)
            for k in range(bstride)]
    prefixes = [""] + [f"pp{k}." for k in range(1, len(home))]
    # per block rank and split dimension, the rank's (x, f) link to its
    # +1 neighbour in the grid, and the transfer tasks each halo direction
    # sends on it, one per step
    links = [[_link(plan, comm, rank, shifted(rank, s, d, 1), slab,
                    "halo_transfer", "halo_transfer") for s, d, _, _ in split]
             for rank in home]
    sent_x = [[[DevTask(x, name=f"{pre}halo_x.{s}.{i}") for s in range(total_steps)]
               for i, (x, _) in enumerate(rank_links)]
              for pre, rank_links in zip(prefixes, links)]
    sent_f = [[[DevTask(f, name=f"{pre}halo_f.{s}.{i}") for s in range(total_steps)]
               for i, (_, f) in enumerate(rank_links)]
              for pre, rank_links in zip(prefixes, links)]
    era_marks: List[List[int]] = [[] for _ in home]

    engine = Engine(keep_trace=keep_trace)
    try:
        # a lone rank is rank0 with queue q0 in traces, as saved ones expect
        single = plan.ranks == 1
        pps, devices, queues, halo_x, halo_f = [], [], [], [], []
        for k, pre in enumerate(prefixes):
            device, rt = _build_rank(engine, plan, api, "rank0" if single else f"pp{k}")
            pps.append(rt)
            devices.append(device)
            queues.append((device.new_stream("q0" if single else "q_loc"),
                           device.new_stream("q_nl") if split else None))
            # (wire, sent, received, pack, unpack) per split dimension:
            # the rank sends to its +1 neighbour in the grid, and receives
            # what its -1 neighbour in the block sends (with one rank, what
            # it sends itself); pack and unpack name the kernels around it
            halo_x.append([])
            halo_f.append([])
            for i, (_, _, bs, b) in enumerate(split):
                wire = Slot(engine, f"{pre}halo{i}.wire")
                down = shifted(k, bs, b, -1)
                halo_x[k].append((wire, sent_x[k][i], sent_x[down][i],
                                  f"halo_pack_x{i}", f"halo_unpack_x{i}"))
                halo_f[k].append((wire, sent_f[k][i], sent_f[down][i],
                                  f"halo_pack_f{i}", f"halo_unpack_f{i}"))

        pme_links = [None] * len(home)
        ranks = list(pps)
        if plan.pme_ranks:
            pme_device, pme = _build_rank(engine, plan, api, "pme0")
            ranks.append(pme)
            devices.append(pme_device)
            q_pme = pme_device.new_stream("q_pme")
            x_wires = [Slot(engine, f"{pre}pme-x.wire") for pre in prefixes]
            f_wire = Slot(engine, "pme-f.wire")
            # with comm overlap the chain hides all but one peer's transfer;
            # without it the long-range rank stages serially the transfers
            # of every peer a block rank stands for
            share = 1 if plan.profile.pme_comm_overlap else pp_ranks // len(home)
            pme_work = [_link(plan, comm, rank, plan.ranks - 1, atoms_pp * share,
                              "x_transfer", "f_transfer") for rank in home]
            x_ready = [[DevTask(x, name=f"{pre}x_ready.{s}") for s in range(total_steps)]
                       for pre, (x, _) in zip(prefixes, pme_work)]
            # the forces go back on one wire, priced by rank 0's link
            f_ready = [DevTask(pme_work[0][1], name=f"f_ready.{s}")
                       for s in range(total_steps)]
            pme_links = [(x_wires[k], x_ready[k], f_ready) for k in range(len(home))]
            engine.spawn(pme.app_actor,
                         _pme_rank_app(plan, pme, q_pme, kcost, f_wire, x_ready,
                                       f_ready, total_steps, pp_ranks),
                         domain=pme.app_domain)

        for k, rt in enumerate(pps):
            engine.spawn(rt.app_actor,
                         _pp_rank_app(engine, plan, rt, *queues[k], kcost,
                                      atoms_pp, slab, nonlocal_atoms, halo_x[k], halo_f[k],
                                      pme_links[k], total_steps, era_marks[k]),
                         domain=rt.app_domain)
        trace = engine.run_until_idle()
    finally:
        engine.close()

    steps = (len(era_marks[0]) - 1) * sys_.nstlist
    rank_ms = [(marks[-1] - marks[0]) / steps / 1e6 for marks in era_marks]
    slowest = rank_ms.index(max(rank_ms))
    slots = [slot.name for device in devices for slot in device.slots]
    return RunReport(plan=plan, steps_measured=steps, rank_ms_per_step=rank_ms,
                     makespan_ns=trace.makespan_ns, era_marks=era_marks[slowest],
                     launch_delays=[rt.launch_delays for rt in ranks],
                     busy_ns=trace.busy_ns, trace=trace if keep_trace else None,
                     gpu_utilization=_utilization(trace, slots),
                     app_utilization=_utilization(trace, [rt.app_actor for rt in ranks]))


# the application thread's own work per step, the same under every runtime
STEP_CPU_NS = 35000
# the same for every system: the time step, the water density that sizes
# halo slabs, the steps between prunes and the host search cost per atom
DT_FS = 2.0
DENSITY_PER_NM3 = 100.0
PRUNE_EVERY = 10
SEARCH_CPU_NS_PER_ATOM = 16.0


def _pp_rank_app(engine, plan, rt, q_loc, q_nl, kcost, atoms, slab,
                 nonlocal_atoms, halo_x, halo_f, pme_link, total_steps, era_marks):
    """Step program of one short-range rank, the one every layout runs.

    ``atoms`` is the home domain; ``halo_x`` and ``halo_f`` hold one
    ``(wire, sent, received, pack, unpack)`` per split dimension, and
    ``pme_link`` the long-range peer's ``(x_wire, x_sent, f_ready)``;
    ``sent``, ``received``, ``x_sent`` and ``f_ready`` hold one transfer
    task per step, which fires when it lands.  A mesh system without such
    a peer runs the long-range chain inline on ``q_loc``.
    """
    sys_ = plan.system
    mpi_cpu = plan.profile.mpi_msg_cpu_ns
    send_x, recv_f = Charge(mpi_cpu, "mpi_send_x"), Charge(mpi_cpu, "mpi_recv_f")
    mpi_halo_x = Charge(2 * mpi_cpu, "mpi_halo_x")
    mpi_halo_f = Charge(2 * mpi_cpu, "mpi_halo_f")
    search_cpu = Charge(round(SEARCH_CPU_NS_PER_ATOM * atoms), "pair_search_cpu")
    inline_pme = sys_.pme and pme_link is None
    if pme_link is not None:
        x_wire, x_sent, f_ready = pme_link
    # every duration the steps submit, each priced only if some step uses it
    search_ns = kcost(KernelKind.PAIR_SEARCH, atoms)
    local_ns = kcost(KernelKind.NBNXM_LOCAL, atoms)
    # some step prunes iff PRUNE_EVERY itself does: a step below
    # total_steps that nstlist does not divide (if nstlist divides
    # PRUNE_EVERY, it divides every multiple of it)
    if PRUNE_EVERY % sys_.nstlist and PRUNE_EVERY < total_steps:
        prune_ns = kcost(KernelKind.PRUNE_ONLY, atoms)
        sort_ns = round(0.3 * prune_ns)
    chain = [(name, kcost(kind, atoms)) for name, kind in _PME_CHAIN] if inline_pme else []
    listed_ns = kcost(KernelKind.LISTED_FORCES, atoms)
    if halo_x:
        halo_ns = kcost(KernelKind.HALO_PACK_UNPACK, slab)
        nonlocal_ns = kcost(KernelKind.NBNXM_NONLOCAL, nonlocal_atoms)
    else:
        halo_ns = None
    reduce_ns = kcost(KernelKind.REDUCE_FORCES, atoms)
    leap_ns = kcost(KernelKind.LEAP_FROG, atoms)
    constraints_ns = kcost(KernelKind.CONSTRAINTS, atoms)
    if inline_pme:
        memset_ns = kcost(KernelKind.GRID_MEMSET, atoms)
    pending: List[Event] = []
    prev_constraints: Optional[Event] = None
    for step in range(total_steps):
        search = step % sys_.nstlist == 0
        prune = (not search) and step % PRUNE_EVERY == 0
        yield Charge(STEP_CPU_NS, "step_cpu", {"step": step})
        if search:
            yield search_cpu
            ev = yield from rt.submit(q_loc, "pair_search", search_ns)
            pending.append(ev)

        if pme_link is not None:
            # coordinates must be on the host before the MPI send, so
            # this is a runtime sync point (it flushes a deferred graph)
            yield from rt.sync([prev_constraints] if prev_constraints else [])
            yield send_x
            x_wire.enqueue(x_sent[step])

        # local-only force work goes out first; it needs no remote
        # coordinates and its stream crunches while the halo is on
        # the wire
        ev = yield from rt.submit(q_loc, "nbnxm_local", local_ns)
        pending.append(ev)
        if prune:
            ev = yield from rt.submit(q_loc, "prune_only", prune_ns)
            pending.append(ev)
            if plan.backend == "hip":
                ev = yield from rt.submit(q_loc, "prune_sort", sort_ns)
                pending.append(ev)
        for name, ns in chain:
            ev = yield from rt.submit(q_loc, name, ns)
            pending.append(ev)
        ev = yield from rt.submit(q_loc, "listed_forces", listed_ns)
        pending.append(ev)

        unpacks = yield from _halo_exchange(
            rt, q_nl, halo_ns, halo_x, mpi_halo_x, step,
            (prev_constraints,) if prev_constraints else ())
        reduce_deps = []
        if halo_x:
            ev = yield from rt.submit(q_nl, "nbnxm_nonlocal", nonlocal_ns, deps=unpacks)
            pending.append(ev)
            reduce_deps.append(ev)
        if pme_link is not None:
            # MPI receive of the long-range forces blocks the host; a
            # deferred runtime sits on its unflushed graph meanwhile
            yield recv_f
            yield WaitFor(f_ready[step])
        ev_red = yield from rt.submit(q_loc, "reduce_forces", reduce_ns, deps=reduce_deps)
        pending.append(ev_red)

        # force halo back out, then integrate
        leap_deps = yield from _halo_exchange(
            rt, q_nl, halo_ns, halo_f, mpi_halo_f, step, (ev_red,))
        ev = yield from rt.submit(q_loc, "leap_frog", leap_ns, deps=leap_deps)
        pending.append(ev)
        ev = yield from rt.submit(q_loc, "constraints", constraints_ns)
        pending.append(ev)
        prev_constraints = ev
        if inline_pme:
            ev = yield from rt.submit(q_loc, "grid_memset", memset_ns)
            pending.append(ev)

        if step % sys_.nstlist == sys_.nstlist - 1:
            yield from rt.sync(pending)
            pending = []
            era_marks.append(engine.now)


def _halo_exchange(rt, q_nl, halo_ns, halo, mpi, step, pack_deps):
    """One coordinate or force halo pulse per split dimension over the
    ``(wire, sent, received, pack, unpack)`` of ``halo``, packed by the
    kernel ``pack`` and unpacked by ``unpack``, each in ``halo_ns``, the
    transfer ``sent[step]`` queued on ``wire`` after the MPI charge
    ``mpi`` and unpacked once ``received[step]`` fires; returns the
    unpack tasks."""
    unpacks = []
    for wire, sent, received, pack_name, unpack_name in halo:
        pack = yield from rt.submit(q_nl, pack_name, halo_ns, deps=pack_deps)
        yield from rt.sync((pack,))
        yield mpi
        wire.enqueue(sent[step])
        # the matching receive blocks on the host
        yield WaitFor(received[step])
        unpack = yield from rt.submit(q_nl, unpack_name, halo_ns)
        unpacks.append(unpack)
    return unpacks


def _pme_rank_app(plan, rt, q_pme, kcost, f_wire, senders, f_ready,
                  total_steps, pp_ranks):
    """Step program of the long-range rank: each step waits on every
    per-step task list of ``senders`` and returns forces by queueing
    ``f_ready``'s task on ``f_wire``."""
    sys_ = plan.system
    mpi_cpu = plan.profile.mpi_msg_cpu_ns
    msgs = {"msgs": pp_ranks}
    # one receive per short-range peer; links run in parallel but the
    # progress engine works through them one message at a time
    recv_x = Charge(pp_ranks * mpi_cpu, "mpi_recv_x", msgs)
    send_f = Charge(pp_ranks * mpi_cpu, "mpi_send_f", msgs)
    chain = [(name, kcost(kind, sys_.atoms)) for name, kind in _PME_CHAIN]
    memset_ns = kcost(KernelKind.GRID_MEMSET, sys_.atoms)
    for step in range(total_steps):
        for sent in senders:
            yield WaitFor(sent[step])
        yield recv_x
        evs = []
        for name, ns in chain:
            ev = yield from rt.submit(q_pme, name, ns)
            evs.append(ev)
        yield from rt.sync(evs)
        yield send_f
        f_wire.enqueue(f_ready[step])
        # grid clearing is next-step preparation; it rides the in-order
        # queue behind this step's chain and off the force-return path
        yield from rt.submit(q_pme, "grid_memset", memset_ns)
