"""Kernel and host-API cost models.

Device-side work is priced by an affine law per kernel kind,

    duration(atoms) = multiplier(backend, kind) * (floor_ns + slope * atoms)

rounded half-up to whole nanoseconds.  The floor captures launch-grid
and bandwidth-bound fixed parts; the slope is the asymptotic per-atom
cost, so cost/atom flattens out once ``slope * atoms`` dwarfs the floor.

Host API calls (launches, event records, stream waits, ...) are priced
by a two-point distribution: a common value with probability
``1 - TAIL_PROB`` and a tail value with probability ``TAIL_PROB``,
parameterised by its mean so the expected cost is what the law states.
Draws come from a counter
hash keyed on (seed, actor, kind, index), never from a sequential RNG:
two runs that issue the same Nth launch from the same actor see the
same latency even when one of them records extra events in between.
Being pure, each (actor, kind) stream is hashed in immutable blocks of
``_BLOCK`` consecutive indices, one loop per block.  A model keeps each
block it hashes while it has room for a whole one (up to a fixed count
of draws in all), and ``default_api_model`` shares one model per seed,
so a run reads the blocks an earlier run with its seed already hashed.
A sampler reads each stream as its blocks chained end to end by C
iterators, so a draw runs no bytecode of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, count, repeat
from types import MappingProxyType
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple


class KernelKind(Enum):
    # members are singletons compared by identity, so the C identity hash
    # is sound and spares each dict or set lookup a Python-level call
    __hash__ = object.__hash__

    NBNXM_LOCAL = "nbnxm_local"
    NBNXM_NONLOCAL = "nbnxm_nonlocal"
    PRUNE_ONLY = "prune_only"
    PAIR_SEARCH = "pair_search"
    PME_SPREAD = "pme_spread"
    PME_GATHER = "pme_gather"
    PME_SOLVE = "pme_solve"
    FFT_3D_FORWARD = "fft_3d_forward"
    FFT_3D_INVERSE = "fft_3d_inverse"
    LISTED_FORCES = "listed_forces"
    LEAP_FROG = "leap_frog"
    CONSTRAINTS = "constraints"
    REDUCE_FORCES = "reduce_forces"
    GRID_MEMSET = "grid_memset"
    HALO_PACK_UNPACK = "halo_pack_unpack"


class ApiKind(Enum):
    __hash__ = object.__hash__  # as for KernelKind

    KERNEL_LAUNCH = "kernel_launch"
    EVENT_RECORD = "event_record"
    EVENT_CREATE_DESTROY = "event_create_destroy"
    STREAM_WAIT_EVENT = "stream_wait_event"
    MEMCPY_ASYNC = "memcpy_async"
    HOST_SYNC_POLL = "host_sync_poll"


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class Table(dict):
    """A dict whose ``table[key]`` is ``build(key)``, stored when first asked
    for.  ``build`` must not hold the table's owner, or the two form a cycle."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@dataclass
class KernelCost:
    """Affine device cost for one kernel kind.

    Attributes:
        floor_ns:          fixed cost at zero atoms
        slope_ns_per_atom: asymptotic per-atom cost
    """

    floor_ns: float
    slope_ns_per_atom: float

    def at(self, atoms: int) -> float:
        return self.floor_ns + self.slope_ns_per_atom * atoms


def fit_affine(points: Sequence[Tuple[int, float]]) -> KernelCost:
    """The affine law through two (atoms, duration_ns) samples."""
    (x1, y1), (x2, y2) = points
    slope = (y2 - y1) / (x2 - x1)
    return KernelCost(floor_ns=y1 - slope * x1, slope_ns_per_atom=slope)


class CostTable:
    """Per-kind affine costs plus per-backend multipliers.

    The base table is the reference backend; other backends reuse the
    same affine shape scaled by a per-kind factor.
    """

    def __init__(self, base: Dict[KernelKind, KernelCost],
                 multipliers: Dict[str, Dict[KernelKind, float]]):
        missing = [k for k in KernelKind if k not in base]
        if missing:
            raise ValueError(f"base table missing kinds: {[k.value for k in missing]}")
        self.base = dict(base)
        self.multipliers = {name: dict(table) for name, table in multipliers.items()}

    @property
    def backends(self) -> Tuple[str, ...]:
        """Every backend the table prices, the reference one first."""
        return ("sycl", *self.multipliers)

    def multiplier(self, backend: str, kind: KernelKind) -> float:
        if backend == "sycl":
            return 1.0
        try:
            table = self.multipliers[backend]
        except KeyError:
            raise KeyError(f"unknown backend {backend!r}") from None
        return table.get(kind, 1.0)

    def duration_ns(self, kind: KernelKind, atoms: int, backend: str = "sycl",
                    scale: float = 1.0) -> int:
        cost = self.base[kind].at(atoms) * self.multiplier(backend, kind) * scale
        return round_half_up(cost)


# Measured anchors for the short-range nonbonded kernel on the native
# backend: 19.2 us at 1.5k atoms, 20 ms at 6.144 M atoms.
NBNXM_ANCHORS = ((1500, 19200.0), (6144000, 20000000.0))

# Reference-to-native ratio for the nonbonded kernel.  The base table is
# the portable backend, so the native backend divides this back out and
# reproduces the anchors above exactly.
NBNXM_BACKEND_RATIO = 1.22


def default_cost_table() -> CostTable:
    fit = fit_affine(NBNXM_ANCHORS)
    nbnxm = KernelCost(fit.floor_ns * NBNXM_BACKEND_RATIO,
                       fit.slope_ns_per_atom * NBNXM_BACKEND_RATIO)
    base = {
        KernelKind.NBNXM_LOCAL: nbnxm,
        KernelKind.NBNXM_NONLOCAL: KernelCost(nbnxm.floor_ns, nbnxm.slope_ns_per_atom),
        KernelKind.PRUNE_ONLY: KernelCost(8000.0, 1.1),
        KernelKind.PAIR_SEARCH: KernelCost(30000.0, 2.0),
        KernelKind.PME_SPREAD: KernelCost(6000.0, 0.22),
        KernelKind.PME_GATHER: KernelCost(6500.0, 0.24),
        KernelKind.PME_SOLVE: KernelCost(5000.0, 0.10),
        KernelKind.FFT_3D_FORWARD: KernelCost(6000.0, 0.16),
        KernelKind.FFT_3D_INVERSE: KernelCost(6000.0, 0.16),
        KernelKind.LISTED_FORCES: KernelCost(4000.0, 0.05),
        KernelKind.LEAP_FROG: KernelCost(2500.0, 0.12),
        KernelKind.CONSTRAINTS: KernelCost(3500.0, 0.2),
        KernelKind.REDUCE_FORCES: KernelCost(2000.0, 0.15),
        KernelKind.GRID_MEMSET: KernelCost(1500.0, 0.04),
        KernelKind.HALO_PACK_UNPACK: KernelCost(3000.0, 0.5),
    }
    # the native backend's edge is not uniform: the pair kernel ratio is
    # anchored by its measured walltimes, mesh/FFT kernels gain the most,
    # pruning is the one place the native fork is slower
    hip = {
        KernelKind.NBNXM_LOCAL: 1.0 / NBNXM_BACKEND_RATIO,
        KernelKind.NBNXM_NONLOCAL: 1.0 / NBNXM_BACKEND_RATIO,
        KernelKind.PRUNE_ONLY: 1.10,
        KernelKind.PAIR_SEARCH: 0.95,
        KernelKind.PME_SPREAD: 0.80,
        KernelKind.PME_GATHER: 0.80,
        KernelKind.PME_SOLVE: 0.80,
        KernelKind.FFT_3D_FORWARD: 0.80,
        KernelKind.FFT_3D_INVERSE: 0.80,
        KernelKind.LISTED_FORCES: 0.90,
        KernelKind.LEAP_FROG: 0.85,
        KernelKind.CONSTRAINTS: 0.85,
        KernelKind.REDUCE_FORCES: 0.85,
        KernelKind.GRID_MEMSET: 0.80,
        KernelKind.HALO_PACK_UNPACK: 0.95,
    }
    return CostTable(base, {"hip": hip})


# -- host API latency ------------------------------------------------------


# the chance that a host API call of any kind takes its tail value
TAIL_PROB = 0.02


@dataclass
class TwoPointLatency:
    """Latency with a rare tail: common value most of the time, ``tail_ns``
    with probability ``TAIL_PROB``, parameterised so the mean is
    ``mean_ns``.  A tail equal to the mean makes every draw the mean."""

    mean_ns: float
    tail_ns: float

    def __post_init__(self):
        if self.tail_ns < self.mean_ns:
            raise ValueError("tail must not undercut the mean")

    @property
    def common_ns(self) -> float:
        return (self.mean_ns - TAIL_PROB * self.tail_ns) / (1.0 - TAIL_PROB)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_KIND_MIX = 0x9E3779B97F4A7C15
_INDEX_MIX = 0xD1B54A32D192ED03


def _fnv1a64(name: str) -> int:
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _tail_cut(tail_prob: float) -> int:
    """The least 64-bit ``h`` with ``h / 2**64 >= tail_prob``.

    ``h < _tail_cut(p)`` is the float test ``h / 2.0**64 < p`` as one
    integer compare; the float test is monotone in ``h``, so a binary
    search finds its edge exactly.
    """
    lo, hi = 0, 1 << 64  # the edge lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2.0**64 < tail_prob:
            lo = mid + 1
        else:
            hi = mid
    return lo


# every kind's cut: a draw whose hash lies below it takes the tail
_TAIL_CUT = _tail_cut(TAIL_PROB)
# a stream is hashed, kept and read in blocks of this many draws
_BLOCK = 256
# the most latencies one model keeps over all its streams; a block past
# them is hashed each time it is read, so a run cannot grow a shared model
_KEPT_DRAWS = 1 << 15


class ApiLatencyModel:
    """Deterministic counter-hashed sampler over per-kind two-point laws.

    The model keeps, per (actor, kind), the blocks of latencies hashed
    so far, up to ``_KEPT_DRAWS`` draws in all, and every ``ApiSampler``
    on it reads them.  The table is read-only, since those draws depend
    on it.
    """

    def __init__(self, table: Dict[ApiKind, TwoPointLatency], seed: int = 0):
        missing = [k for k in ApiKind if k not in table]
        if missing:
            raise ValueError(f"latency table missing kinds: {[k.value for k in missing]}")
        self.table: Mapping[ApiKind, TwoPointLatency] = MappingProxyType(dict(table))
        self.seed = seed & _MASK64
        # the FNV hashes of actor and kind names, computed once per name
        self._actor_hash = Table(_fnv1a64)
        self._kind_hash = {k: _fnv1a64(k.value) for k in ApiKind}
        # (actor, kind, b) -> the latencies at indices [b*_BLOCK, (b+1)*_BLOCK)
        self._kept: Dict[Tuple[str, ApiKind, int], Tuple[int, ...]] = {}
        self._room = _KEPT_DRAWS  # how many more latencies it may keep

    def _stream_key(self, actor: str, kind: ApiKind) -> int:
        """The hash of (seed, actor, kind) that every index is mixed into."""
        h = _splitmix64(self.seed ^ self._actor_hash[actor])
        return _splitmix64(h ^ (self._kind_hash[kind] * _KIND_MIX & _MASK64))

    def sample(self, actor: str, kind: ApiKind, index: int) -> int:
        """The latency of the ``index``-th call of ``kind`` made by ``actor``.

        Pure in its arguments: no state is consumed, so interleaving
        extra calls of other kinds cannot shift this draw.
        """
        law = self.table[kind]
        h = _splitmix64(self._stream_key(actor, kind) ^ (index * _INDEX_MIX & _MASK64))
        u = h / 2.0**64
        value = law.tail_ns if u < TAIL_PROB else law.common_ns
        return round_half_up(value)

    def _block(self, actor: str, kind: ApiKind, b: int) -> Tuple[int, ...]:
        """The latencies at indices ``[b*_BLOCK, (b+1)*_BLOCK)`` of the
        stream: kept, or each hashed with one splitmix and one compare
        against the integer tail cut, and kept if the model has room."""
        where = actor, kind, b
        if where in self._kept:
            return self._kept[where]
        key, cut = self._stream_key(actor, kind), _TAIL_CUT
        law = self.table[kind]
        tail, common = round_half_up(law.tail_ns), round_half_up(law.common_ns)
        values = []
        for idx in range(b * _BLOCK, (b + 1) * _BLOCK):
            # _splitmix64 inlined; both operands are below 2**64, so its first mask goes
            x = key ^ (idx * _INDEX_MIX & _MASK64)
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            values.append(tail if x ^ (x >> 31) < cut else common)
        block = tuple(values)
        if self._room >= _BLOCK:
            self._room -= _BLOCK
            self._kept[where] = block
        return block


def _stream(model: ApiLatencyModel, key: Tuple[str, ApiKind]) -> Iterator[int]:
    """A stream's latencies: its blocks, each read when the last runs out."""
    actor, kind = key
    return chain.from_iterable(map(model._block, repeat(actor), repeat(kind), count()))


class ApiSampler:
    """Auto-indexing wrapper: one iterator per (actor, kind) stream, over
    the model's blocks.  ``draw`` returns exactly what
    ``ApiLatencyModel.sample`` does at the stream's own index."""

    def __init__(self, model: ApiLatencyModel):
        self._streams = Table(partial(_stream, model))

    def draw(self, actor: str, kind: ApiKind) -> int:
        return next(self._streams[actor, kind])


def default_api_model(seed: int = 0) -> ApiLatencyModel:
    """The default latency laws under ``seed``: one model per seed value,
    shared by every run in the process, so their draws are hashed once."""
    return _shared_api_model(seed)


@lru_cache(maxsize=8)
def _shared_api_model(seed: int) -> ApiLatencyModel:
    return ApiLatencyModel({
        ApiKind.KERNEL_LAUNCH: TwoPointLatency(2000.0, 25000.0),
        ApiKind.EVENT_RECORD: TwoPointLatency(2000.0, 30000.0),
        ApiKind.EVENT_CREATE_DESTROY: TwoPointLatency(5500.0, 40000.0),
        ApiKind.STREAM_WAIT_EVENT: TwoPointLatency(4000.0, 50000.0),
        ApiKind.MEMCPY_ASYNC: TwoPointLatency(3000.0, 30000.0),
        ApiKind.HOST_SYNC_POLL: TwoPointLatency(10000.0, 30000.0),
    }, seed=seed)
