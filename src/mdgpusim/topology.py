"""Node topology and rank placement.

Models the one dual-socket-free, GPU-dense compute node type both
target machines use: 8 CPU core complexes (CCX) of 8 cores each, four
two-die GPU packages exposing 8 logical devices (GCDs), and four NICs,
one per GPU package.  The counts and the wiring are the node's, not a
profile's:

* GCD ``g`` lives in package ``g // 2`` and its NIC is ``g // 2``
* CCX ``c`` is cabled to GCD ``(c + 4) % 8``, so ``wired`` is its own inverse

Placement profiles differ per machine, and only in placement: one
reserves the first core of every CCX for the OS and runs cores
single-threaded, the other keeps all cores and enables SMT.
``plan_affinity`` turns a rank count into per-rank core masks plus the
runtime environment needed to keep each rank on the CCX wired to its GCD.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List, Optional


class LinkClass(Enum):
    INTRA_GCD_PAIR = auto()   # two dies in one GPU package
    INTRA_NODE = auto()       # different packages, same node
    INTER_NODE = auto()       # over the interconnect


# logical GPU devices per node, one CCX wired to each, and cores per CCX
GCDS = 8
CORES_PER_CCX = 8


def wired(i: int) -> int:
    """The CCX cabled to GCD ``i``, which is also the GCD cabled to CCX ``i``."""
    if not 0 <= i < GCDS:
        raise ValueError(f"device or CCX {i} out of range 0..{GCDS - 1}")
    return (i + 4) % GCDS


def nic_for_gcd(gcd: int) -> int:
    _check_gcd(gcd)
    return gcd // 2


def link_class(gcd_a: int, gcd_b: int, same_node: bool = True) -> LinkClass:
    _check_gcd(gcd_a)
    _check_gcd(gcd_b)
    if not same_node:
        return LinkClass.INTER_NODE
    if gcd_a == gcd_b:
        raise ValueError("no link from a device to itself")
    if gcd_a // 2 == gcd_b // 2:
        return LinkClass.INTRA_GCD_PAIR
    return LinkClass.INTRA_NODE


def _check_gcd(gcd: int) -> None:
    if not 0 <= gcd < GCDS:
        raise ValueError(f"gcd {gcd} out of range 0..{GCDS - 1}")


@dataclass(frozen=True)
class NodeTopology:
    """How one machine places ranks on the node: every field is one
    that its two bundled profiles set apart.

    Attributes:
        name:                 profile name ("lumi", "dardel")
        reserve_first_core:   whether core 0 of each CCX belongs to the OS
        smt:                  hardware threads per core (1 = SMT off)
        placement:            "bind-ranks-to-ccx" moves the rank onto the
                              CCX wired to its device; "reorder-devices"
                              keeps rank i on CCX i and renumbers the
                              visible device instead
    """

    name: str
    reserve_first_core: bool
    smt: int
    placement: str

    def usable_cores(self, ccx: int) -> List[int]:
        """Global ids of the cores a rank may occupy on this CCX."""
        if not 0 <= ccx < GCDS:
            raise ValueError(f"ccx {ccx} out of range 0..{GCDS - 1}")
        first = CORES_PER_CCX * ccx
        skip = 1 if self.reserve_first_core else 0
        return list(range(first + skip, first + CORES_PER_CCX))

    def usable_cores_per_ccx(self) -> int:
        return CORES_PER_CCX - (1 if self.reserve_first_core else 0)

    def hw_threads(self, cores: List[int]) -> List[int]:
        """Hardware thread ids for ``cores``, covering all SMT siblings."""
        total = GCDS * CORES_PER_CCX
        out = list(cores)
        for s in range(1, self.smt):
            out.extend(c + s * total for c in cores)
        return out


def lumi_node() -> NodeTopology:
    return NodeTopology(name="lumi", reserve_first_core=True, smt=1,
                        placement="bind-ranks-to-ccx")


def dardel_node() -> NodeTopology:
    return NodeTopology(name="dardel", reserve_first_core=False, smt=2,
                        placement="reorder-devices")


NODE_PROFILES = {"lumi": lumi_node, "dardel": dardel_node}


@dataclass
class RankBinding:
    """Where one rank lands: its device, CCX, cores and environment."""

    rank: int
    gcd: int
    ccx: int
    nic: int
    cores: List[int]
    hw_threads: List[int]
    env: Dict[str, str]

    def cpu_bind_mask(self) -> str:
        bits = 0
        for t in self.hw_threads:
            bits |= 1 << t
        return hex(bits)


@dataclass
class AffinityPlan:
    node: NodeTopology
    ranks: List[RankBinding]

    def env_lines(self) -> List[str]:
        lines = []
        for r in self.ranks:
            pairs = " ".join(f"{k}={v}" for k, v in r.env.items())
            lines.append(f"rank{r.rank}: {pairs}")
        return lines


def plan_affinity(node: NodeTopology, n_ranks: int,
                  threads_per_rank: Optional[int] = None) -> AffinityPlan:
    """Assign ``n_ranks`` single-GPU ranks to devices, CCXs and cores."""
    if not 1 <= n_ranks <= GCDS:
        raise ValueError(f"ranks must be 1 to {GCDS} on node {node.name!r}, "
                         f"got {n_ranks}")
    limit = node.usable_cores_per_ccx()
    threads = limit if threads_per_rank is None else threads_per_rank
    if not 1 <= threads <= limit:
        raise ValueError(f"threads per rank must be 1 to {limit} on node "
                         f"{node.name!r}, got {threads}")

    ranks = []
    for i in range(n_ranks):
        if node.placement == "bind-ranks-to-ccx":
            gcd, ccx = i, wired(i)
        else:
            ccx, gcd = i, wired(i)
        cores = node.usable_cores(ccx)[:threads]
        env = {
            "ROCR_VISIBLE_DEVICES": str(gcd),
            "OMP_NUM_THREADS": str(threads),
            "OMP_PLACES": "cores",
            "OMP_PROC_BIND": "close",
            "MPICH_OFI_NIC_POLICY": "GPU",
        }
        ranks.append(RankBinding(rank=i, gcd=gcd, ccx=ccx,
                                 nic=nic_for_gcd(gcd), cores=cores,
                                 hw_threads=node.hw_threads(cores), env=env))
    return AffinityPlan(node=node, ranks=ranks)
