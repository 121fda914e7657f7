"""Node topology and rank placement.

Models one dual-socket-free, GPU-dense compute node of the kind both
target machines use: 8 CPU core complexes (CCX) of 8 cores each, four
two-die GPU packages exposing 8 logical devices (GCDs), and four NICs,
one per GPU package.  The physical wiring is fixed:

* GCD ``g`` lives in package ``g // 2`` and its NIC is ``g // 2``
* CCX ``c`` is cabled to GCD ``(c + 4) % 8``; the map is its own inverse

Placement profiles differ per machine: one reserves the first core of
every CCX for the OS and runs cores single-threaded, the other keeps
all cores and enables SMT.  ``plan_affinity`` turns a rank count into
per-rank core masks plus the runtime environment needed to keep each
rank on the CCX wired to its GCD.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List, Optional


class LinkClass(Enum):
    INTRA_GCD_PAIR = auto()   # two dies in one GPU package
    INTRA_NODE = auto()       # different packages, same node
    INTER_NODE = auto()       # over the interconnect


@dataclass(frozen=True)
class NodeTopology:
    """Core counts and wiring of one compute node.

    Attributes:
        name:                 profile name ("lumi", "dardel", ...)
        n_ccx:                CPU core complexes per node
        cores_per_ccx:        physical cores per CCX
        n_gcds:               logical GPU devices per node
        reserve_first_core:   whether core 0 of each CCX belongs to the OS
        smt:                  hardware threads per core (1 = SMT off)
        placement:            "bind-ranks-to-ccx" moves the rank onto the
                              CCX wired to its device; "reorder-devices"
                              keeps rank i on CCX i and renumbers the
                              visible device instead
    """

    name: str
    n_ccx: int = 8
    cores_per_ccx: int = 8
    n_gcds: int = 8
    reserve_first_core: bool = False
    smt: int = 1
    placement: str = "bind-ranks-to-ccx"

    # -- wiring ------------------------------------------------------------

    def ccx_for_gcd(self, gcd: int) -> int:
        self._check_gcd(gcd)
        return (gcd + 4) % self.n_ccx

    def gcd_for_ccx(self, ccx: int) -> int:
        if not 0 <= ccx < self.n_ccx:
            raise ValueError(f"ccx {ccx} out of range 0..{self.n_ccx - 1}")
        return (ccx + 4) % self.n_gcds

    def nic_for_gcd(self, gcd: int) -> int:
        self._check_gcd(gcd)
        return gcd // 2

    def link_class(self, gcd_a: int, gcd_b: int, same_node: bool = True) -> LinkClass:
        self._check_gcd(gcd_a)
        self._check_gcd(gcd_b)
        if not same_node:
            return LinkClass.INTER_NODE
        if gcd_a == gcd_b:
            raise ValueError("no link from a device to itself")
        if gcd_a // 2 == gcd_b // 2:
            return LinkClass.INTRA_GCD_PAIR
        return LinkClass.INTRA_NODE

    def _check_gcd(self, gcd: int) -> None:
        if not 0 <= gcd < self.n_gcds:
            raise ValueError(f"gcd {gcd} out of range 0..{self.n_gcds - 1}")

    # -- cores -------------------------------------------------------------

    def usable_cores(self, ccx: int) -> List[int]:
        """Global ids of the cores a rank may occupy on this CCX."""
        if not 0 <= ccx < self.n_ccx:
            raise ValueError(f"ccx {ccx} out of range 0..{self.n_ccx - 1}")
        first = self.cores_per_ccx * ccx
        skip = 1 if self.reserve_first_core else 0
        return list(range(first + skip, first + self.cores_per_ccx))

    def usable_cores_per_ccx(self) -> int:
        return self.cores_per_ccx - (1 if self.reserve_first_core else 0)

    def hw_threads(self, cores: List[int]) -> List[int]:
        """Hardware thread ids for ``cores``, covering all SMT siblings."""
        total = self.n_ccx * self.cores_per_ccx
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
    if not 1 <= n_ranks <= node.n_gcds:
        raise ValueError(f"ranks must be 1 to {node.n_gcds} on node {node.name!r}, "
                         f"got {n_ranks}")
    limit = node.usable_cores_per_ccx()
    threads = limit if threads_per_rank is None else threads_per_rank
    if not 1 <= threads <= limit:
        raise ValueError(f"threads per rank must be 1 to {limit} on node "
                         f"{node.name!r}, got {threads}")

    ranks = []
    for i in range(n_ranks):
        if node.placement == "bind-ranks-to-ccx":
            gcd = i
            ccx = node.ccx_for_gcd(gcd)
        else:
            ccx = i
            gcd = node.gcd_for_ccx(ccx)
        cores = node.usable_cores(ccx)[:threads]
        env = {
            "ROCR_VISIBLE_DEVICES": str(gcd),
            "OMP_NUM_THREADS": str(threads),
            "OMP_PLACES": "cores",
            "OMP_PROC_BIND": "close",
            "MPICH_OFI_NIC_POLICY": "GPU",
        }
        ranks.append(RankBinding(rank=i, gcd=gcd, ccx=ccx,
                                 nic=node.nic_for_gcd(gcd), cores=cores,
                                 hw_threads=node.hw_threads(cores), env=env))
    return AffinityPlan(node=node, ranks=ranks)
