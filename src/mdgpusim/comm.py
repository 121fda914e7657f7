"""Data movement between devices and ranks.

Transfers follow an alpha-beta law per link class: a fixed startup
latency plus bytes over sustained bandwidth.  Link classes come from
the node wiring (same GPU package, same node, across the fabric).

Halo sizes use a slab picture of a roughly cubic local domain at
uniform atom density: the fraction of atoms within one cutoff of a face
gives per-neighbor slab sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .costs import round_half_up
from .topology import LinkClass

XYZ_BYTES_PER_ATOM = 12    # three single-precision coordinates
FORCE_BYTES_PER_ATOM = 12  # three single-precision force components


@dataclass
class LinkParams:
    """One link class: startup latency plus streaming bandwidth.

    ``gbytes_per_s`` doubles as bytes-per-nanosecond, which keeps the
    transfer law a one-liner.
    """

    latency_ns: float
    gbytes_per_s: float

    def transfer_ns(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return round_half_up(self.latency_ns + nbytes / self.gbytes_per_s)


class CommModel:
    def __init__(self, links: Dict[LinkClass, LinkParams]):
        missing = [lc for lc in LinkClass if lc not in links]
        if missing:
            raise ValueError(f"links missing classes: {[lc.name for lc in missing]}")
        self.links = dict(links)

    def transfer_ns(self, link: LinkClass, nbytes: int) -> int:
        return self.links[link].transfer_ns(nbytes)


def default_comm_model() -> CommModel:
    return CommModel({
        LinkClass.INTRA_GCD_PAIR: LinkParams(latency_ns=2000.0, gbytes_per_s=200.0),
        LinkClass.INTRA_NODE: LinkParams(latency_ns=3000.0, gbytes_per_s=50.0),
        LinkClass.INTER_NODE: LinkParams(latency_ns=7000.0, gbytes_per_s=25.0),
    })


# -- halo geometry ----------------------------------------------------------


def local_edge_nm(atoms: int, density_per_nm3: float) -> float:
    """Edge length of a rank's (assumed cubic) domain."""
    if atoms <= 0 or density_per_nm3 <= 0:
        raise ValueError("need positive atom count and density")
    return (atoms / density_per_nm3) ** (1.0 / 3.0)


def slab_atoms(atoms: int, cutoff_nm: float, density_per_nm3: float) -> int:
    """Atoms within one cutoff of a single face: what one halo send carries."""
    edge = local_edge_nm(atoms, density_per_nm3)
    frac = min(1.0, cutoff_nm / edge)
    return round_half_up(atoms * frac)
