"""The four benchmark workloads.

Each workload is a fixed list of scenarios that goes through the public
API one after another (a closed loop with one client): ``Scenario`` and
``cli.run_scenario`` (``RunPlan`` plus ``pipeline.simulate``), then
``cli.render_csv``, and ``Trace.to_json(indent=2)`` where the workload
keeps traces.  The workload seed becomes ``RunSettings.seed``, the hash
key of the host API latency draws.

``points`` names the bundled reference points (``data/reference.cfg``)
the workload claims to cover; the benchmark checks the claim on every
run, so a workload that stops covering a point counts as failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from mdgpusim.cli import Scenario

GCDS_PER_NODE = 8
NODE_COUNTS = (16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class Workload:
    name: str
    keep_trace: bool
    points: Tuple[str, ...]
    specs: Tuple[Tuple[str, Dict], ...]  # (scenario id suffix, Scenario fields)

    def scenarios(self, seed: int) -> List[Scenario]:
        return [Scenario(scenario_id=f"{self.name}/{suffix}", seed=seed, **fields)
                for suffix, fields in self.specs]


def _submit_12k() -> Workload:
    # host-bound, tiny kernels: deferred flush/monitor machinery and the
    # per-node API draws FULL events add dominate the host time
    specs = []
    for profile in ("acpp-0.9.4", "acpp-23.10"):
        for mcn in (0, 5, 100):
            for mode in ("coarse", "full"):
                specs.append((f"{profile}/mcn={mcn}/{mode}",
                              dict(system="grappa_pme_12k", profile=profile,
                                   max_cached_nodes=mcn, event_mode=mode)))
    for mode in ("coarse", "full"):
        specs.append((f"acpp-23.10/instant/{mode}",
                      dict(system="grappa_pme_12k", profile="acpp-23.10",
                           max_cached_nodes=0, instant=True, event_mode=mode)))
    return Workload("submit-12k", False,
                    ("best-094-12k", "cached-band-2310-12k",
                     "flush-penalty-094-12k", "instant-12k"),
                    tuple(specs))


def _stmv_node() -> Workload:
    # device-bound and instant-only: real PME rank, halo and PME wires,
    # oversubscribed queue slots; bypasses the deferred runtime entirely
    specs = []
    for ranks in range(1, GCDS_PER_NODE + 1):
        specs.append((f"sycl/ranks={ranks}",
                      dict(system="stmv", profile="acpp-23.10", ranks=ranks,
                           max_cached_nodes=0, instant=True)))
        specs.append((f"hip/ranks={ranks}",
                      dict(system="stmv", profile="hip-native", ranks=ranks,
                           backend="hip", max_cached_nodes=0, instant=True)))
    return Workload("stmv-node", False,
                    ("stmv-hip-gain-1gcd", "stmv-sycl-1gcd"), tuple(specs))


def _strong_46m() -> Workload:
    # the heap-heaviest load: mid-step halo syncs force flushes, and
    # reaction-field electrostatics means no PME rank
    specs = []
    for nodes in NODE_COUNTS:
        ranks = nodes * GCDS_PER_NODE
        for label, fields in (("mcn=0", dict(max_cached_nodes=0)),
                              ("mcn=5", dict(max_cached_nodes=5)),
                              ("instant", dict(max_cached_nodes=0, instant=True))):
            specs.append((f"nodes={nodes}/{label}",
                          dict(system="grappa_rf_46m", profile="acpp-23.10",
                               ranks=ranks, **fields)))
    specs.append(("nodes=512/mcn=100",
                  dict(system="grappa_rf_46m", profile="acpp-23.10",
                       ranks=512 * GCDS_PER_NODE, max_cached_nodes=100)))
    return Workload("strong-46m", False,
                    ("instant-gain-512n", "instant-rate-512n"), tuple(specs))


def _trace_export() -> Workload:
    # the write path the other workloads skip: every run keeps its trace
    # and serialises it, so trace-record work cannot move off it unseen
    specs = (
        ("12k/acpp-23.10/mcn=100/full",
         dict(system="grappa_pme_12k", profile="acpp-23.10",
              max_cached_nodes=100, event_mode="full")),
        ("12k/acpp-23.10/instant",
         dict(system="grappa_pme_12k", profile="acpp-23.10",
              max_cached_nodes=0, instant=True)),
        ("stmv/hip/ranks=8",
         dict(system="stmv", profile="hip-native", ranks=8, backend="hip",
              max_cached_nodes=0, instant=True)),
        ("stmv/sycl/ranks=1",
         dict(system="stmv", profile="acpp-23.10", max_cached_nodes=0,
              instant=True)),
        ("stmv/hip/ranks=1",
         dict(system="stmv", profile="hip-native", backend="hip",
              max_cached_nodes=0, instant=True)),
    )
    return Workload("trace-export", True,
                    ("instant-12k", "stmv-hip-gain-1gcd", "stmv-sycl-1gcd"),
                    specs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (_submit_12k(), _stmv_node(), _strong_46m(), _trace_export())}
