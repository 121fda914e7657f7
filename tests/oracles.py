"""Models and oracles that ``test_pipeline`` and ``test_acceptance`` share.

With every host-side cost zeroed (``ZERO_PROFILE``, ``zero_api``), the
only time left in a burst of device tasks is each kernel's dispatch gap
and duration, serialized per stream and joined at dependencies, so its
makespan is the DAG's longest path, which ``longest_path_ns`` computes
in closed form.
"""

from mdgpusim.costs import ApiKind, ApiLatencyModel, TwoPointLatency
from mdgpusim.runtime import DISPATCH_GAP_NS, RuntimeProfile

ZERO_PROFILE = RuntimeProfile(
    name="zero", submission="instant", submit_cost_ns=0,
    flush_bookkeeping_cost_ns=0,
    per_node_flush_cost_ns=0, notify_cost_ns=0, retire_fixed_ns=0,
    mpi_msg_cpu_ns=0, pme_comm_overlap=True,
    hsa_worker_duty_milli=0)


def zero_api() -> ApiLatencyModel:
    """An API model whose every call takes 0 ns."""
    quiet = TwoPointLatency(0.0, 0.0)
    return ApiLatencyModel({kind: quiet for kind in ApiKind}, seed=0)


def longest_path_ns(tasks) -> int:
    """The makespan of ``(duration_ns, stream, deps)`` tasks, submitted in
    order, each after the last task on its stream and the tasks at the
    positions ``deps``, each preceded by one dispatch gap."""
    end = []
    stream_last = {}
    for dur, stream, deps in tasks:
        start = max([stream_last.get(stream, 0)] + [end[d] for d in deps])
        end.append(start + DISPATCH_GAP_NS + dur)
        stream_last[stream] = end[-1]
    return max(end)


def queue_kernels(trace) -> dict:
    """Each device queue's kernel names, in record order."""
    queues = {}
    for actor, name, *_ in trace.records:
        if ".gcd.q" in actor and name not in ("dispatch", "event_packet"):
            queues.setdefault(actor, []).append(name)
    return queues
