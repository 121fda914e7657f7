"""End-to-end measurement of one workload, with its correctness checks.

Host time only: every figure here is measured with ``perf_counter`` or
``getrusage`` on this process (``setup_s`` on fresh child interpreters).
Simulated numbers (ns/day, launch delays) serve only as checks:

* for the default seed, each scenario's CSV bytes (and trace JSON bytes
  where the workload keeps traces) must hash to the committed digest;
* for any seed, every later execution of a scenario (a replay, or the
  traced execution in a traced run) must give the first one's bytes;
* every bundled reference point the workload claims must be covered by
  its coarse-event rows and in band through ``cli.run_check``.

A scenario that raises, differs, or a point that is missing or out of
band counts as failed; nothing is skipped.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from mdgpusim.cli import (
    ReferencePoint,
    Scenario,
    evaluate_point,
    load_bundled_references,
    render_csv,
    run_check,
    run_scenario,
)

from tracing import Spans, instrument
from workloads import Workload

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).resolve().parent / "expected_seed0.json"
SETUP_SAMPLES = 9
# host seconds the speed probe is taken to need at reference speed; it
# only sets the scale of ``steps_per_s``, never a comparison
PROBE_REF_S = 0.020

# what a fresh interpreter does before its first simulation: import the
# package, parse the presets and build the plan
_SETUP_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from mdgpusim.cli import Scenario
Scenario(**json.loads(sys.argv[2])).build_plan()
"""


@dataclass
class Output:
    """One execution of one scenario: its report rows and digest."""

    rows: List[Dict[str, str]]
    digest: Dict[str, str]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute(scenario: Scenario, keep_trace: bool) -> Tuple[float, Output]:
    """Run one scenario the way ``mdgpusim simulate --trace`` does; host
    seconds cover simulation, CSV rendering and trace serialisation."""
    t0 = perf_counter()
    rows, trace = run_scenario(scenario, keep_trace=keep_trace)
    csv_text = render_csv(rows)
    trace_json = trace.to_json(indent=2) if keep_trace else None
    elapsed = perf_counter() - t0
    digest = {"csv": _sha(csv_text)}
    if trace_json is not None:
        digest["trace"] = _sha(trace_json)
    return elapsed, Output(rows, digest)


def speed_probe() -> float:
    """Host seconds of a fixed interpreter-bound loop (heap, dict, integer
    work, like the engine's inner loop).  Other tenants of a shared host
    slow it as they slow the simulator, so scenario times are rescaled by
    the probes taken right before and after them."""
    t0 = perf_counter()
    heap: list = []
    counts: Dict[int, int] = {}
    x = 1
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, [x & 0xFFFF, i, None])
        if len(heap) > 256:
            heapq.heappop(heap)
        counts[x & 1023] = counts.get(i & 1023, 0) + 1
    return perf_counter() - t0


def load_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


class Run:
    """The executions of one workload in one benchmark run, and their checks."""

    def __init__(self, workload: Workload, seed: int,
                 expected: Optional[Dict[str, Dict[str, str]]]):
        self.workload = workload
        self.scenarios = workload.scenarios(seed)
        self.expected = expected  # committed digests, default seed only
        self.tally = Tally()
        self.first: Dict[str, Output] = {}
        self.times: Dict[str, List[float]] = {s.scenario_id: [] for s in self.scenarios}
        self.traced_times: Dict[str, List[float]] = {sid: [] for sid in self.times}
        # host seconds at reference speed: times PROBE_REF_S / probe seconds
        self.scaled_times: Dict[str, List[float]] = {sid: [] for sid in self.times}
        self.peak_rss_mb = 0.0

    def attempt(self, scenario: Scenario, spans: Optional[Spans] = None) -> Optional[float]:
        """Execute and check one scenario; host seconds, or None if it raised."""
        sid = scenario.scenario_id
        try:
            if spans is None:
                elapsed, out = execute(scenario, self.workload.keep_trace)
            else:
                with instrument(spans), spans.span("scenario"):
                    elapsed, out = execute(scenario, self.workload.keep_trace)
        except Exception:  # a failing scenario is counted, the run goes on
            self.tally.check(False, f"{sid} raised:\n{traceback.format_exc()}")
            return None
        first = self.first.setdefault(sid, out)
        ok = out.digest == first.digest
        note = f"{sid} differs from its first execution"
        if ok and self.expected is not None:
            ok = out.digest == self.expected.get(sid)
            note = f"{sid} differs from the committed digest"
        self.tally.check(ok, note)
        return elapsed

    def cycle(self, seconds: float, traced: bool = False,
              setup: Optional[SetupProbe] = None) -> Optional[Spans]:
        """Run the scenarios round-robin until ``seconds`` have passed and
        each ran at least once.  Traced, every scenario runs untraced and
        then traced; the spans of the first traced pass are returned.
        ``setup`` samples are taken between executions, spread over the
        window."""
        start = perf_counter()
        first_pass = Spans() if traced else None
        later = Spans()
        n = len(self.scenarios)
        i = 0
        while i < n or perf_counter() - start < seconds:
            scenario = self.scenarios[i % n]
            before = speed_probe()
            elapsed = self.attempt(scenario)
            probe = (before + speed_probe()) / 2
            if elapsed is not None:
                self.times[scenario.scenario_id].append(elapsed)
                self.scaled_times[scenario.scenario_id].append(
                    elapsed * PROBE_REF_S / probe)
            if traced:
                spans = first_pass if i < n else later
                traced_elapsed = self.attempt(scenario, spans)
                if traced_elapsed is not None:
                    self.traced_times[scenario.scenario_id].append(traced_elapsed)
            if setup is not None:
                setup.sample_due((perf_counter() - start) / seconds if seconds else 1.0)
            i += 1
            if i == n:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return first_pass

    def steps_per_s(self, scaled: bool = True) -> float:
        """Simulated steps (warm-up included) per host second, over the
        per-scenario median host time; ``scaled`` takes the times at the
        probe's reference speed."""
        steps = sum(s.eras * s.build_plan().system.nstlist for s in self.scenarios
                    if self.times[s.scenario_id])
        return steps / _median_sum(self.scaled_times if scaled else self.times)

    def trace_overhead(self) -> float:
        """Traced over untraced host time, per-scenario medians summed."""
        return _median_sum(self.traced_times) / _median_sum(self.times)

    def coarse_rows(self) -> List[Dict[str, str]]:
        """Report rows of each scenario's first execution in coarse event
        mode, the mode the published points were measured in."""
        return [row for out in self.first.values() for row in out.rows
                if row["event_mode"] == "coarse"]

    def check_references(self) -> float:
        """Check the claimed reference points; the largest relative error
        against the published values among them (a simulated figure)."""
        rows = self.coarse_rows()
        covered = covered_points(rows)
        claimed = set(self.workload.points)
        self.tally.check({p.point_id for p in covered} == claimed,
                         f"covers {sorted(p.point_id for p in covered)}, "
                         f"claims {sorted(claimed)}")
        lines, _ = run_check(rows, covered)
        errors = []
        for point, line in zip(covered, lines):
            status, simulated = evaluate_point(point, rows)
            self.tally.check(status == "PASS", line)
            errors.append(abs(simulated - point.value) / abs(point.value))
            print("  " + line)
        return max(errors, default=0.0)


def covered_points(rows: List[Dict[str, str]]) -> List[ReferencePoint]:
    """The bundled reference points that ``rows`` select rows for."""
    return [p for p in load_bundled_references()
            if evaluate_point(p, rows)[0] != "MISSING"]


def _median_sum(times: Dict[str, List[float]]) -> float:
    return sum(statistics.median(t) for t in times.values() if t)


class SetupProbe:
    """Host seconds from spawning a fresh interpreter to a plan ready to
    simulate.  Samples are spread over the measurement window so they see
    the same host conditions as the scenarios.  The first spawn, which
    also writes the bytecode caches, is not counted."""

    def __init__(self, scenario: Scenario, src: Path, wanted: int = SETUP_SAMPLES):
        self.argv = [sys.executable, "-c", _SETUP_PROBE, str(src),
                     json.dumps(asdict(scenario))]
        self.wanted = wanted
        self.samples: List[float] = []
        self._spawn()

    def _spawn(self) -> float:
        t0 = perf_counter()
        subprocess.run(self.argv, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return perf_counter() - t0

    def sample_due(self, progress: float) -> None:
        """Take the next sample once ``progress`` through the window has
        reached its slot."""
        if len(self.samples) < min(self.wanted, progress * self.wanted):
            self.samples.append(self._spawn())

    def median(self) -> float:
        while len(self.samples) < self.wanted:
            self.samples.append(self._spawn())
        return statistics.median(self.samples)
