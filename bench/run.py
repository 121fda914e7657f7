#!/usr/bin/env python3
"""The mdgpusim benchmark: host-time throughput with exact outputs.

One run measures one workload in this single process (no worker
processes; ``setup_s`` alone spawns short-lived child interpreters one
at a time) and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 bench/run.py --workload submit-12k --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics (microbenchmarks, then a
traced pass of the workload).  ``--append FILE`` also appends the
result, with the machine facts, to a JSON-lines file, and

    python3 bench/run.py --compare parent.jsonl change.jsonl

compares two such files.  ``--record-digests`` rewrites the committed
default-seed digests; only a change meant to alter simulated output
should need it.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path and make sure the
    package really comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import mdgpusim
    except ImportError as exc:
        sys.exit(f"error: cannot import mdgpusim from {SRC}: {exc}")
    origin = Path(mdgpusim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: mdgpusim imported from {origin}, not from {SRC}")


def _git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "revision": _git_revision()}


def _trace_metrics(spans, run) -> dict:
    return {
        "trace.charges": spans.charges,
        "trace.posts": spans.count["post"],
        "trace.submits": spans.count["submit"],
        "trace.syncs": spans.count["sync"],
        "trace.enqueues": spans.count["enqueue"],
        "trace.api_draws": spans.count["api_draw"],
        "trace.kernel_cost_calls": spans.count["kernel_cost"],
        "trace.transfers": spans.count["transfer"],
        "trace.api_draw_share": spans.share_of_simulate("api_draw"),
        "trace.kernel_cost_share": spans.share_of_simulate("kernel_cost"),
        "trace.loop_self_share": spans.share_of_simulate("run_until_idle", self_only=True),
        "trace.overhead": run.trace_overhead(),
    }


def bench(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    from measure import DEFAULT_SEED, Run, SetupProbe, load_digests
    from micro import MICROS, run_micro
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    expected = load_digests()[workload.name] if seed == DEFAULT_SEED else None
    run = Run(workload, seed, expected)
    values = {}
    if traced:
        for micro in MICROS:
            values[micro.metric], signatures = run_micro(micro, seed)
            run.tally.check(all(s == signatures[0] for s in signatures),
                            f"{micro.metric}: simulated result changed between repetitions")
        spans = run.cycle(seconds, traced=True)
        values.update(_trace_metrics(spans, run))
        print("spans of the first traced pass:")
        print("\n".join("  " + line for line in spans.table()))
    else:
        setup = SetupProbe(run.scenarios[0], SRC)
        run.cycle(seconds, setup=setup)
        values["setup_s"] = setup.median()
        values["steps_per_s"] = run.steps_per_s()
        print(f"steps_per_s at raw host speed: {run.steps_per_s(scaled=False):.4f}")
        values["peak_rss_mb"] = run.peak_rss_mb
    print(f"reference points ({workload.name}, coarse-event rows):")
    values["ref_max_rel_err"] = run.check_references()
    print(f"ref_max_rel_err (simulated): {values['ref_max_rel_err']:.6f}")
    for sid, times in run.times.items():
        print(f"  {sid}: {len(times)} runs, host s {[round(t, 4) for t in times]}")
    for note in run.tally.notes:
        print(f"FAILED: {note}")
    tally = run.tally
    print(f"failed_share: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    section = spec["per_layer" if traced else "end_to_end"]
    return {"correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in section}}


def record_digests() -> None:
    from measure import DEFAULT_SEED, DIGESTS_PATH, Run
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS.values():
        run = Run(workload, DEFAULT_SEED, None)
        run.cycle(0)
        if run.tally.failed:
            sys.exit("error: " + "\n".join(run.tally.notes))
        digests[workload.name] = {sid: out.digest for sid, out in run.first.items()}
        print(f"{workload.name}: {len(run.first)} scenarios")
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement window; every scenario runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", type=Path, metavar="FILE",
                        help="also append the result and machine facts to FILE")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --append result files")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite the committed default-seed digests")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare
        lines, regressions = compare(*args.compare,
                                     json.loads(SPEC_PATH.read_text(encoding="utf-8")))
        print("\n".join(lines))
        return 1 if regressions else 0

    _import_program()
    if args.record_digests:
        record_digests()
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    facts = machine_facts()
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.append is not None:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts, "result": result}
        with open(args.append, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
