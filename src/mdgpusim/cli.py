"""Command-line front end.

Verbs:
    simulate      run one scenario, print or save a CSV report, and
                  save its full event trace JSON if asked
    sweep         run every scenario in a config file, cross products
                  expanded over space-separated axis values
    check         compare a CSV report against published reference
                  points, exit nonzero if any point lands out of band
    plan-affinity print rank-to-device bindings for a node profile

All flags are long-form.  CSV reports carry a schema version in a
leading comment line, quote per RFC 4180, and are byte-stable for
fixed inputs because every simulation is deterministic in its seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import statistics
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .config import (ConfigError, is_int, is_number, load_config, parse_config,
                     parse_value, read_text, require, subsection)
from .pipeline import RunPlan, RunReport, simulate
from .presets import get_profile, get_system
from .runtime import EventMode, RunSettings
from .topology import GCDS, NODE_PROFILES, NodeTopology, plan_affinity

CSV_SCHEMA = "mdgpusim-csv v1"
COLUMNS = ["scenario", "system", "atoms", "ranks", "nodes", "backend",
           "runtime", "max_cached_nodes", "instant", "event_mode", "steps",
           "ms_per_step", "ns_per_day", "gpu_utilization", "app_utilization",
           "max_launch_delay_us", "median_ms_per_step", "median_ns_per_day"]

# the run fields of a Scenario, each a sweep axis that may hold several
# space-separated values; a cross product varies the last key fastest
AXIS_KEYS = ("system", "profile", "ranks", "max_cached_nodes", "instant",
             "event_mode", "backend", "eras", "seed")


# -- scenarios ----------------------------------------------------------------


# override keys that would shadow the scenario field a row's id and
# columns come from; each is set only through that field
_SHADOWED = {"system.name": "system", "profile.name": "profile",
             "settings.max_cached_nodes": "max_cached_nodes",
             "settings.instant_submission": "instant",
             "settings.event_mode": "event_mode", "settings.seed": "seed"}


@dataclass
class Scenario:
    """One resolvable benchmark run request.

    The command-line flags and the sweep reader pass on just the fields
    the user gave.  Each default is read from the ``RunSettings`` or
    ``RunPlan`` field it becomes.
    """

    scenario_id: str
    system: str
    profile: str
    ranks: int = RunPlan.ranks
    backend: str = RunPlan.backend
    max_cached_nodes: int = RunSettings.max_cached_nodes
    instant: bool = RunSettings.instant_submission
    event_mode: str = RunSettings.event_mode.value
    eras: int = RunPlan.n_eras
    seed: int = RunSettings.seed
    overrides: Dict[str, Any] = field(default_factory=dict)

    def build_plan(self) -> RunPlan:
        parts = dict(
            system=get_system(self.system), profile=get_profile(self.profile),
            settings=RunSettings(
                max_cached_nodes=self.max_cached_nodes,
                instant_submission=self.instant,
                event_mode=EventMode(self.event_mode),
                # a ranks that is not an integer >= 1 is left to
                # RunPlan.validate, which names it
                visible_devices=(max(1, min(self.ranks, GCDS))
                                 if is_int(self.ranks) else 1),
                seed=self.seed))
        for key in sorted(self.overrides):
            scope, _, name = key.partition(".")
            if key in _SHADOWED:
                owner = _SHADOWED[key]
                raise ConfigError(f"override {key!r} shadows the scenario's {owner}; "
                                  f"give it as --{owner.replace('_', '-')} "
                                  f"or the sweep key {owner}")
            if scope not in parts or not name:
                raise ConfigError(f"override {key!r} must start with "
                                  "system., profile. or settings.")
            try:
                parts[scope] = replace(parts[scope], **{name: self.overrides[key]})
            except TypeError:
                raise ConfigError(f"unknown {scope} field {name!r}") from None
        parts["system"].validate()
        parts["profile"].validate()
        return RunPlan(**parts, backend=self.backend, ranks=self.ranks,
                       n_eras=self.eras).validate()


def _node_profile(name: str) -> NodeTopology:
    try:
        return NODE_PROFILES[name]()
    except KeyError:
        known = ", ".join(sorted(NODE_PROFILES))
        raise ConfigError(f"unknown node profile {name!r}; "
                          f"available: {known}") from None


def scenarios_from_config(mapping: Dict[str, Any]) -> List[Scenario]:
    """Expand a scenario config into the cross product of its axes."""
    prefixes = sorted({k.split(".", 1)[0] for k in mapping})
    scenarios = []
    for prefix in prefixes:
        sub = subsection(mapping, prefix)
        overrides = {k[len("set."):]: v for k, v in sub.items()
                     if k.startswith("set.")}
        unknown = [k for k in sub if not k.startswith("set.") and k not in AXIS_KEYS]
        if unknown:
            raise ConfigError(f"{prefix}: unknown scenario key(s) {sorted(unknown)}")
        if "system" not in sub or "profile" not in sub:
            raise ConfigError(f"{prefix}: scenario needs system and profile")
        # a value parse_config already typed (one token) is a single point;
        # a list is split into raw tokens, which the scenario id keeps,
        # each paired with its typed value
        axes = {k: [(v, parse_value(v)) for v in sub[k].split()]
                if isinstance(sub[k], str) else [(sub[k], sub[k])]
                for k in AXIS_KEYS if k in sub}
        empty = [k for k, values in axes.items() if not values]
        if empty:
            raise ConfigError(f"{prefix}: no values for {empty}")
        for key, values in axes.items():
            # a deterministic run repeated would only repeat its row
            first: Dict[Tuple[type, Any], Any] = {}  # typed value -> its first token
            for raw, typed in values:
                if (type(typed), typed) in first:
                    raise ConfigError(f"{prefix}: {key} lists {first[type(typed), typed]} twice")
                first[type(typed), typed] = raw
        varying = [k for k, values in axes.items() if len(values) > 1]

        combos: List[Dict[str, Any]] = [{}]
        for key, values in axes.items():
            combos = [dict(combo, **{key: v}) for combo in combos for v in values]
        for combo in combos:
            suffix = "/".join(f"{k}={combo[k][0]}" for k in varying)
            typed = {k: value for k, (_, value) in combo.items()}
            scenarios.append(Scenario(f"{prefix}/{suffix}" if suffix else prefix,
                                      overrides=dict(overrides), **typed))
    return scenarios


# -- running and reporting ----------------------------------------------------


def _format_row(scenario: Scenario, report: RunReport) -> Dict[str, str]:
    plan = report.plan
    return {
        "scenario": scenario.scenario_id,
        "system": str(plan.system.name),
        "atoms": str(plan.system.atoms),
        "ranks": str(plan.ranks),
        "nodes": str(plan.nodes_used),
        "backend": str(plan.backend),
        "runtime": str(plan.profile.name),
        "max_cached_nodes": str(plan.settings.max_cached_nodes),
        "instant": str(int(plan.settings.instant_submission)),
        "event_mode": plan.settings.event_mode.value,
        "steps": str(report.steps_measured),
        "ms_per_step": f"{report.ms_per_step:.6f}",
        "ns_per_day": f"{report.ns_per_day:.3f}",
        "gpu_utilization": f"{report.gpu_utilization:.4f}",
        "app_utilization": f"{report.app_utilization:.4f}",
        "max_launch_delay_us": f"{report.max_launch_delay_ns / 1000.0:.3f}",
        "median_ms_per_step": f"{report.ms_per_step:.6f}",
        "median_ns_per_day": f"{report.ns_per_day:.3f}",
    }


def run_scenario(scenario: Scenario,
                 keep_trace: bool = False) -> Tuple[List[Dict[str, str]], Any]:
    """The rows of one scenario (its one row), plus the trace if kept."""
    row, trace = run_plan(scenario, scenario.build_plan(), keep_trace)
    return [row], trace


def run_plan(scenario: Scenario, plan: RunPlan,
             keep_trace: bool) -> Tuple[Dict[str, str], Any]:
    """The one row of ``scenario`` run on the plan it already built, plus
    the trace if kept.  The engine is deterministic in the scenario's
    seed, so the median columns are that one run's own figures."""
    try:
        report = simulate(plan, keep_trace=keep_trace)
    except RuntimeError as exc:
        raise RuntimeError(f"scenario {scenario.scenario_id}: {exc}") from exc
    return _format_row(scenario, report), report.trace


def render_csv(rows: List[Dict[str, str]]) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA}\r\n")
    writer = csv.DictWriter(buf, fieldnames=COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _output(files: ExitStack, path: Optional[str]) -> TextIO:
    """``path`` opened for writing and closed with ``files``, or stdout
    for None.  Verbs open their outputs before they simulate, so an
    unusable path fails before any run and before any other output."""
    if path is None:
        return sys.stdout
    return files.enter_context(open(path, "w", encoding="utf-8", newline=""))


def read_report(path: str) -> List[Dict[str, str]]:
    """The rows of a report, which must open with the schema line."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != f"# {CSV_SCHEMA}":
        raise ConfigError(f"{path}: not a report: the first line must be '# {CSV_SCHEMA}'")
    return list(csv.DictReader(ln for ln in lines[1:] if ln and not ln.startswith("#")))


# -- reference comparison -----------------------------------------------------


@dataclass
class ReferencePoint:
    """One published number and the report rows it constrains."""

    point_id: str
    source: str
    metric: str
    value: float
    quote: str
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None
    match: Dict[str, Any] = field(default_factory=dict)
    baseline: Dict[str, Any] = field(default_factory=dict)


_POINT_KEYS = ("source", "metric", "value", "quote", "rel_tol", "abs_tol")


def _check_point_keys(pid: str, sub: Dict[str, Any]) -> None:
    """A misspelt key must not drop a tolerance or a selector quietly, nor
    leave a point selecting no rows forever."""
    for key in sub:
        scope, _, column = key.partition(".")
        if scope in ("match", "baseline") and column:
            if column not in COLUMNS:
                raise ConfigError(f"{pid}: unknown column {column!r} in {key}")
            if isinstance(sub[key], bool):  # a report writes 1 or 0
                raise ConfigError(f"{pid}: {key} = {str(sub[key]).lower()} matches "
                                  "no row; the report writes 1 or 0")
        elif key not in _POINT_KEYS:
            raise ConfigError(f"{pid}: unknown key {key!r}")


def _point_number(pid: str, key: str, raw, tolerance: bool = False) -> float:
    """A point's finite ``value``, or a finite non-negative tolerance."""
    if not is_number(raw) or not math.isfinite(raw) or (tolerance and raw < 0):
        kind = "a finite number >= 0" if tolerance else "a finite number"
        raise ConfigError(f"{pid}: {key} must be {kind}, got {raw!r}")
    return float(raw)


def parse_reference_points(mapping: Dict[str, Any]) -> List[ReferencePoint]:
    points = []
    for pid in sorted({k.split(".", 1)[0] for k in mapping}):
        sub = subsection(mapping, pid)
        _check_point_keys(pid, sub)
        try:
            source, metric, value, quote = (require(sub, key) for key in
                                             ("source", "metric", "value", "quote"))
        except ConfigError as exc:
            raise ConfigError(f"{pid}: {exc}") from None
        tols = {key: _point_number(pid, key, sub[key], tolerance=True)
                for key in ("rel_tol", "abs_tol") if key in sub}
        point = ReferencePoint(
            point_id=pid,
            source=str(source),
            metric=str(metric),
            value=_point_number(pid, "value", value),
            quote=str(quote),
            rel_tol=tols.get("rel_tol"),
            abs_tol=tols.get("abs_tol"),
            match=subsection(sub, "match"),
            baseline=subsection(sub, "baseline"))
        if point.metric not in COLUMNS:
            raise ConfigError(f"{pid}: unknown column {point.metric!r} in metric")
        if (point.rel_tol is None) == (point.abs_tol is None):
            raise ConfigError(f"{pid}: exactly one of rel_tol or abs_tol")
        if not point.quote:
            raise ConfigError(f"{pid}: quote must not be empty")
        if not point.match:
            raise ConfigError(f"{pid}: needs at least one match.* selector")
        points.append(point)
    return points


def load_bundled_references() -> List[ReferencePoint]:
    text = resources.files("mdgpusim").joinpath("data", "reference.cfg") \
                    .read_text(encoding="utf-8")
    return parse_reference_points(parse_config(text))


def _select(rows: List[Dict[str, str]], selector: Dict[str, Any]):
    """The rows that hold each selector's value in its column, as the same
    text or as the same typed value, so ``0.871`` selects ``0.8710``."""
    return [r for r in rows
            if all(r.get(col) is not None and want in (r[col], parse_value(r[col]))
                   for col, want in selector.items())]


def _metric_values(point: ReferencePoint, rows: List[Dict[str, str]]) -> List[float]:
    """The point's metric in each row; a report that lacks the column or
    holds a non-number there is an error naming the point."""
    values = []
    for row in rows:
        if point.metric not in row:
            raise ConfigError(f"{point.point_id}: report has no {point.metric!r} column")
        raw = row[point.metric]
        try:
            values.append(float(raw))
        except (TypeError, ValueError):  # TypeError: a short row's None
            raise ConfigError(f"{point.point_id}: report row has {point.metric} = "
                              f"{raw!r}, not a number") from None
    return values


def evaluate_point(point: ReferencePoint,
                   rows: List[Dict[str, str]]) -> Tuple[str, Optional[float]]:
    """Status for one point: PASS, FAIL, or MISSING (no matching rows)."""
    matched = _select(rows, point.match)
    if not matched:
        return "MISSING", None
    simulated = statistics.median(_metric_values(point, matched))
    if point.baseline:
        base_rows = _select(rows, point.baseline)
        if not base_rows:
            return "MISSING", None
        best = max(_metric_values(point, base_rows))
        if best == 0:
            return "FAIL", float("inf")
        simulated = simulated / best
    if point.rel_tol is not None:
        ok = abs(simulated - point.value) <= point.rel_tol * abs(point.value)
    else:
        ok = abs(simulated - point.value) <= point.abs_tol
    return ("PASS" if ok else "FAIL"), simulated


def run_check(rows: List[Dict[str, str]],
              points: List[ReferencePoint]) -> Tuple[List[str], int]:
    lines = []
    failed = missing = 0
    for point in points:
        status, simulated = evaluate_point(point, rows)
        label = f"{status} {point.point_id} [{point.source}] {point.metric}"
        if status == "MISSING":
            missing += 1
            lines.append(f"{label}: report has no rows for this point")
            continue
        if point.value:
            err = f"{(simulated - point.value) / point.value:+.1%}"
        else:
            err = f"{simulated - point.value:+.3f} absolute"
        tol = (f"{point.rel_tol:g} relative" if point.rel_tol is not None
               else f"{point.abs_tol:g} absolute")
        lines.append(f"{label}: simulated {simulated:.3f} vs published "
                     f"{point.value:g} ({err}, tolerance {tol})")
        failed += status == "FAIL"
    passed = len(points) - failed - missing
    lines.append(f"{passed} passed, {failed} failed, {missing} not covered "
                 f"by the report")
    return lines, failed


# -- verbs --------------------------------------------------------------------


def _parse_set(items: List[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = (part.strip() for part in item.partition("="))
        # one line, so one --set sets one key
        if not sep or not key or not raw or len(item.splitlines()) > 1:
            raise ConfigError(f"--set expects one key=value, got {item!r}")
        if key in overrides:  # as a config file refuses a duplicate key
            raise ConfigError(f"--set gives {key} twice")
        overrides[key] = parse_value(raw)
    return overrides


def cmd_simulate(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in Scenario.__dataclass_fields__}
    scenario = Scenario("cli", overrides=_parse_set(args.set), **given)
    plan = scenario.build_plan()
    with ExitStack() as files:
        out = _output(files, args.output)
        trace_out = None if args.trace is None else _output(files, args.trace)
        row, trace = run_plan(scenario, plan, keep_trace=trace_out is not None)
        out.write(render_csv([row]))
        if trace_out is not None:  # piece by piece, never the whole text at once
            trace_out.writelines(trace.json_chunks(indent=2))
            trace_out.write("\n")
    return 0


def cmd_sweep(args) -> int:
    scenarios = scenarios_from_config(load_config(args.scenarios))
    if not scenarios:
        raise ConfigError(f"{args.scenarios}: no scenarios defined")
    plans = []
    for scenario in scenarios:  # a bad scenario fails before any of them runs
        try:
            plans.append(scenario.build_plan())
        except (KeyError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(f"{scenario.scenario_id}: {_message(exc)}") from None
    with ExitStack() as files:
        out = _output(files, args.output)
        rows = [run_plan(scenario, plan, keep_trace=False)[0]
                for scenario, plan in zip(scenarios, plans)]
        out.write(render_csv(rows))
    return 0


def cmd_check(args) -> int:
    rows = read_report(args.report)
    if args.references is not None:
        points = parse_reference_points(load_config(args.references))
    else:
        points = load_bundled_references()
    if not points:
        print("no reference points loaded; nothing to check")
        return 0
    lines, failed = run_check(rows, points)
    print("\n".join(lines))
    return 1 if failed else 0


def cmd_plan_affinity(args) -> int:
    node = _node_profile(args.node)
    plan = plan_affinity(node, args.ranks, args.threads_per_rank)
    print(f"node {node.name}: {len(plan.ranks)} ranks, "
          f"{len(plan.ranks[0].cores)} cores each")
    for binding in plan.ranks:
        cores = (f"{binding.cores[0]}-{binding.cores[-1]}"
                 if len(binding.cores) > 1 else str(binding.cores[0]))
        print(f"rank{binding.rank}: gcd={binding.gcd} ccx={binding.ccx} "
              f"nic={binding.nic} cores={cores} mask={binding.cpu_bind_mask()}")
    for line in plan.env_lines():
        print(line)
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_scenario_flags(sub) -> None:
    """Flags for the run fields of ``Scenario``.  An absent flag leaves no
    attribute, so the field takes the default ``Scenario`` gives it."""
    absent = argparse.SUPPRESS
    sub.add_argument("--system", required=True,
                     help="benchmark system preset id")
    sub.add_argument("--profile", required=True,
                     help="runtime profile id")
    sub.add_argument("--ranks", type=int, default=absent)
    sub.add_argument("--backend", default=absent)
    sub.add_argument("--max-cached-nodes", type=int, default=absent,
                     dest="max_cached_nodes")
    sub.add_argument("--instant", action="store_true", default=absent,
                     help="submit work as it arrives instead of batching")
    sub.add_argument("--event-mode", choices=["coarse", "full"],
                     default=absent, dest="event_mode")
    sub.add_argument("--eras", type=int, default=absent,
                     help="neighbour-list eras to run; the first is warm-up")
    sub.add_argument("--seed", type=int, default=absent)
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a system., profile. or settings. field")


class _Parser(argparse.ArgumentParser):
    """Usage errors reach ``main`` as one-line ``ConfigError``s."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdgpusim",
        description="Deterministic simulator of GPU-offloaded MD step "
                    "execution on multi-GPU nodes")
    verbs = parser.add_subparsers(dest="verb", required=True)

    sim = verbs.add_parser("simulate", help="run one scenario")
    _add_scenario_flags(sim)
    sim.add_argument("--output", default=None, help="CSV path (default stdout)")
    sim.add_argument("--trace", default=None,
                     help="also save the event trace JSON here")
    sim.set_defaults(func=cmd_simulate)

    sweep = verbs.add_parser("sweep", help="run a scenario matrix")
    sweep.add_argument("--scenarios", required=True,
                       help="scenario config file")
    sweep.add_argument("--output", default=None,
                       help="CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    chk = verbs.add_parser("check",
                           help="compare a report against reference points")
    chk.add_argument("--report", required=True, help="CSV report to check")
    chk.add_argument("--references", default=None,
                     help="reference points config (default: bundled set)")
    chk.set_defaults(func=cmd_check)

    aff = verbs.add_parser("plan-affinity",
                           help="print rank-to-device bindings")
    aff.add_argument("--node", required=True, help="node topology profile")
    aff.add_argument("--ranks", type=int, required=True)
    aff.add_argument("--threads-per-rank", type=int, default=None,
                     dest="threads_per_rank")
    aff.set_defaults(func=cmd_plan_affinity)

    return parser


def _message(exc: Exception):
    # a KeyError's str() quotes its message
    return exc.args[0] if exc.args else str(exc)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KeyError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a finite setting so large a duration overflows
        print(f"error: a setting is too large to simulate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be opened, read or written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
