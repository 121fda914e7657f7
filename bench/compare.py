"""Compare two benchmark result files metric by metric.

A result file holds one JSON record per line, as ``run.py --append``
writes them.  For every workload and metric found in both files this
prints the parent median, the change median, their ratio and each
side's spread (interquartile range over the median), and flags an
end-to-end metric whose change median is worse than the parent's by
more than its bound in ``BENCHMARK.json``.  Where a side's spread is
wider than the bound the verdict is ``unresolved``, not ``ok``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple


def load_results(path: Path) -> Dict[str, List[dict]]:
    """Records grouped by workload."""
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload[record["workload"]].append(record)
    return by_workload


def spread(values: List[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _values(records: List[dict], metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def verdict(metric: dict, parent: List[float], change: List[float]) -> str:
    bound = metric.get("bound")
    if bound is None:
        return "-"
    ratio = statistics.median(change) / statistics.median(parent)
    worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if worse > bound:
        return "REGRESSION"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "ok"


def compare(parent_path: Path, change_path: Path, spec: dict) -> Tuple[List[str], int]:
    """Report lines and the number of regressions flagged."""
    parent, change = load_results(parent_path), load_results(change_path)
    metrics = spec["end_to_end"] + spec["per_layer"]
    lines = []
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload], change[workload]
        p_failed = sum(r["result"]["failed"] for r in p_recs)
        c_failed = sum(r["result"]["failed"] for r in c_recs)
        lines.append(f"== {workload}: parent {len(p_recs)} runs, {p_failed} failed "
                     f"checks; change {len(c_recs)} runs, {c_failed} failed checks")
        if c_failed > p_failed:
            regressions += 1
            lines.append("   REGRESSION: the change fails more checks")
        lines.append(f"   {'metric':<40}{'unit':>7}{'parent':>14}{'change':>14}"
                     f"{'ratio':>8}{'spread_p':>10}{'spread_c':>10}  verdict")
        for metric in metrics:
            p_vals = _values(p_recs, metric["name"])
            c_vals = _values(c_recs, metric["name"])
            if not p_vals or not c_vals:
                continue
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            v = verdict(metric, p_vals, c_vals)
            regressions += v == "REGRESSION"
            ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
            lines.append(f"   {metric['name']:<40}{metric['unit']:>7}{p_med:>14.6g}"
                         f"{c_med:>14.6g}{ratio:>8}{spread(p_vals):>10.3f}"
                         f"{spread(c_vals):>10.3f}  {v}")
    if not lines:
        lines.append("no workload appears in both result files")
    return lines, regressions
