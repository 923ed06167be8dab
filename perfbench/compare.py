"""Summaries and parent-vs-change verdicts over ``run --output`` files.

The verdict rule follows the choosing-metrics method:

``better``      the change wins at least 9 of 10 alternated pairs and
                its median beats the parent's by more than the parent's
                quartile spread
``worse``       the change's median is worse than the parent's by more
                than the bound, and either the parent's quartile spread
                is within the bound or every change run is worse than
                every parent run
``unresolved``  the parent's own quartile spread is wider than the
                bound, unless every change run beats every parent run
``unchanged``   otherwise
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def load_results(paths: Sequence[str]) -> List[Dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(results: List[Dict], workload: str, metric: str) -> List[float]:
    """The metric's values across result files, in file order."""
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in results
            if metric in r["workloads"].get(workload, {}).get("metrics", {})]


def summarize(results: List[Dict]) -> Dict[str, Dict[str, Dict]]:
    """workload -> metric -> {median, q1, q3, n, unit}."""
    out: Dict[str, Dict[str, Dict]] = {}
    for r in results:
        for wl, res in r["workloads"].items():
            for metric, m in res["metrics"].items():
                out.setdefault(wl, {}).setdefault(metric, {"unit": m["unit"]})
    for wl, metrics in out.items():
        for metric, entry in metrics.items():
            values = series(results, wl, metric)
            q1, med, q3 = quartiles(values)
            entry.update(median=med, q1=q1, q3=q3, n=len(values))
    return out


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool) -> Dict:
    """Compare two series of one metric (pairs are taken index-wise)."""
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs) if pairs else 0.0
    if lower_is_better:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    else:
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    spread = (p3 - p1) / pm if pm else 0.0
    if wins >= 0.9 and sign * (pm - cm) > p3 - p1:
        label = "better"
    elif worse_by > bound and (spread <= bound or all_worse):
        label = "worse"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": (p1, pm, p3, len(parent)), "change": (c1, cm, c3, len(change)),
            "worse_by": worse_by, "of_bound": worse_by / bound if bound else 0.0,
            "wins": wins, "spread": spread, "verdict": label}


def compare(parent: List[Dict], change: List[Dict], end_to_end: List[Dict]) -> List[Dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    workloads = sorted({wl for r in parent for wl in r["workloads"]}
                       & {wl for r in change for wl in r["workloads"]})
    for wl in workloads:
        for m in end_to_end:
            p, c = series(parent, wl, m["name"]), series(change, wl, m["name"])
            if p and c:
                rows.append({"workload": wl, "metric": m["name"], "unit": m["unit"],
                             **verdict(p, c, m["bound"], m["better"] == "lower")})
    return rows


def format_rows(rows: List[Dict]) -> str:
    head = (f"{'workload':14s} {'metric':12s} {'parent median [q1, q3] n':>34s} "
            f"{'change median [q1, q3] n':>34s} {'worse by':>9s} {'/bound':>7s} "
            f"{'wins':>5s}  verdict")
    lines = [head]

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {q[3]}"

    for r in rows:
        lines.append(
            f"{r['workload']:14s} {r['metric']:12s} {cell(r['parent']):>34s} "
            f"{cell(r['change']):>34s} {r['worse_by']:+9.2%} {r['of_bound']:+7.2f} "
            f"{r['wins']:5.0%}  {r['verdict']}")
    return "\n".join(lines)
