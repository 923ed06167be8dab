"""Per-figure harnesses for the main evaluation (Figures 1b, 6-9, 11).

Each ``figN_*`` function runs (or reuses) the technique sweep and
returns the numbers the corresponding paper plot shows, plus a
rendered text table.  The benchmark suite calls these and asserts the
paper's qualitative shape; EXPERIMENTS.md records paper-vs-measured.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..gpu.config import GPUConfig
from ..gpu.isa import ROLE_INDIRECT_CALL
from ..techniques import figure_techniques
from .report import format_table, matrix_table
from .runner import (
    DEFAULT_SCALE,
    geomean,
    geomean_by_technique,
    normalized,
    run_sweep,
)

#: level weights approximating relative service cost (L1/L2/DRAM)
_LEVEL_WEIGHTS = (1.0, 5.0, 16.0)


@dataclass
class FigureResult:
    """One reproduced figure: per-cell values, summary, text table."""

    figure: str
    values: Dict
    summary: Dict[str, float]
    table: str

    def __str__(self) -> str:
        return self.table


# ----------------------------------------------------------------------
# Figure 1b: direct-cost breakdown of a CUDA virtual function call
# ----------------------------------------------------------------------
def fig1_breakdown(
    workloads: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    """Latency attribution of the three dispatch operations under CUDA.

    Weighs each role's memory traffic by where it was served (L1/L2/
    DRAM) and charges the indirect call one issue slot per executed
    branch; the paper measures ~87% for the vTable-pointer load A.
    """
    records = run_sweep(workloads, techniques=("cuda",), scale=scale,
                        config=config, seed=seed)
    costs = {"load_vtable_ptr": 0.0, "load_vfunc_ptr": 0.0,
             "indirect_call": 0.0}
    for rec in records.values():
        for role in ("load_vtable_ptr", "load_vfunc_ptr"):
            l1, l2, dram = rec.role_levels.get(role, (0, 0, 0))
            costs[role] += (
                l1 * _LEVEL_WEIGHTS[0] + l2 * _LEVEL_WEIGHTS[1]
                + dram * _LEVEL_WEIGHTS[2]
            )
        costs["indirect_call"] += rec.role_instrs.get(ROLE_INDIRECT_CALL, 0)
    total = sum(costs.values()) or 1.0
    shares = {k: v / total for k, v in costs.items()}
    table = format_table(
        ["operation", "share"],
        [["A: load vTable*", shares["load_vtable_ptr"]],
         ["B: load vFunc*", shares["load_vfunc_ptr"]],
         ["C: indirect call", shares["indirect_call"]]],
        title="Figure 1b: direct-cost breakdown (CUDA, avg over apps)",
    )
    return FigureResult("fig1b", costs, shares, table)


# ----------------------------------------------------------------------
# Figure 6: performance normalized to SharedOA
# ----------------------------------------------------------------------
def fig6_performance(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    if techniques is None:
        techniques = figure_techniques()
    records = run_sweep(workloads, techniques, scale=scale, config=config,
                        seed=seed)
    perf = normalized(records, "cycles", baseline="sharedoa", invert=True)
    gm = geomean_by_technique(perf)
    table = matrix_table(
        perf, techniques, gm_row=gm,
        title="Figure 6: performance normalized to SharedOA "
              "(paper GM: CUDA 0.59, Concord 0.72, COAL 1.06, TP 1.12)",
    )
    return FigureResult("fig6", perf, gm, table)


# ----------------------------------------------------------------------
# Figure 7: dynamic warp instruction breakdown normalized to SharedOA
# ----------------------------------------------------------------------
def fig7_instruction_mix(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    if techniques is None:
        techniques = figure_techniques()
    records = run_sweep(workloads, techniques, scale=scale, config=config,
                        seed=seed)
    values: Dict[Tuple[str, str], Dict[str, float]] = {}
    workload_set: List[str] = []
    for (wl, tech), rec in records.items():
        if wl not in workload_set:
            workload_set.append(wl)
        base = records[(wl, "sharedoa")].total_warp_instrs
        values[(wl, tech)] = {
            klass: n / base for klass, n in rec.warp_instrs.items()
        }
    # average relative instruction growth per technique
    summary = {}
    for tech in techniques:
        totals = [
            sum(values[(wl, tech)].values()) for wl in workload_set
        ]
        summary[tech] = sum(totals) / len(totals)
    rows = []
    for wl in workload_set:
        for tech in techniques:
            v = values[(wl, tech)]
            rows.append([wl, tech, v.get("MEM", 0.0), v.get("COMPUTE", 0.0),
                         v.get("CTRL", 0.0), sum(v.values())])
    table = format_table(
        ["workload", "technique", "MEM", "COMPUTE", "CTRL", "total"],
        rows,
        title="Figure 7: warp instructions normalized to SharedOA "
              "(paper avg growth: Concord +28%, COAL +83%, TP +19%)",
    )
    return FigureResult("fig7", values, summary, table)


# ----------------------------------------------------------------------
# Figure 8: global load transactions normalized to SharedOA
# ----------------------------------------------------------------------
def fig8_load_transactions(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    if techniques is None:
        techniques = figure_techniques()
    records = run_sweep(workloads, techniques, scale=scale, config=config,
                        seed=seed)
    ratios = normalized(records, "gld_transactions", baseline="sharedoa")
    gm = geomean_by_technique(ratios)
    table = matrix_table(
        ratios, techniques, gm_row=gm,
        title="Figure 8: global load transactions normalized to SharedOA "
              "(paper GM: CUDA 1.00, Concord 0.82, COAL 0.86, TP 0.81)",
    )
    return FigureResult("fig8", ratios, gm, table)


# ----------------------------------------------------------------------
# Figure 9: L1 hit rate
# ----------------------------------------------------------------------
def fig9_l1_hit_rate(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    if techniques is None:
        techniques = figure_techniques()
    records = run_sweep(workloads, techniques, scale=scale, config=config,
                        seed=seed)
    values = {
        (wl, tech): rec.l1_hit_rate for (wl, tech), rec in records.items()
    }
    by_tech: Dict[str, List[float]] = {}
    for (_, tech), v in values.items():
        by_tech.setdefault(tech, []).append(v)
    summary = {t: sum(v) / len(v) for t, v in by_tech.items()}
    table = matrix_table(
        values, techniques, gm_row=summary, gm_label="AVG",
        title="Figure 9: L1 hit rate (paper avg: CUDA 31%, Concord 31%, "
              "SharedOA 44%, COAL 47%, TP 45%)",
    )
    return FigureResult("fig9", values, summary, table)


# ----------------------------------------------------------------------
# Figure 11: TypePointer on the default CUDA allocator
# ----------------------------------------------------------------------
def fig11_tp_on_cuda(
    workloads: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> FigureResult:
    """TypePointer's gain without changing object allocation."""
    records = run_sweep(workloads, techniques=("cuda", "tp_on_cuda"),
                        scale=scale, config=config, seed=seed)
    perf = normalized(records, "cycles", baseline="cuda", invert=True)
    gm = geomean_by_technique(perf)
    table = matrix_table(
        perf, ("cuda", "tp_on_cuda"), gm_row=gm,
        title="Figure 11: TypePointer on the CUDA allocator, normalized "
              "to CUDA (paper GM: 1.18)",
    )
    return FigureResult("fig11", perf, gm, table)
