"""Lane-batched kernels equal their per-warp runs, counter for counter.

The Figure 12 microbenchmark kernels and 14 of the Figure 6 workloads'
launches declare ``independent_warps`` and run once per wave.  Run
once per warp instead, warp after warp, they must leave every
``KernelStats`` field, the launch history, the heap, the replay memo's
hash chain, the mapped pages and the constant-cache and TLB statistics
equal.
"""
from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.frontend import kernel
from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.harness.runner import ReplayMemo
from repro.techniques import available
from repro.workloads import make_workload, microbench, workload_names
from repro.workloads.microbench import BranchMicrobench, ObjectMicrobench

#: 8-warp waves keep the per-warp side cheap; 529 threads are then 17
#: warps: two full waves and a last wave of one partial warp
_WAVES = {"resident_warps_per_sm": 2}
CONFIGS = {
    "small": small_config().with_overrides(**_WAVES),
    "small+tlb": small_config().with_overrides(model_tlb=True, **_WAVES),
}
THREADS = 2 * 8 * 32 + 17
ITERATIONS = 2


def _observe(machine: Machine, stats) -> dict:
    heap = machine.heap
    tlb = machine.tlb
    return {
        "stats": dataclasses.asdict(stats),
        "role_order": (list(stats.role_transactions),
                       list(stats.role_instrs)),
        "history": [(name, dataclasses.asdict(s))
                    for name, s in machine.launch_history],
        "heap": hashlib.sha1(heap.read_array(
            heap.null_guard, "u8", heap.brk - heap.null_guard).tobytes()
        ).hexdigest(),
        "chain": machine._trace_chain,
        "pages": machine.mmu.mapped_page_count,
        "const": dataclasses.asdict(machine.constmem.stats),
        "tlb": dataclasses.asdict(tlb.stats) if tlb is not None else None,
    }


def _run(technique: str, num_types: int, config) -> dict:
    if technique == "branch":
        machine = Machine("cuda", config=config)
        machine.set_replay_memo(ReplayMemo())
        bench = BranchMicrobench(machine, THREADS, num_types)
    else:
        machine = Machine(technique, config=config)
        machine.set_replay_memo(ReplayMemo())
        bench = ObjectMicrobench(machine, THREADS, num_types)
    return _observe(machine, bench.run(iterations=ITERATIONS))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("num_types", [1, 3, 32])
@pytest.mark.parametrize("technique", ("branch",) + available())
def test_batched_equals_per_warp(monkeypatch, technique, num_types, config):
    cfg = CONFIGS[config]
    assert microbench.work_all.independent_warps
    assert microbench.branch_payload.independent_warps
    batched = _run(technique, num_types, cfg)

    for name in ("work_all", "branch_payload"):
        monkeypatch.setattr(microbench, name,
                            kernel(getattr(microbench, name).fn))
    per_warp = _run(technique, num_types, cfg)

    assert batched["stats"]["cycles"] > 0
    for key in per_warp:
        assert batched[key] == per_warp[key], key


# ----------------------------------------------------------------------
# Figure 6 workloads
# ----------------------------------------------------------------------
FIG6_CONFIG = small_config().with_overrides(model_tlb=True, **_WAVES)
FIG6_TECHNIQUES = ("cuda", "concord", "coal", "typepointer_proto", "soa")
FIG6_SCALE = 0.02

#: the launches that break the contract and stay per warp
PER_WARP = {
    "TRAF": {"move_kernel"},        # warps claim shared occupancy cells
    "BFS-vE": {"edge_kernel"},      # atomicMin into the level it reads
    "CC-vE": {"edge_kernel"},       # atomicMin into the label it reads
}


def _force_launches(monkeypatch, batched):
    """Run every launch with ``independent_warps=batched(label, declared)``
    and record ``(label, declared)`` per launch."""
    launch = Machine.launch
    seen = []

    def forced(self, kernel, num_threads, label=None,
               independent_warps=False):
        name = label or kernel.__name__
        seen.append((name, independent_warps))
        return launch(self, kernel, num_threads, label=label,
                      independent_warps=batched(name, independent_warps))

    monkeypatch.setattr(Machine, "launch", forced)
    return seen


def _run_fig6(workload: str, technique: str) -> dict:
    machine = Machine(technique, config=FIG6_CONFIG)
    machine.set_replay_memo(ReplayMemo())
    wl = make_workload(workload, machine, scale=FIG6_SCALE, seed=11)
    out = _observe(machine, wl.run(iterations=1))
    out["checksum"] = wl.checksum()
    return out


@pytest.mark.parametrize("technique", FIG6_TECHNIQUES)
@pytest.mark.parametrize("workload", workload_names())
def test_fig6_batched_equals_per_warp(monkeypatch, workload, technique):
    seen = _force_launches(monkeypatch, lambda name, declared: declared)
    batched = _run_fig6(workload, technique)
    assert {name for name, declared in seen if not declared} == \
        PER_WARP.get(workload, set())

    _force_launches(monkeypatch, lambda name, declared: False)
    per_warp = _run_fig6(workload, technique)

    for key in per_warp:
        assert batched[key] == per_warp[key], key

