"""Lane-batched kernels equal their per-warp runs, counter for counter.

The Figure 12 microbenchmark kernels declare ``independent_warps`` and
run once per wave.  The same functions decorated without the
declaration run once per warp, warp after warp.  Both runs must leave
every ``KernelStats`` field, the launch history, the heap, the replay
memo's hash chain, the mapped pages and the constant-cache and TLB
statistics equal.
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
from repro.workloads import microbench
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
