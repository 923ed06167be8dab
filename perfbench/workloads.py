"""The benchmark's four workloads.

Each workload is a batch job driven by one client (a closed loop).  A
workload's :meth:`execute` runs once per rep inside a fresh process; it
brackets its untimed preparation with ``clock.setup()`` and its timed
part with ``clock.timed()``, and returns the operations' outputs
(``ops``: label -> value) that the benchmark checks.  A workload with a
:meth:`fill` step gets that step run in its own process first; its wall
time counts as set-up.

Sizes are shrunk from the paper's settings so that one rep takes a few
seconds and a run repeats several reps within its time window.
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.gpu.config import scaled_config
from repro.gpu.machine import Machine
from repro.harness.registry import SMOKE_PARAMS, ExperimentOptions, experiment_names, get_experiment
from repro.harness.runner import ReplayMemo, cache_get, cache_key
from repro.harness.service import ExperimentService
from repro.techniques import figure_techniques, microbench_techniques
from repro.workloads import make_workload, workload_names
from repro.workloads.microbench import BranchMicrobench, ObjectMicrobench

from . import SRC, tracing


def same(a, b) -> bool:
    """Output equality: exact, except floats agree to 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and math.isclose(a, b, rel_tol=1e-9)
    return a == b


def _sim(rows) -> Dict[str, float]:
    """Simulated-work totals over ``(warp_instrs, mem_txns, l1_hit_rate,
    dram_accesses, vfunc_calls, cycles)`` rows, one per cell or point."""
    rows = list(rows)
    return {
        "warp_instrs": sum(r[0] for r in rows),
        "mem_txns": sum(r[1] for r in rows),
        "l1_hit_rate": sum(r[2] for r in rows) / len(rows) if rows else 0.0,
        "dram_accesses": sum(r[3] for r in rows),
        "vfunc_calls": sum(r[4] for r in rows),
        "cycles": sum(r[5] for r in rows),
    }


def _collect() -> None:
    """Free the finished cell's machine between cells, untimed.  Machines
    hold reference cycles, so otherwise how many dead ones are alive at
    the peak depends on when the cyclic collector happens to run, which
    makes peak RSS (and the timed parts that host a collection) noisy."""
    gc.collect()


def _stats_row(s) -> tuple:
    return (s.total_warp_instrs,
            s.global_load_transactions + s.global_store_transactions,
            s.l1_hit_rate, s.dram_accesses, s.vfunc_calls, s.cycles)


class Fig6Cold:
    """What ``python -m repro fig6`` does in a fresh process, per cell:
    set-up is ``Machine(...)`` + ``Workload.setup()``, timed is
    ``Workload.run()``; one fresh in-process replay memo per rep."""

    name = "fig6-cold"
    why = ("The paper's headline sweep (11 workloads x 6 techniques): capture "
           "dominates, replay is second, and every launch is one wave.")
    seeded = True

    def __init__(self, scale: float = 0.05,
                 workloads: Optional[Sequence[str]] = None,
                 techniques: Optional[Sequence[str]] = None):
        self.scale = scale
        self.workloads = tuple(workloads or workload_names())
        self.techniques = tuple(techniques or figure_techniques())

    def spec(self) -> Dict:
        return {"scale": self.scale, "workloads": list(self.workloads),
                "techniques": list(self.techniques)}

    def execute(self, clock, seed: int, scratch: Path, filled=None) -> Dict:
        cfg = scaled_config()
        memo = ReplayMemo()
        ops, rows = {}, []
        for wl_name in self.workloads:
            for tech in self.techniques:
                label = f"{wl_name}/{tech}"
                with tracing.cell(label):
                    with clock.setup():
                        machine = Machine(tech, config=cfg)
                        machine.set_replay_memo(memo)
                        wl = make_workload(wl_name, machine, scale=self.scale, seed=seed)
                        wl.setup()
                        wl._setup_done = True   # so run() times the iterations only
                        machine.reset_run()
                    with clock.timed():
                        stats = wl.run()
                ops[label] = {
                    "checksum": float(wl.checksum()),
                    "cycles": float(stats.cycles),
                    "l1_accesses": stats.l1_accesses,
                    "l2_accesses": stats.l2_accesses,
                    "dram_accesses": stats.dram_accesses,
                    "dram_row_misses": stats.dram_row_misses,
                    "warp_instrs": stats.total_warp_instrs,
                }
                rows.append(_stats_row(stats))
                del machine, wl
                _collect()
        return {"ops": ops, "sim": _sim(rows)}

    def check(self, ops: Dict, filled=None) -> Set[str]:
        """Cells whose checksum disagrees with the workload's first technique."""
        bad = set()
        for wl_name in self.workloads:
            first = ops[f"{wl_name}/{self.techniques[0]}"]["checksum"]
            bad |= {f"{wl_name}/{t}" for t in self.techniques
                    if not same(ops[f"{wl_name}/{t}"]["checksum"], first)}
        return bad


class Fig12bTypes:
    """Figure 12b cells: ``branch`` plus the microbench techniques at a
    fixed object count for a few types-per-warp settings.  Set-up is
    ``Machine`` + microbench construction (heap sized as
    ``harness.scalability`` does); timed is ``.run(iterations=1)``.  No
    replay memo is attached."""

    name = "fig12b-types"
    why = ("Figure 12b at 2 and 32 types per warp: vcall serialization over up "
           "to 32 targets dominates, launches are multi-wave, no replay memo.")
    seeded = False

    def __init__(self, num_objects: int = 16384,
                 type_counts: Sequence[int] = (2, 32),
                 techniques: Optional[Sequence[str]] = None):
        self.num_objects = num_objects
        self.type_counts = tuple(type_counts)
        self.techniques = ("branch",) + tuple(techniques or microbench_techniques())

    def spec(self) -> Dict:
        return {"num_objects": self.num_objects, "type_counts": list(self.type_counts),
                "techniques": list(self.techniques)}

    def execute(self, clock, seed: int, scratch: Path, filled=None) -> Dict:
        cfg = scaled_config()
        n = self.num_objects
        ops, rows = {}, []
        for types in self.type_counts:
            for tech in self.techniques:
                label = f"{tech}/{types}"
                with tracing.cell(label):
                    with clock.setup():
                        if tech == "branch":
                            machine = Machine("cuda", config=cfg, heap_capacity=1 << 22)
                            bench = BranchMicrobench(machine, n, types)
                        else:
                            machine = Machine(tech, config=cfg,
                                              heap_capacity=max(1 << 22, n * 64))
                            bench = ObjectMicrobench(machine, n, types)
                    with clock.timed():
                        stats = bench.run(iterations=1)
                ops[label] = {"cycles": float(stats.cycles),
                              "values_ok": self._values_ok(bench, types)}
                rows.append(_stats_row(stats))
                del machine, bench
                _collect()
        return {"ops": ops, "sim": _sim(rows)}

    @staticmethod
    def _values_ok(bench, types: int) -> bool:
        """After one iteration element ``i`` holds ``i % types + 1``."""
        if isinstance(bench, BranchMicrobench):
            got = bench.data.read()
            return bool((got == np.arange(len(got)) % types + 1).all())
        return all(
            bool((bench.machine.read_field(bench.ptrs[t::types], leaf, "value")
                  == t + 1).all())
            for t, leaf in enumerate(bench.leaves)
        )

    def check(self, ops: Dict, filled=None) -> Set[str]:
        return {label for label, out in ops.items() if not out["values_ok"]}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


class AllCold:
    """``ExperimentService(workers, store_dir=<fresh>).run(...)`` over the
    experiment registry with ``--quick`` parameters, then every render.
    Set-up is what a fresh ``python -m repro all`` pays before its first
    shard: an interpreter start plus the package import.

    Seedless, like ``repro all``, which has no seed option: the sweep
    experiments' parent-side renders always read seed-7 cells, so any
    other ``ExperimentOptions.seed`` would make the parent recompute every
    cell serially after the shards ran."""

    name = "all-cold"
    why = ("repro all --quick on a cold store with 2 workers: the only workload "
           "with fork, pickle and merge, parent-side renders and store writes.")
    seeded = False
    scale = 0.02
    #: shard workers: ``nproc`` of the 2-core host the bounds were set on
    workers = 2

    def __init__(self, experiments: Optional[Sequence[str]] = None,
                 workloads: Optional[Sequence[str]] = None):
        self.experiments = tuple(experiments or experiment_names())
        self.workloads = tuple(workloads) if workloads else None

    def spec(self) -> Dict:
        return {"experiments": list(self.experiments),
                "workloads": list(self.workloads) if self.workloads else None}

    def options(self) -> ExperimentOptions:
        return ExperimentOptions(scale=self.scale, workloads=self.workloads,
                                 params=SMOKE_PARAMS)

    def execute(self, clock, seed: int, scratch: Path, filled=None) -> Dict:
        with clock.setup():
            subprocess.run([sys.executable, "-c", "import repro.__main__"],
                           env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
            service = ExperimentService(self.workers, store_dir=str(scratch / "store"))
        return self._serve(clock, service, scratch)

    def _serve(self, clock, service: ExperimentService, scratch: Path) -> Dict:
        options = self.options()
        with clock.timed():
            run = service.run(self.experiments, options)
            renders = {name: run.render(name) for name in self.experiments}
        ops = {f"shard:{r.shard}": r.outcome for r in run.reports}
        ops.update({f"render:{name}": _digest(text) for name, text in renders.items()})
        cells = sorted({cell for name in self.experiments
                        if get_experiment(name).cells is not None
                        for cell in get_experiment(name).cells(options)})
        records = [cache_get(cache_key(wl, tech, options.scale, None,
                                       options.config, options.seed))
                   for wl, tech in cells]
        rows = [(r.total_warp_instrs, r.gld_transactions + r.gst_transactions,
                 r.l1_hit_rate, r.dram_accesses, r.vfunc_calls, r.cycles)
                for r in records]
        return {
            "ops": ops,
            "sim": _sim(rows),
            "service": {"workers": self.workers, "shards": len(run.reports),
                        "not_ok": sum(r.outcome != "ok" for r in run.reports),
                        "shard_wall_s": sum(r.wall_s for r in run.reports)},
            "store_mb": _dir_mb(scratch / "store"),
        }

    def check(self, ops: Dict, filled=None) -> Set[str]:
        """Shards that did not succeed on their first worker attempt."""
        return {label for label, out in ops.items()
                if label.startswith("shard:") and out != "ok"}


class AllWarm(AllCold):
    """The ``all-cold`` call against the store that an untimed cold pass
    (its fill step, in its own process) just filled."""

    name = "all-warm"
    why = ("all-cold again on the store a cold pass just filled: every wave is "
           "a memo hit, so replay is bypassed while store reads and hashing stay.")

    def fill(self, seed: int, scratch: Path) -> Dict[str, str]:
        """The cold pass; returns its render digests."""
        service = ExperimentService(self.workers, store_dir=str(scratch / "store"))
        run = service.run(self.experiments, self.options())
        return {f"render:{name}": _digest(run.render(name)) for name in self.experiments}

    def execute(self, clock, seed: int, scratch: Path, filled=None) -> Dict:
        with clock.setup():
            service = ExperimentService(self.workers, store_dir=str(scratch / "store"))
        return self._serve(clock, service, scratch)

    def check(self, ops: Dict, filled=None) -> Set[str]:
        """Failed shards, and renders that differ from the cold pass's."""
        return super().check(ops) | {label for label, digest in (filled or {}).items()
                                     if ops.get(label) != digest}


def default_workloads() -> Dict[str, object]:
    """The benchmark's workloads at their declared sizes, by name."""
    return {w.name: w for w in (Fig6Cold(), Fig12bTypes(), AllCold(), AllWarm())}
