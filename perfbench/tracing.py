"""Layer tracing for ``--trace`` runs.

:func:`install` wraps the public entry points of every simulator layer
in ``obs.span("bench.<layer>")``; :func:`layer_metrics` turns the span
tree one traced rep recorded into the per-layer metrics declared in
``BENCHMARK.json``.

Patching is process-wide, so the benchmark installs it only inside a
traced rep's own process: the parent and every untraced rep run
unmodified code.  Service shard workers forked by a traced rep inherit
the patches, and their spans come back through the telemetry the
service already merges into the caller's registry.

Self-time pitfall: the executor folds its ``machine.capture``/
``coalesce``/``replay`` phase times into ``machine.launch`` with
``add_time``, so ``bench.*`` spans opened inside a launch become their
siblings and the traced tree breaks obs's children <= parent invariant.
Layer times are therefore computed from ``bench.*`` nodes only, and only
untraced dumps are validated.
"""
from __future__ import annotations

import contextlib
import functools
import types
from collections import defaultdict
from typing import Dict, Iterable, Optional

import numpy as np

from repro import obs

SETUP = "bench.setup"

#: spans that partition a rep's host time: set-up, kernel launches
#: (capture + coalesce + memo + replay + timing finalize), host-side
#: memory work between launches (object construction and destruction,
#: field writes, heap reads and writes) and the replay store's reads
#: and merges
PARTITION = frozenset({SETUP, "bench.launch", "bench.alloc", "bench.write_field",
                       "bench.heap", "store.bucket_load", "store.bucket_merge"})

#: prefix of the span each service shard runs under (worker side)
SHARD_PREFIX = "service.shard."

#: span around each set-up and timed region of a traced rep; partition
#: spans outside it (e.g. reading outputs back) are not rep time
MEASURED = "bench.measured"

_installed = False


def cell(label: str):
    """Key the spans of one request (a sweep cell or microbench point)
    in a traced rep; a no-op context otherwise."""
    return obs.span(f"cell:{label}") if _installed else contextlib.nullcontext()


def measured():
    """Mark a set-up or timed region in a traced rep; a no-op otherwise."""
    return obs.span(MEASURED) if _installed else contextlib.nullcontext()


def _wrap(owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` with a version that runs inside span
    ``name``; ``after(args, result)`` runs outside the span and may
    bump counters."""
    if isinstance(owner, types.ModuleType):
        fn = getattr(owner, attr)
    else:
        fn = owner.__dict__[attr]   # the class's own function, not an inherited one
    span = obs.span

    if after is None:
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
    else:
        def traced(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
            after(args, out)
            return out

    setattr(owner, attr, functools.update_wrapper(traced, fn))


def _own_classes(module, attr: str) -> Iterable[type]:
    """Concrete classes defined in ``module`` that define ``attr`` themselves."""
    for cls in vars(module).values():
        if (isinstance(cls, type) and cls.__module__ == module.__name__
                and attr in cls.__dict__
                and not getattr(cls, "_is_protocol", False)
                and not getattr(cls.__dict__[attr], "__isabstractmethod__", False)):
            yield cls


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_targets(args, targets) -> None:
    obs.count("bench.targets", int(np.unique(targets).size))


def _count_txns(args, _out) -> None:
    obs.count("bench.replay_txns", sum(t.n_txns for t in args[1]))


def _count_digest(args, _out) -> None:
    t = args[0]
    header = 4 + 8   # sm and n_accesses, as digest_into encodes them
    obs.count("bench.digest_bytes", t.line.nbytes + t.mask.nbytes
              + t.txn_count.nbytes + t.store.nbytes + t.role.nbytes + header)


def install() -> None:
    """Wrap every layer's entry points (idempotent)."""
    global _installed
    if _installed:
        return
    from repro.core import dispatch
    from repro.gpu import executor, replay, timing
    from repro.gpu.machine import Machine
    from repro.gpu.stats import KernelStats
    from repro.gpu.trace import MemoryTrace
    from repro.harness import service
    from repro.memory.heap import Heap
    from repro.memory.mmu import MMU
    from repro.workloads.base import Workload
    from repro.workloads.microbench import BranchMicrobench, ObjectMicrobench

    _wrap(Machine, "__init__", SETUP)
    _wrap(ObjectMicrobench, "__init__", SETUP)
    _wrap(BranchMicrobench, "__init__", SETUP)
    for cls in set(_subclasses(Workload)):
        if "setup" in cls.__dict__:
            _wrap(cls, "setup", SETUP)
    _wrap(Machine, "new_objects", "bench.alloc")
    _wrap(Machine, "free_objects", "bench.alloc")
    _wrap(Machine, "write_field", "bench.write_field")
    _wrap(Machine, "launch", "bench.launch")
    _wrap(Machine, "replay_wave", "bench.memo")
    _wrap(executor.ExecutionContext, "vcall", "bench.vcall")
    _wrap(executor.ExecutionContext, "atomic", "bench.atomic")
    for cls in _own_classes(dispatch, "resolve"):
        _wrap(cls, "resolve", "bench.resolve", after=_count_targets)
    _wrap(MMU, "translate", "bench.mmu")
    for attr in ("gather", "scatter", "load", "store"):
        _wrap(Heap, attr, "bench.heap")
    _wrap(KernelStats, "add_instr", "bench.add_instr")
    _wrap(MemoryTrace, "append_access", "bench.append")
    _wrap(MemoryTrace, "finalize", "bench.coalesce")
    _wrap(MemoryTrace, "digest_into", "bench.digest", after=_count_digest)
    for cls in _own_classes(replay, "replay_wave"):
        _wrap(cls, "replay_wave", "bench.replay", after=_count_txns)
    _wrap(timing, "finalize_timing", "bench.finalize")
    _wrap(service, "run_shards", "bench.service.shards")
    _wrap(service.ExperimentService, "run", "bench.service.run")
    _installed = True


# ----------------------------------------------------------------------
# span-tree arithmetic
# ----------------------------------------------------------------------
class SpanTotals:
    """Per-name totals over an obs span tree.

    ``time(name)`` sums the outermost nodes called ``name`` (a nested
    call of the same layer is not counted twice); ``time(name, within)``
    only those below a ``within`` node; ``calls(name)`` counts every
    entry, nested or not.
    """

    def __init__(self, spans):
        self._time: Dict[tuple, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        self.covered = 0.0          # partition time in measured regions
        self.covered_shards = 0.0   # partition time inside shards
        self.shard_busy = 0.0       # time inside service shard spans
        for node in spans:
            self._walk(node, frozenset(), False, False)

    def _walk(self, node, above, in_part, in_shard) -> None:
        name = node["name"]
        self._calls[name] += node["count"]
        if name not in above:
            self._time[name, None] += node["total_s"]
            for outer in above:
                self._time[name, outer] += node["total_s"]
        if name.startswith(SHARD_PREFIX) and not in_shard:
            self.shard_busy += node["total_s"]
            in_shard = True
        if name in PARTITION and not in_part:
            if in_shard:
                self.covered_shards += node["total_s"]
            elif MEASURED in above:
                self.covered += node["total_s"]
            in_part = True
        inner = above | {name}
        for child in node["children"]:
            self._walk(child, inner, in_part, in_shard)

    def time(self, name: str, within: Optional[str] = None) -> float:
        return self._time.get((name, within), 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(payload: Dict, rep: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.

    ``payload`` is the rep's obs registry dump (worker shards merged
    in); ``rep`` carries what the rep measured directly: ``setup_s``,
    ``wall_s``, ``store_mb``, ``sim`` and, for service workloads,
    ``service`` (``workers``, ``shards``, ``not_ok``, ``shard_wall_s``).
    The ``bench.trace_overhead`` and ``sim.kinstr_per_host_s`` metrics
    need untraced reps and are added by the caller.
    """
    s = SpanTotals(payload["spans"])
    c = payload["counters"]
    launch = "bench.launch"
    capture = (s.time(launch) - s.time("bench.coalesce", launch)
               - s.time("bench.memo", launch) - s.time("bench.finalize", launch))
    hits, misses = c.get("machine.memo_hits", 0), c.get("machine.memo_misses", 0)
    r_hits, r_misses = c.get("runner.cache_hits", 0), c.get("runner.cache_misses", 0)
    replay_txns = c.get("bench.replay_txns", 0)
    svc = rep.get("service") or {}
    run_s = s.time("bench.service.run")
    shards_s = s.time("bench.service.shards")
    workers = svc.get("workers", 0)

    if svc:
        total = rep["setup_s"] + rep["wall_s"] - shards_s + svc["shard_wall_s"]
        unattributed = s.shard_busy - s.covered_shards
    else:
        total = rep["setup_s"] + rep["wall_s"]
        unattributed = total - s.covered

    out = {
        "workloads.setup_s": s.time(SETUP),
        "memory.alloc_objects": c.get("memory.alloc_objects", 0),
        "memory.alloc_s": s.time("bench.alloc"),
        "gpu.machine.write_field_calls": s.calls("bench.write_field"),
        "gpu.executor.capture_s": capture,
        "gpu.executor.warps": s.calls("bench.coalesce"),
        "gpu.executor.us_per_access": 1e6 * _ratio(capture, s.calls("bench.append")),
        "gpu.executor.vcall_s": s.time("bench.vcall"),
        "gpu.executor.vcalls": s.calls("bench.vcall"),
        "gpu.executor.targets_per_vcall": _ratio(c.get("bench.targets", 0),
                                                 s.calls("bench.resolve")),
        "core.dispatch.resolve_s": s.time("bench.resolve"),
        "core.dispatch.resolves": s.calls("bench.resolve"),
        "gpu.executor.atomic_s": s.time("bench.atomic"),
        "memory.heap.access_s": s.time("bench.heap"),
        "memory.heap.accesses": s.calls("bench.heap"),
        "memory.mmu.translate_s": s.time("bench.mmu"),
        "memory.mmu.translates": s.calls("bench.mmu"),
        "gpu.stats.add_instr_s": s.time("bench.add_instr"),
        "gpu.stats.add_instr_calls": s.calls("bench.add_instr"),
        "gpu.trace.append_s": s.time("bench.append"),
        "gpu.trace.appends": s.calls("bench.append"),
        "gpu.trace.coalesce_s": s.time("bench.coalesce"),
        "gpu.machine.memo_s": s.time("bench.memo") - s.time("bench.replay", "bench.memo"),
        "gpu.trace.digest_s": s.time("bench.digest"),
        "gpu.trace.digest_mb": c.get("bench.digest_bytes", 0) / 1e6,
        "gpu.machine.memo_lookups": hits + misses,
        "gpu.machine.memo_hit_rate": _ratio(hits, hits + misses),
        "gpu.replay.replay_s": s.time("bench.replay"),
        "gpu.replay.waves": s.calls("bench.replay"),
        "gpu.replay.txns": replay_txns,
        "gpu.replay.ns_per_txn": 1e9 * _ratio(s.time("bench.replay"), replay_txns),
        "gpu.timing.finalize_s": s.time("bench.finalize"),
        "harness.runner.cache_hit_rate": _ratio(r_hits, r_hits + r_misses),
        "harness.service.run_s": run_s,
        "harness.service.shards_s": shards_s,
        "harness.service.parent_s": run_s - shards_s,
        "harness.service.worker_busy_s": s.shard_busy,
        "harness.service.dispatch_overhead_s": (svc["shard_wall_s"] - s.shard_busy
                                                if svc else 0.0),
        "harness.service.parallel_efficiency": _ratio(s.shard_busy, workers * shards_s),
        "harness.service.shards": svc.get("shards", 0),
        "harness.service.shards_not_ok": svc.get("not_ok", 0),
        "harness.store.load_s": s.time("store.bucket_load"),
        "harness.store.flush_s": s.time("store.bucket_flush"),
        "harness.store.merge_s": s.time("store.bucket_merge"),
        "harness.store.lock_wait_s": s.time("store.lock_wait"),
        "harness.store.mb": rep.get("store_mb", 0.0),
        "bench.unattributed_frac": _ratio(unattributed, total),
    }
    out.update({f"sim.{k}": v for k, v in rep["sim"].items()})
    return out
