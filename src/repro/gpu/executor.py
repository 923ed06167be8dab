"""The SIMT executor: warp-granular functional + cost simulation.

A kernel is a Python callable ``kernel(ctx)``.  The
:class:`ExecutionContext` exposes the thread ids of the lanes it runs
and the charged operations a lowered GPU program performs: global loads
and stores (which run through the MMU, the coalescer and the cache
hierarchy against *real* simulated addresses), ALU and control
instructions (counted into the Figure 7 buckets), and -- the heart of
the model -- ``vcall``, which asks the machine's dispatch strategy to
resolve a virtual call per Table 1 and then executes each distinct
target once per warp (SIMT serialization across types).

A kernel runs once per warp, or -- when it declares
``independent_warps`` -- once per wave, as one lane batch whose lanes
each carry their warp: every charge then counts once per warp with
active lanes, so the counters equal those of the per-warp run.  A
batch's atomics are logged and land at wave end in warp order, so
their memory effect equals the per-warp run's too.
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from .. import obs
from ..errors import LaunchConfigError, LaunchError
from ..memory.address_space import strip_tag_array
from ..memory.heap import SCALAR_TYPES
from ..runtime.typesystem import TypeDescriptor
from .isa import (
    InstrClass,
    Opcode,
    ROLE_CONST_INDIRECTION,
    ROLE_DISPATCH_OVERHEAD,
    ROLE_INDIRECT_CALL,
)
from .stats import KernelStats
from .trace import MemoryTrace, role_id

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

WARP_SIZE = 32


def validate_num_threads(num_threads) -> int:
    """Check a launch's thread count before any execution starts.

    Accepts Python and numpy integers (but not bools); anything else,
    and any non-positive count, raises :class:`LaunchConfigError` with
    the offending value in the message.  Returns the count as ``int``.
    """
    if isinstance(num_threads, bool) or not isinstance(
            num_threads, (int, np.integer)):
        raise LaunchConfigError(
            f"num_threads must be an integer, got "
            f"{type(num_threads).__name__} ({num_threads!r})"
        )
    if num_threads <= 0:
        raise LaunchConfigError(
            f"num_threads must be positive, got {num_threads}"
        )
    return int(num_threads)


class ExecutionContext:
    """The kernel's view of the machine: one warp, or a lane batch.

    ``tid`` holds the active lanes' global thread ids and ``warp`` each
    lane's wave-local warp: an int for a one-warp context, or a per-lane
    array, in warp order, for a lane batch spanning a wave.  ``warps``
    is how many warps every charge counts once for -- the warps with
    active lanes; a one-warp context counts its warp even with no lanes.

    Memory accesses are *charged* immediately (instruction counts) but
    their cache effects are captured in the wave's :class:`MemoryTrace`
    buffer and replayed by the launcher's engine interleaved with the
    other warps resident on the same wave -- real warps do not run to
    completion atomically, and the inter-warp interference is exactly
    what makes the diverged vTable-pointer load expensive (section 1).

    ``atomics`` is the launch's atomic log for a lane batch (see
    :meth:`atomic`), shared by its subcontexts; None applies atomics at
    once.
    """

    __slots__ = ("machine", "tid", "warp", "warps", "stats", "trace",
                 "atomics")

    def __init__(
        self,
        machine: "Machine",
        tid: np.ndarray,
        warp,
        stats: KernelStats,
        trace: MemoryTrace,
        warps: int = 1,
        atomics: Optional[list] = None,
    ):
        self.machine = machine
        self.tid = tid
        self.warp = warp
        self.warps = warps
        self.stats = stats
        self.trace = trace
        self.atomics = atomics

    # ------------------------------------------------------------------
    @property
    def lane_count(self) -> int:
        return len(self.tid)

    @property
    def heap(self):
        return self.machine.heap

    def subcontext(self, lane_sel: np.ndarray) -> "ExecutionContext":
        """Context for a subset of lanes (SIMT predication/serialization).

        ``lane_sel`` is a boolean lane mask, so a batch's lanes stay in
        warp order.
        """
        warp = self.warp
        warps = 1
        if isinstance(warp, np.ndarray):
            warp = warp[lane_sel]
            warps = int(np.count_nonzero(np.diff(warp, prepend=-1)))
        return ExecutionContext(self.machine, self.tid[lane_sel], warp,
                                self.stats, self.trace, warps, self.atomics)

    def _warp_sms(self) -> list:
        """The SM of each warp with active lanes, in warp order."""
        sms = self.trace.sm
        warp = self.warp
        if not isinstance(warp, np.ndarray):
            return [sms[warp]]
        first = np.flatnonzero(np.diff(warp, prepend=-1))
        return [sms[w] for w in warp[first].tolist()]

    # ------------------------------------------------------------------
    # instruction charging
    # ------------------------------------------------------------------
    def alu(self, n: int = 1, op: Opcode = Opcode.IADD, role: str = None) -> None:
        """Charge ``n`` warp-wide compute instructions."""
        self.stats.add_instr(op.klass, self.lane_count, role, count=n,
                             warps=self.warps)

    def ctrl(self, n: int = 1, op: Opcode = Opcode.BRA, role: str = None) -> None:
        """Charge ``n`` warp-wide control instructions."""
        self.stats.add_instr(op.klass, self.lane_count, role, count=n,
                             warps=self.warps)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _charge_transactions(
        self, canonical: np.ndarray, width: int, store: bool, role: str
    ) -> None:
        self.stats.add_instr(InstrClass.MEM, self.lane_count, role,
                             warps=self.warps)
        # coalescing, the global_*_transactions / per-role counters and
        # the TLB probes are deferred to MemoryTrace.finalize (one
        # batched pass per wave)
        self.trace.append_access(canonical, width, store, role_id(role),
                                 self.warp)

    def load(self, addrs: np.ndarray, dtype: str = "u64", role: str = None,
             width: int = None) -> np.ndarray:
        """Charged global load: MMU translate, coalesce, cache, fetch."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        w = width if width is not None else SCALAR_TYPES[dtype][1]
        self._charge_transactions(canonical, w, store=False, role=role)
        return self.heap.gather(canonical, dtype)

    def store(self, addrs: np.ndarray, dtype: str, values, role: str = None) -> None:
        """Charged global store (write-through)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        w = SCALAR_TYPES[dtype][1]
        self._charge_transactions(canonical, w, store=True, role=role)
        vals = np.broadcast_to(np.asarray(values), (len(canonical),))
        self.heap.scatter(canonical, dtype, vals)

    def charged_load(self, addrs: np.ndarray, width: int, role: str = None) -> None:
        """Charge a load's cost without fetching (value read via peek)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        self._charge_transactions(canonical, width, store=False, role=role)

    def atomic(self, addrs: np.ndarray, dtype: str, values, op: str = "add",
               role: str = None) -> None:
        """Charged atomic read-modify-write (atomicAdd / atomicMin / atomicMax).

        Functionally exact under lane conflicts: lanes are applied in
        order, each seeing the previous lane's result -- what the
        hardware's serialised atomic units guarantee (``Heap.accumulate``
        does it in one ordered vectorized update).  Charged as one
        memory instruction with store-like traffic.

        A lane batch range-checks its lanes here but only logs the
        update; ``launch`` lands the log at wave end in warp order
        (:func:`_land_atomics`), the order a per-warp run applies it in.
        """
        if op not in ("add", "min", "max"):
            raise ValueError(f"unsupported atomic op {op!r}")
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        np_dtype, w = SCALAR_TYPES[dtype]
        self._charge_transactions(canonical, w, store=True, role=role)
        if self.atomics is None:
            self.heap.accumulate(canonical, dtype, values, op)
            return
        if not len(canonical):
            return
        a = canonical.astype(np.int64)     # a copy the log owns
        self.heap.check_lanes(a, w, "atomic")
        vals = np.array(np.broadcast_to(np.asarray(values, dtype=np_dtype),
                                        a.shape))
        self.atomics.append((a, vals, dtype, op, self.warp))

    def atomic_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                     field: str, values, op: str = "add",
                     role: str = None) -> None:
        """Atomic RMW on an object member (atomicAdd(&obj->f, v))."""
        layout = self.machine.registry.layout(type_desc)
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        self.atomic(addrs, layout.dtype(field), values, op=op, role=role)

    def peek(self, addrs: np.ndarray, dtype: str = "u64") -> np.ndarray:
        """Uncharged functional read of already-canonical addresses.

        Used by lowering code that charged the access separately (e.g.
        the COAL tree walk charges one 64B load covering four words).
        """
        return self.heap.gather(np.asarray(addrs, dtype=np.uint64), dtype)

    # ------------------------------------------------------------------
    # object member access
    # ------------------------------------------------------------------
    def object_addrs(self, objptrs: np.ndarray) -> np.ndarray:
        """Canonicalise object pointers for a member dereference.

        Under the TypePointer software prototype the compiler inserted
        an AND to clear the tag bits before every member access
        (section 6.3); charge it.  Under the HW variant the MMU strips
        for free, so the (possibly tagged) pointer passes through.
        """
        a = np.asarray(objptrs, dtype=np.uint64)
        if self.machine.strategy.software_mask:
            self.alu(1, op=Opcode.AND, role=ROLE_DISPATCH_OVERHEAD)
            return strip_tag_array(a)
        return a

    def load_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                   field: str, role: str = None) -> np.ndarray:
        layout = self.machine.registry.layout(type_desc)
        # the allocator owns field placement: base + offset for the AoS
        # allocators (tag-transparent), field-major for SoA blocks
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        return self.load(addrs, layout.dtype(field), role=role)

    def store_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                    field: str, values) -> None:
        layout = self.machine.registry.layout(type_desc)
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        self.store(addrs, layout.dtype(field), values)

    # ------------------------------------------------------------------
    # SIMT control flow
    # ------------------------------------------------------------------
    def branch(self, cond: np.ndarray, then_fn=None, else_fn=None):
        """A two-way divergent branch with SIMT serialization.

        ``cond`` is a per-lane boolean; each taken direction executes
        once under a subcontext holding just its lanes (the SIMT stack
        behaviour).  Charges the reconvergence push (SSY), the compare
        and the branch; a fully converged branch executes only one
        side.  Returns (then_result, else_result).
        """
        cond = np.asarray(cond, dtype=bool)
        if len(cond) != self.lane_count:
            raise LaunchError(
                f"branch condition has {len(cond)} lanes, warp has "
                f"{self.lane_count}"
            )
        self.ctrl(1, op=Opcode.SSY)
        self.alu(1, op=Opcode.SETP)
        self.ctrl(1, op=Opcode.BRA)
        then_out = else_out = None
        if then_fn is not None and cond.any():
            then_out = then_fn(self.subcontext(cond), cond)
        if else_fn is not None and (~cond).any():
            else_out = else_fn(self.subcontext(~cond), ~cond)
        return then_out, else_out

    # ------------------------------------------------------------------
    # virtual dispatch
    # ------------------------------------------------------------------
    def vcall(self, objptrs: np.ndarray, static_type: TypeDescriptor,
              method: str, uniform: bool = False) -> Optional[np.ndarray]:
        """Execute ``obj->method()`` for every active lane.

        ``static_type`` plays the role of the pointer's static C++ type:
        it supplies the vTable slot index the compiler would embed.

        If the implementations return per-lane arrays (virtual getters),
        the groups' results are recombined into one lane-aligned array
        and returned; void methods return None.
        """
        ptrs = np.asarray(objptrs, dtype=np.uint64)
        if len(ptrs) != self.lane_count:
            raise LaunchError(
                f"vcall got {len(ptrs)} pointers for {self.lane_count} lanes"
            )
        if self.lane_count == 0:
            return None
        slot = static_type.slot_of(method)
        strategy = self.machine.strategy
        stats = self.stats
        stats.vfunc_calls += self.lane_count

        targets = strategy.resolve(self, ptrs, slot, uniform=uniform)
        calls = []
        for code_addr in np.unique(targets):
            sel = targets == code_addr
            calls.append((int(code_addr), sel, self.subcontext(sel)))
        # each warp runs the body once per distinct target it holds
        stats.call_serializations += (
            sum(sub.warps for _, _, sub in calls) - self.warps)

        if not strategy.direct_call:
            # section 2: one constant-memory load translates the global
            # vFunc entry into the running kernel's instruction address
            stats.add_instr(InstrClass.MEM, self.lane_count,
                            ROLE_CONST_INDIRECTION, warps=self.warps)
            constmem = self.machine.constmem
            for code_addr, _, sub in calls:
                sms = sub._warp_sms()
                stats.const_accesses += len(sms)
                stats.const_hits += constmem.access_warps(sms, code_addr // 64)

        arena = self.machine.arena
        result: Optional[np.ndarray] = None
        for code_addr, sel, sub in calls:
            impl = arena.impl_of_code_addr(code_addr)
            if strategy.direct_call:
                # Concord: direct branch to a statically-known body
                sub.ctrl(1, op=Opcode.BRA, role=ROLE_DISPATCH_OVERHEAD)
            else:
                # operation C of Figure 1a: indirect call
                sub.ctrl(1, op=Opcode.CALL, role=ROLE_INDIRECT_CALL)
            ret = impl(sub, ptrs[sel])
            sub.ctrl(1, op=Opcode.RET)
            if ret is not None:
                ret = np.asarray(ret)
                if result is None:
                    result = np.zeros(self.lane_count, dtype=ret.dtype)
                result[sel] = ret
        return result


def _land_atomics(heap, log: list) -> None:
    """Apply a lane batch's logged atomics in per-warp order.

    Each entry holds one call's lanes in warp order, and the log holds
    the calls in call order.  A stable sort by warp therefore lists
    every warp's lanes in its own call and lane order, warp after warp
    -- exactly the order a per-warp run applies them in.  Each run of
    lanes with equal ``(dtype, op)`` in that order is one
    ``Heap.accumulate``.
    """
    order = np.argsort(np.concatenate([e[4] for e in log]), kind="stable")
    addrs = np.concatenate([e[0] for e in log])[order]
    kinds = list(dict.fromkeys((e[2], e[3]) for e in log))
    # each kind's values in log order, and every lane's kind and index
    # into its kind's values
    kind = np.repeat([kinds.index((e[2], e[3])) for e in log],
                     [len(e[0]) for e in log])
    vals = [np.concatenate([e[1] for e in log if (e[2], e[3]) == k])
            for k in kinds]
    local = np.empty_like(kind)
    for i in range(len(kinds)):
        sel = kind == i
        local[sel] = np.arange(np.count_nonzero(sel))
    kind, local = kind[order], local[order]
    cuts = (np.flatnonzero(np.diff(kind)) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [len(kind)]):
        k = int(kind[a])
        dtype, op = kinds[k]
        heap.accumulate(addrs[a:b], dtype, vals[k][local[a:b]], op)


def launch(machine: "Machine", kernel, num_threads: int,
           independent_warps: bool = False) -> KernelStats:
    """Run ``kernel`` over ``num_threads`` threads, wave by wave.

    Warps are assigned to SMs round-robin (as thread blocks are on real
    hardware).  A *wave* is the set of warps concurrently resident on
    the whole chip (``num_sms x resident_warps_per_sm``).  Each wave is
    a capture -> replay round trip: its warps execute functionally,
    appending to the wave's :class:`MemoryTrace` buffer, which coalesces
    into per-warp traces; the machine's replay engine then pushes them
    through the cache/DRAM model in the round-robin interleave (or
    reuses memoized counters -- see ``Machine.replay_wave``).

    By default the kernel runs once per warp, warp after warp, so each
    warp sees every earlier warp's stores.  ``independent_warps`` runs
    it once per wave as one lane batch instead, and lands the batch's
    atomics at wave end; that is exact only for kernels keeping the
    contract ``repro.frontend.kernel`` documents.
    """
    num_threads = validate_num_threads(num_threads)
    reg = obs.registry()
    with reg.span("machine.launch"):
        machine.strategy.prepare_launch()
        machine.constmem.begin_kernel()
        stats = KernelStats()
        num_warps = (num_threads + WARP_SIZE - 1) // WARP_SIZE
        num_sms = machine.hierarchy.num_sms
        wave_size = max(1, num_sms * machine.config.resident_warps_per_sm)

        # phase timings (capture -> coalesce -> replay) accumulate
        # locally and land in the registry once per launch
        track = reg.enabled
        perf = time.perf_counter
        t_capture = t_coalesce = t_replay = 0.0
        num_waves = 0

        for wave_start in range(0, num_warps, wave_size):
            num_waves += 1
            wave_end = min(wave_start + wave_size, num_warps)
            trace = MemoryTrace(
                [w % num_sms for w in range(wave_start, wave_end)],
                tlb=machine.tlb,
            )
            t0 = perf() if track else 0.0
            if independent_warps:
                lo = wave_start * WARP_SIZE
                tid = np.arange(lo, min(wave_end * WARP_SIZE, num_threads),
                                dtype=np.int64)
                log = []
                kernel(ExecutionContext(
                    machine, tid, (tid - lo) // WARP_SIZE, stats, trace,
                    warps=wave_end - wave_start, atomics=log,
                ))
                if log:
                    _land_atomics(machine.heap, log)
            else:
                for warp_id in range(wave_start, wave_end):
                    lo = warp_id * WARP_SIZE
                    tid = np.arange(lo, min(lo + WARP_SIZE, num_threads),
                                    dtype=np.int64)
                    kernel(ExecutionContext(
                        machine, tid, warp_id - wave_start, stats, trace))
            if track:
                tc = perf()
                traces = trace.finalize(stats)
                t1 = perf()
                t_coalesce += t1 - tc
                t_capture += t1 - t0
                machine.replay_wave(traces, stats)
                t_replay += perf() - t1
            else:
                machine.replay_wave(trace.finalize(stats), stats)

        from .timing import finalize_timing

        finalize_timing(stats, machine.config)
        if track:
            reg.add_time("machine.capture", t_capture - t_coalesce,
                         count=num_waves)
            reg.add_time("machine.coalesce", t_coalesce, count=num_waves)
            reg.add_time("machine.replay", t_replay, count=num_waves)
    return stats
