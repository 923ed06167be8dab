"""Tests for the SIMT branch API and atomic edge cases."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import InvalidAddress, LaunchError
from repro.gpu.config import small_config
from repro.gpu.isa import InstrClass
from repro.gpu.machine import Machine
from repro.harness.runner import ReplayMemo
from repro.memory.heap import SCALAR_TYPES


class TestBranch:
    def _launch(self, m, kernel, n=32):
        return m.launch(kernel, n)

    def test_both_sides_execute_with_disjoint_lanes(self, machine_factory):
        m = machine_factory("cuda")
        seen = {}

        def kernel(ctx):
            cond = ctx.tid % 2 == 0

            def then_fn(sub, mask):
                seen["then"] = sub.tid.copy()

            def else_fn(sub, mask):
                seen["else"] = sub.tid.copy()

            ctx.branch(cond, then_fn, else_fn)

        self._launch(m, kernel)
        assert set(seen["then"]) == set(range(0, 32, 2))
        assert set(seen["else"]) == set(range(1, 32, 2))

    def test_converged_branch_executes_one_side(self, machine_factory):
        m = machine_factory("cuda")
        calls = []

        def kernel(ctx):
            ctx.branch(
                np.ones(ctx.lane_count, dtype=bool),
                lambda sub, mask: calls.append("then"),
                lambda sub, mask: calls.append("else"),
            )

        self._launch(m, kernel)
        assert calls == ["then"]

    def test_charges_control_instructions(self, machine_factory):
        m = machine_factory("cuda")

        def kernel(ctx):
            ctx.branch(ctx.tid % 2 == 0)

        stats = self._launch(m, kernel)
        assert stats.warp_instrs[InstrClass.CTRL] == 2  # SSY + BRA
        assert stats.warp_instrs[InstrClass.COMPUTE] == 1  # SETP

    def test_returns_both_results(self, machine_factory):
        m = machine_factory("cuda")
        out = {}

        def kernel(ctx):
            out["r"] = ctx.branch(
                ctx.tid < 8,
                lambda sub, mask: int(sub.lane_count),
                lambda sub, mask: int(sub.lane_count),
            )

        self._launch(m, kernel)
        assert out["r"] == (8, 24)

    def test_wrong_lane_count_rejected(self, machine_factory):
        m = machine_factory("cuda")

        def kernel(ctx):
            ctx.branch(np.ones(5, dtype=bool))

        with pytest.raises(LaunchError):
            self._launch(m, kernel)

    def test_nested_branches(self, machine_factory):
        m = machine_factory("cuda")
        leaves = []

        def kernel(ctx):
            def outer_then(sub, mask):
                sub.branch(
                    sub.tid < 4,
                    lambda s2, m2: leaves.append(("tt", len(s2.tid))),
                    lambda s2, m2: leaves.append(("tf", len(s2.tid))),
                )

            ctx.branch(ctx.tid < 16, outer_then)

        self._launch(m, kernel)
        assert ("tt", 4) in leaves and ("tf", 12) in leaves


class TestAtomicEdgeCases:
    def test_atomic_max(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array_from(np.zeros(1, dtype=np.uint32), "u32")

        def kernel(ctx):
            addr = np.full(ctx.lane_count, arr.base, dtype=np.uint64)
            ctx.atomic(addr, "u32", ctx.tid.astype(np.uint32), op="max")

        m.launch(kernel, 32)
        assert arr[0] == 31

    def test_atomic_add_conflicting_lanes_exact(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array_from(np.zeros(1, dtype=np.uint32), "u32")

        def kernel(ctx):
            addr = np.full(ctx.lane_count, arr.base, dtype=np.uint64)
            ctx.atomic(addr, "u32", np.ones(ctx.lane_count, np.uint32))

        m.launch(kernel, 96)
        assert arr[0] == 96

    def test_atomic_min_floats(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array_from(np.full(1, 1e9, dtype=np.float32), "f32")

        def kernel(ctx):
            addr = np.full(ctx.lane_count, arr.base, dtype=np.uint64)
            vals = (ctx.tid + 5).astype(np.float32)
            ctx.atomic(addr, "f32", vals, op="min")

        m.launch(kernel, 32)
        assert arr[0] == pytest.approx(5.0)

    def test_unsupported_op(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array("u32", 1)

        def kernel(ctx):
            ctx.atomic(np.full(ctx.lane_count, arr.base, dtype=np.uint64),
                       "u32", 1, op="xor")

        with pytest.raises(ValueError):
            m.launch(kernel, 1)

    def test_unsupported_op_charges_nothing(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array("u32", 1)
        waves = []
        replay = m.replay_wave

        def record(traces, stats):
            waves.append(traces)
            replay(traces, stats)

        m.replay_wave = record
        translations = m.mmu.stats.translations

        def kernel(ctx):
            with pytest.raises(ValueError, match="xor"):
                ctx.atomic(np.full(ctx.lane_count, arr.base, dtype=np.uint64),
                           "u32", 1, op="xor")

        stats = m.launch(kernel, 1)
        assert stats.warp_instrs[InstrClass.MEM] == 0
        assert stats.thread_instrs == 0
        assert stats.global_store_transactions == 0
        assert [t.n_accesses for t in waves[0]] == [0]
        assert m.mmu.stats.translations == translations

    def test_atomics_counted_as_store_traffic(self, machine_factory):
        m = machine_factory("cuda")
        arr = m.array("u32", 32)

        def kernel(ctx):
            ctx.atomic(arr.addr(ctx.tid), "u32", 1)

        stats = m.launch(kernel, 32)
        assert stats.global_store_transactions == 4
        assert stats.global_load_transactions == 0


def _heap_bytes(m):
    heap = m.heap
    return heap.read_array(heap.null_guard, "u8",
                           heap.brk - heap.null_guard).tobytes()


def reference_atomic(ctx, addrs, dtype, values, op):
    """Atomics as a per-lane loop: the same charges as ``ctx.atomic``,
    then each lane a scalar load and store, in lane order."""
    np_dtype, width = SCALAR_TYPES[dtype]
    canonical = ctx.machine.mmu.translate(np.asarray(addrs, dtype=np.uint64))
    ctx._charge_transactions(canonical, width, store=True, role=None)
    vals = np.broadcast_to(np.asarray(values, dtype=np_dtype),
                           (len(canonical),))
    for addr, v in zip(canonical.tolist(), vals):
        old = ctx.heap.load(addr, dtype)
        if op == "add":
            with np.errstate(over="ignore"):
                new = np_dtype(old + v)
        else:
            new = (min if op == "min" else max)(old, v)
        ctx.heap.store(addr, dtype, new)


_ATOMIC_DTYPES = ("u32", "i32", "u64", "f32", "f64")


def _scalars(dtype):
    np_dtype = SCALAR_TYPES[dtype][0]
    if dtype[0] == "f":
        # bias towards the values np.minimum/np.maximum treat unlike
        # min(old, v): NaN, and -0.0 against 0.0
        return st.one_of(st.floats(width=8 * SCALAR_TYPES[dtype][1]),
                         st.sampled_from([np.nan, -0.0, 0.0, np.inf]))
    info = np.iinfo(np_dtype)
    # bias towards the extremes so adds wrap around
    return st.one_of(st.integers(int(info.min), int(info.max)),
                     st.sampled_from([int(info.min), int(info.max), 0, 1]))


@st.composite
def _atomic_cases(draw):
    dtype = draw(st.sampled_from(_ATOMIC_DTYPES))
    op = draw(st.sampled_from(("add", "min", "max")))
    size = SCALAR_TYPES[dtype][1]
    slots = draw(st.integers(1, 6))
    lanes = draw(st.integers(1, 70))
    # few slots for many lanes: most lanes collide
    slot = draw(st.lists(st.integers(0, slots - 1), min_size=lanes,
                         max_size=lanes))
    misaligned = draw(st.booleans())
    offset = draw(st.lists(st.integers(0, size - 1), min_size=lanes,
                           max_size=lanes)) if misaligned else [0] * lanes
    return {
        "dtype": dtype, "op": op, "slots": slots,
        "byte_addr": [s * size + o for s, o in zip(slot, offset)],
        "initial": draw(st.lists(_scalars(dtype), min_size=slots + 1,
                                 max_size=slots + 1)),
        "values": draw(st.lists(_scalars(dtype), min_size=lanes,
                                max_size=lanes)),
        "batched": draw(st.booleans()),
    }


def _run_atomic(case, apply):
    m = Machine("cuda", config=small_config())
    m.set_replay_memo(ReplayMemo())
    np_dtype = SCALAR_TYPES[case["dtype"]][0]
    arr = m.array_from(np.array(case["initial"], dtype=np_dtype),
                       case["dtype"])
    addrs = np.uint64(arr.base) + np.array(case["byte_addr"], dtype=np.uint64)
    values = np.array(case["values"], dtype=np_dtype)

    def kernel(ctx):
        apply(ctx, addrs[ctx.tid], case["dtype"], values[ctx.tid],
              case["op"])

    stats = m.launch(kernel, len(addrs), independent_warps=case["batched"])
    return _heap_bytes(m), dataclasses.asdict(stats), m._trace_chain


@settings(max_examples=60, deadline=None)
@given(_atomic_cases())
# -inf + inf leaves a NaN in memory, which then meets a NaN lane value
@example({"dtype": "f32", "op": "add", "slots": 1, "byte_addr": [0, 0, 0],
          "initial": [0.0, 0.0], "values": [-np.inf, np.inf, np.nan],
          "batched": False})
def test_atomic_matches_per_lane_reference(case):
    """Ordered-accumulate atomics equal the per-lane loop: heap bytes
    (NaN payloads and -0.0 included), stats and traces."""
    got = _run_atomic(case, lambda ctx, a, d, v, op: ctx.atomic(a, d, v, op))
    want = _run_atomic(case, reference_atomic)
    assert got == want


@pytest.mark.parametrize("dtype,op,misaligned", [
    ("u32", "add", False),      # the vectorized ufunc.at path
    ("f32", "min", False),      # the kept per-lane loop
    ("u32", "add", True),       # misaligned: the per-lane loop
])
def test_atomic_out_of_range_lane_writes_nothing(dtype, op, misaligned):
    m = Machine("cuda", config=small_config())
    arr = m.array_from(np.array([10, 5, 0], dtype=SCALAR_TYPES[dtype][0]),
                       dtype)
    before = _heap_bytes(m)
    base = arr.base + (1 if misaligned else 0)
    # two lanes hit the same element, then one lies past the heap break
    addrs = np.array([base, base, m.heap.brk + 64], dtype=np.uint64)

    def kernel(ctx):
        ctx.atomic(addrs, dtype, np.ones(3), op=op)

    with pytest.raises(InvalidAddress):
        m.launch(kernel, 1)
    assert _heap_bytes(m) == before


# ----------------------------------------------------------------------
# a lane batch lands its atomics in warp order
# ----------------------------------------------------------------------
#: 4-warp waves, so a few hundred threads span several waves
_WAVE4 = small_config().with_overrides(resident_warps_per_sm=1)


@st.composite
def _site_cases(draw):
    threads = draw(st.integers(1, 2 * 4 * 32 + 17))
    slots = draw(st.integers(1, 6))

    def lanes(elements):
        return draw(st.lists(elements, min_size=threads, max_size=threads))

    fval = st.one_of(st.floats(width=32),
                     st.sampled_from([1e8, -1e8, 1.0, 0.1, 3.0]))
    ival = st.integers(0, 2**32 - 1)
    return {
        "threads": threads,
        "slots": slots,
        "slot": [lanes(st.integers(0, slots - 1)) for _ in range(4)],
        "fval": [lanes(fval) for _ in range(3)],
        "ival": lanes(ival),
        "cond": lanes(st.booleans()),
        # the integer site updates the float slots' bytes, or its own
        "int_on_floats": draw(st.booleans()),
        "initial": draw(st.lists(st.floats(width=32), min_size=slots,
                                 max_size=slots)),
    }


def _run_sites(case, batched: bool):
    m = Machine("cuda", config=_WAVE4)
    m.set_replay_memo(ReplayMemo())
    floats = m.array_from(np.array(case["initial"], dtype=np.float32), "f32")
    ints = m.array_from(np.full(case["slots"], 2**31, dtype=np.uint32),
                        "u32")
    slot = [np.array(s, dtype=np.int64) for s in case["slot"]]
    fval = [np.array(v, dtype=np.float32) for v in case["fval"]]
    ival = np.array(case["ival"], dtype=np.uint32)
    cond = np.array(case["cond"], dtype=bool)
    int_target = floats if case["int_on_floats"] else ints

    def then_fn(sub, mask):
        t = sub.tid
        sub.atomic(floats.addr(slot[1][t]), "f32", fval[1][t], op="add")

    def else_fn(sub, mask):
        t = sub.tid
        sub.atomic(int_target.addr(slot[2][t]), "u32", ival[t], op="min")
        sub.atomic(floats.addr(slot[3][t]), "f32", fval[2][t], op="add")

    def kernel(ctx):
        t = ctx.tid
        ctx.atomic(floats.addr(slot[0][t]), "f32", fval[0][t], op="add")
        ctx.branch(cond[t], then_fn, else_fn)

    stats = m.launch(kernel, case["threads"], independent_warps=batched)
    return _heap_bytes(m), dataclasses.asdict(stats), m._trace_chain


@settings(max_examples=40, deadline=None)
@given(_site_cases())
def test_batched_atomics_land_in_warp_order(case):
    """Three f32 atomicAdd sites and a u32 atomicMin site, two of them
    in divergent subcontexts, meet at shared addresses: a lane batch
    leaves the heap, stats and memo chain of the per-warp run."""
    assert _run_sites(case, batched=True) == _run_sites(case, batched=False)


def test_batched_atomic_out_of_range_lane_raises_at_the_call():
    m = Machine("cuda", config=_WAVE4)
    arr = m.array_from(np.array([10, 5, 0, 7], dtype=np.uint32), "u32")
    before = _heap_bytes(m)
    reached = []

    def kernel(ctx):
        good = arr.addr(ctx.tid % 4)
        ctx.atomic(good, "u32", 1)          # logged, never applied
        bad = good.copy()
        bad[-1] = m.heap.brk + 64
        ctx.atomic(bad, "u32", 1)
        reached.append("after")

    with pytest.raises(InvalidAddress):
        m.launch(kernel, 64, independent_warps=True)
    assert reached == []
    assert _heap_bytes(m) == before
