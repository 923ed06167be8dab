"""Tests for the SIMT branch API and atomic edge cases."""
import numpy as np
import pytest

from repro.errors import LaunchError
from repro.gpu.isa import InstrClass


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
