"""Functional tests for GOL and GEN against pure-numpy references."""
import dataclasses

import numpy as np
import pytest

from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.techniques import available
from repro.workloads import make_workload
from repro.workloads.base import WORKLOAD_REGISTRY


@pytest.fixture
def gol():
    m = Machine("sharedoa", config=small_config())
    wl = make_workload("GOL", m, scale=0.04, seed=5)
    wl.setup()
    wl._setup_done = True
    return wl


@pytest.fixture
def gen():
    m = Machine("sharedoa", config=small_config())
    wl = make_workload("GEN", m, scale=0.04, seed=5)
    wl.setup()
    wl._setup_done = True
    return wl


class TestGameOfLife:
    def test_matches_reference_step(self, gol):
        expected = gol.states.copy()
        for _ in range(3):
            expected = gol.reference_step(expected)
            gol.iterate()
            np.testing.assert_array_equal(gol.states, expected)

    def test_retyping_tracks_state(self, gol):
        gol.iterate()
        m = gol.machine
        for i in range(gol.n_cells):
            owner = m.allocator.owner_type(int(gol.cell_ptrs[i]))
            assert owner is gol.state_types[int(gol.states[i])]

    def test_retyping_frees_old_objects(self, gol):
        live_before = gol.machine.allocator.live_count()
        gol.iterate()
        # every cell is exactly one live object, flips notwithstanding
        assert gol.machine.allocator.live_count() == live_before

    def test_types_registered(self, gol):
        # Agent, Cell (abstract) + Alive, Dead = 4 types (Table 2)
        assert gol.num_types() == 4

    def test_alive_field_mirrors_state(self, gol):
        gol.iterate()
        m = gol.machine
        lay = m.registry.layout(gol.Cell)
        for i in range(0, gol.n_cells, 97):
            c = m.allocator._canonical(int(gol.cell_ptrs[i]))
            alive = int(m.heap.load(c + lay.offset("alive"), "u32"))
            assert alive == (1 if gol.states[i] == 1 else 0)


class TestGeneration:
    def test_matches_reference_step(self, gen):
        expected = gen.states.copy()
        for _ in range(3):
            expected = gen.reference_step(expected)
            gen.iterate()
            np.testing.assert_array_equal(gen.states, expected)

    def test_three_concrete_states(self, gen):
        assert len(gen.state_types) == 3
        gen.iterate()
        # after one step some cells should be in the dying state
        assert (gen.states == 2).any()

    def test_alive_decays_to_dying(self, gen):
        alive_before = set(np.flatnonzero(gen.states == 1))
        gen.iterate()
        dying_now = set(np.flatnonzero(gen.states == 2))
        assert alive_before == dying_now


class PerCellRetype:
    """The retype phase as it ran cell by cell, kept verbatim as the
    reference the batched phase must equal: each changed cell is freed,
    reconstructed through ``Machine.new_objects`` and scalar
    ``write_field`` calls, and stored into the grid on its own."""

    def _construct_cell(self, index: int, state: int) -> int:
        m = self.machine
        tdesc = self.state_types[state]
        ptr = m.new_objects(tdesc, 1)[0]
        lay = m.registry.layout(tdesc)
        m.write_field(ptr, lay, "alive", 1 if state == 1 else 0)
        m.write_field(ptr, lay, "state", state)
        m.write_field(ptr, lay, "index", index)
        return int(ptr)

    def _retype_phase(self) -> None:
        m = self.machine
        lay = m.registry.layout(self.Cell)
        new_states = m.read_field(self.cell_ptrs, lay, "state")
        changed_idx = np.flatnonzero(new_states != self.states)
        for i in changed_idx.tolist():
            new_state = int(new_states[i])
            m.free_objects([int(self.cell_ptrs[i])])
            new_ptr = self._construct_cell(i, new_state)
            self.cell_ptrs[i] = new_ptr
            self.grid[i] = new_ptr
            self.states[i] = new_state


def _retype_run(cls, technique):
    m = Machine(technique, config=small_config())
    wl = cls(m, scale=0.02, seed=5)
    wl.run(iterations=3)
    heap = m.heap
    return {
        "heap": heap.read_array(heap.null_guard, "u8",
                                heap.brk - heap.null_guard).tobytes(),
        "cell_ptrs": wl.cell_ptrs.tolist(),
        "grid": wl.grid.read().tolist(),
        "states": wl.states.tolist(),
        "alloc": dataclasses.asdict(m.allocator.stats),
        "stats": dataclasses.asdict(m.run_stats),
    }


@pytest.mark.parametrize("technique", available())
@pytest.mark.parametrize("name", ["GOL", "GEN"])
def test_batched_retype_equals_per_cell_reference(name, technique):
    cls = WORKLOAD_REGISTRY[name]
    reference = type(f"PerCell{cls.__name__}", (PerCellRetype, cls), {})
    got = _retype_run(cls, technique)
    want = _retype_run(reference, technique)
    assert got["alloc"]["frees"] > 0      # cells did retype
    for key in want:
        assert got[key] == want[key], key
