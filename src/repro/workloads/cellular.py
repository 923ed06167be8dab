"""Shared infrastructure for the cellular-automaton workloads (GOL, GEN).

DynaSOAr's Game-of-Life benchmarks model every grid cell as an object
whose *concrete type is its state*: when a cell's state changes, the
old object is destroyed and an object of the new type allocated
(DynaSOAr's dynamic allocation pattern).  Each iteration:

* ``count`` kernel (virtual): every cell gathers the 8 neighbours'
  pointers from the grid and reads their ``alive`` member,
* ``update`` kernel (virtual): each type applies its transition rule,
  writing the cell's next state,
* a host-side *retype phase* frees/reallocates cells whose state
  changed (allocation is excluded from kernel measurements, matching
  the paper's methodology).

The hierarchy and kernels are written against the public front-end:
:class:`Agent`/:class:`Cell` are :func:`~repro.device_class`
declarations shared by both automata (concrete state classes live in
the workload modules), and the two kernels are plain
:func:`~repro.kernel` functions -- the same API a user program uses.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..frontend import abstract, device_class, kernel
from ..runtime.typesystem import TypeDescriptor
from .base import Workload


@device_class
class Agent:
    """Abstract actor: anything on the grid that can be stepped."""

    @abstract
    def update(self, ctx): ...


@device_class
class Cell(Agent):
    """One grid cell; its concrete subclass *is* its state."""

    alive: "u32"
    state: "u32"
    neighbors: "u32"
    index: "u32"


@kernel(independent_warps=True)
def count_kernel(ctx, grid, neighbor_idx):
    """Gather the 8 neighbours' ``alive`` flags into ``neighbors``."""
    ptrs = grid.ld(ctx, ctx.tid)
    counts = np.zeros(ctx.lane_count, dtype=np.uint32)
    for nidx in neighbor_idx:
        nb_ptrs = grid.ld(ctx, nidx[ctx.tid])
        alive = Cell.view(ctx, nb_ptrs).alive
        ctx.alu(1)
        counts += alive
    Cell.view(ctx, ptrs).neighbors = counts


@kernel(independent_warps=True)
def update_kernel(ctx, grid):
    """Virtual-dispatch each cell's transition rule."""
    ptrs = grid.ld(ctx, ctx.tid)
    Cell.view(ctx, ptrs).update()


class CellularAutomaton(Workload):
    """Common machinery: grid of cell objects with dynamic retyping."""

    GRID_W = 128
    GRID_H = 128
    default_iterations = 2

    #: state id -> concrete device class; set by each workload module
    state_classes: Dict[int, type] = {}

    #: state id -> concrete type descriptor (derived from state_classes)
    state_types: Dict[int, TypeDescriptor]

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def _initial_states(self, rng) -> np.ndarray:
        """Initial per-cell state ids."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        side_scale = max(0.1, self.scale) ** 0.5
        self.width = max(16, int(self.GRID_W * side_scale))
        self.height = max(16, int(self.GRID_H * side_scale))
        self.n_cells = self.width * self.height

        #: the abstract static type kernels dispatch through -- kept as
        #: a TypeDescriptor attribute for layout-level tests/tools
        self.Cell = Cell.descriptor()
        self.state_types = {
            s: c.descriptor() for s, c in self.state_classes.items()
        }
        m.register(*self.state_types.values())

        states = self._initial_states(rng)
        self.states = states
        self.cell_ptrs = m.new_objects(
            [self.state_types[s] for s in states.tolist()])
        self._write_cells(self.cell_ptrs, np.arange(self.n_cells), states)
        self.grid = m.array_from(self.cell_ptrs, "u64")

        # neighbour index table (8 per cell, torus wrap), precomputed
        idx = np.arange(self.n_cells)
        x = idx % self.width
        y = idx // self.width
        self._neighbor_idx = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx = (x + dx) % self.width
                ny = (y + dy) % self.height
                self._neighbor_idx.append((ny * self.width + nx).astype(np.int64))

    def _write_cells(self, ptrs: np.ndarray, index: np.ndarray,
                     states: np.ndarray) -> None:
        """Write the ``alive``, ``state`` and ``index`` columns of newly
        built cells."""
        m = self.machine
        lay = m.registry.layout(self.Cell)
        m.write_field(ptrs, lay, "alive", (states == 1).astype(np.uint32))
        m.write_field(ptrs, lay, "state", states)
        m.write_field(ptrs, lay, "index", index.astype(np.uint32))

    # ------------------------------------------------------------------
    def iterate(self) -> None:
        self.launch(count_kernel, self.n_cells, self.grid,
                    self._neighbor_idx)
        self.launch(update_kernel, self.n_cells, self.grid)
        self._retype_phase()

    def _retype_phase(self) -> None:
        """Destroy/recreate cells whose state changed (host side).

        One ``new_objects`` call replaces every changed cell, freeing
        each old object just before placing its replacement (allocators
        reuse freed slots, so that order fixes every new address);
        fields and grid slots are then written as columns.
        """
        m = self.machine
        lay = m.registry.layout(self.Cell)
        # one host-side gather over every cell's state field finds the
        # changed cells; only those are rebuilt
        new_states = m.read_field(self.cell_ptrs, lay, "state")
        changed = np.flatnonzero(new_states != self.states)
        if not len(changed):
            return
        states = new_states[changed]
        ptrs = m.new_objects([self.state_types[s] for s in states.tolist()],
                             replacing=self.cell_ptrs[changed])
        self._write_cells(ptrs, changed, states)
        m.heap.scatter(self.grid.addr(changed), "u64", ptrs)
        self.cell_ptrs[changed] = ptrs
        self.states[changed] = states

    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        return int((self.states == 1).sum())

    def checksum(self) -> float:
        return float(
            (self.states.astype(np.int64) * (np.arange(self.n_cells) % 97 + 1)).sum()
        )
