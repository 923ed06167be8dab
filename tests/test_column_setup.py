"""Column-wise set-up equals the per-object construction it replaced.

Every workload builds its objects with one ``Machine.new_objects`` call
per object array and one ``write_field`` per field column.  The mixins
below keep the per-object set-up loops as they ran before, verbatim:
one ``new_objects(T, 1)`` and scalar ``write_field`` calls per object.
After set-up, both must leave the same heap bytes up to ``brk``, the
same allocator live set and statistics, the same registered types and
the same pointer arrays, for every workload under every technique.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.runtime.naming import mint_tag, reset_naming
from repro.runtime.objects import DeviceArray
from repro.techniques import available
from repro.workloads import workload_names
from repro.workloads.base import WORKLOAD_REGISTRY
from repro.workloads.cellular import Cell, CellularAutomaton
from repro.workloads.graphchi import _GraphWorkload
from repro.workloads.microbench import ObjectMicrobench, _make_micro_classes
from repro.workloads.raytracer import RayTracer
from repro.workloads.structure import GRAVITY, Structure
from repro.workloads.traffic import Traffic, TrafficTypes

SCALE = 0.02
SEED = 11


class PerObjectGraph:
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        self.n_vertices = self._scaled(self.NUM_VERTICES, minimum=64)
        n = self.n_vertices

        blocks = max(1, min(self.NUM_BLOCKS, n // 8))
        block_size = n // blocks
        if blocks == 1:
            src = [np.arange(n, dtype=np.int64)]
            dst = [(np.arange(n, dtype=np.int64) + 1) % n]
            extra = (self.AVG_DEGREE - 1) * n
            src.append(rng.integers(0, n, size=extra))
            dst.append(rng.integers(0, n, size=extra))
        else:
            extra = self.AVG_DEGREE * n
            s = rng.integers(0, n, size=extra)
            block_of = np.minimum(s // block_size, blocks - 1)
            lo = block_of * block_size
            hi = np.where(block_of == blocks - 1, n, lo + block_size)
            d = lo + rng.integers(0, 1 << 30, size=extra) % (hi - lo)
            src, dst = [s], [d]
        self.edge_src = np.concatenate(src).astype(np.uint32)
        self.edge_dst = np.concatenate(dst).astype(np.uint32)
        keep = self.edge_src != self.edge_dst
        self.edge_src = self.edge_src[keep]
        self.edge_dst = self.edge_dst[keep]
        self.n_edges = len(self.edge_src)
        self.out_degree = np.maximum(
            np.bincount(self.edge_src, minlength=n), 1
        ).astype(np.uint32)

        self._make_types()
        m.register(self.Edge, self.Vertex)

        vptrs = np.empty(n, dtype=np.uint64)
        vlay = m.registry.layout(self.Vertex)
        for i in range(n):
            p = m.new_objects(self.Vertex, 1)[0]
            m.write_field(p, vlay, "vid", i)
            m.write_field(p, vlay, "degree", int(self.out_degree[i]))
            vptrs[i] = p
        self.vertex_ptrs = vptrs
        self.vertices = m.array_from(vptrs, "u64")

        eptrs = np.empty(self.n_edges, dtype=np.uint64)
        elay = m.registry.layout(self.Edge)
        for j in range(self.n_edges):
            p = m.new_objects(self.Edge, 1)[0]
            m.write_field(p, elay, "src", int(self.edge_src[j]))
            m.write_field(p, elay, "dst", int(self.edge_dst[j]))
            eptrs[j] = p
        self.edge_ptrs = eptrs
        self.edges = m.array_from(eptrs, "u64")

        self._init_vertex_state()


class PerObjectCells:
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        side_scale = max(0.1, self.scale) ** 0.5
        self.width = max(16, int(self.GRID_W * side_scale))
        self.height = max(16, int(self.GRID_H * side_scale))
        self.n_cells = self.width * self.height

        self.Cell = Cell.descriptor()
        self.state_types = {
            s: c.descriptor() for s, c in self.state_classes.items()
        }
        m.register(*self.state_types.values())

        states = self._initial_states(rng)
        self.states = states
        ptrs = np.empty(self.n_cells, dtype=np.uint64)
        for i in range(self.n_cells):
            ptrs[i] = self._construct_cell(i, int(states[i]))
        self.cell_ptrs = ptrs
        self.grid = m.array_from(ptrs, "u64")

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

    def _construct_cell(self, index: int, state: int) -> int:
        m = self.machine
        tdesc = self.state_types[state]
        ptr = m.new_objects(tdesc, 1)[0]
        lay = m.registry.layout(tdesc)
        m.write_field(ptr, lay, "alive", 1 if state == 1 else 0)
        m.write_field(ptr, lay, "state", state)
        m.write_field(ptr, lay, "index", index)
        return int(ptr)


class PerObjectStructure:
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        side_scale = max(0.1, self.scale) ** 0.5
        self.width = max(8, int(self.GRID_W * side_scale))
        self.height = max(8, int(self.GRID_H * side_scale))
        w, h = self.width, self.height

        self._make_types()
        m.register(self.Spring, self.Node, self.AnchorNode)

        node_ptrs = np.empty(w * h, dtype=np.uint64)
        for i in range(w * h):
            x, y = i % w, i // w
            tdesc = self.AnchorNode if y == 0 else self.Node
            p = m.new_objects(tdesc, 1)[0]
            lay = m.registry.layout(tdesc)
            m.write_field(p, lay, "pos_x", float(x))
            m.write_field(p, lay, "pos_y", float(-y))
            m.write_field(p, lay, "force_y", float(GRAVITY))
            node_ptrs[i] = p
        self.node_ptrs = node_ptrs
        self.nodes = m.array_from(node_ptrs, "u64")
        self.n_nodes = w * h

        pairs = []
        for y in range(h):
            for x in range(w):
                i = y * w + x
                if x + 1 < w:
                    pairs.append((i, i + 1))
                if y + 1 < h:
                    pairs.append((i, i + w))
        spring_ptrs = np.empty(len(pairs), dtype=np.uint64)
        for j, (a, b) in enumerate(pairs):
            p = m.new_objects(self.Spring, 1)[0]
            lay = m.registry.layout(self.Spring)
            m.write_field(p, lay, "node_a", int(node_ptrs[a]))
            m.write_field(p, lay, "node_b", int(node_ptrs[b]))
            m.write_field(p, lay, "rest", 0.85)
            m.write_field(p, lay, "stiffness", 1.2)
            m.write_field(p, lay, "max_force",
                          float(0.15 + 0.6 * rng.random()))
            spring_ptrs[j] = p
        self.spring_ptrs = spring_ptrs
        self.springs = m.array_from(spring_ptrs, "u64")
        self.n_springs = len(pairs)


class PerObjectTraffic:
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        self.length = self._scaled(self.ROAD_LENGTH, minimum=256)
        n_cars = self._scaled(self.NUM_CARS)
        n_trucks = self._scaled(self.NUM_TRUCKS)
        n_lights = self._scaled(self.NUM_LIGHTS, minimum=4)
        n_sensors = self._scaled(self.NUM_SENSORS, minimum=4)

        t = TrafficTypes(self)
        self.RoadAgent, self.Vehicle = t.RoadAgent, t.Vehicle
        self.Car, self.Truck = t.Car, t.Truck
        self.TrafficLight, self.Sensor = t.TrafficLight, t.Sensor
        m.register(self.Car, self.Truck, self.TrafficLight, self.Sensor)

        self.occupancy = m.array("u32", self.length)
        self.occupancy.write(np.zeros(self.length, dtype=np.uint32))
        self.signals = m.array("u32", self.length)
        self.signals.write(np.zeros(self.length, dtype=np.uint32))

        cells = rng.choice(
            self.length, size=n_cars + n_trucks + n_lights + n_sensors,
            replace=False,
        ).astype(np.uint32)
        car_pos = cells[:n_cars]
        truck_pos = cells[n_cars:n_cars + n_trucks]
        light_pos = cells[n_cars + n_trucks:n_cars + n_trucks + n_lights]
        sensor_pos = cells[n_cars + n_trucks + n_lights:]

        ptrs = []
        kinds = (["car"] * n_cars + ["truck"] * n_trucks
                 + ["light"] * n_lights + ["sensor"] * n_sensors)
        rng.shuffle(kinds)
        it_car = iter(car_pos)
        it_truck = iter(truck_pos)
        it_light = iter(light_pos)
        it_sensor = iter(sensor_pos)
        occ = self.occupancy
        for kind in kinds:
            if kind == "car":
                p = m.new_objects(self.Car, 1)[0]
                self._init_vehicle(p, next(it_car), rng)
                occ[int(self._field_addr_index(p))] = 1
            elif kind == "truck":
                p = m.new_objects(self.Truck, 1)[0]
                self._init_vehicle(p, next(it_truck), rng)
                occ[int(self._field_addr_index(p))] = 1
            elif kind == "light":
                p = m.new_objects(self.TrafficLight, 1)[0]
                lay = m.registry.layout(self.TrafficLight)
                m.write_field(p, lay, "pos", int(next(it_light)))
                m.write_field(p, lay, "period", int(8 + rng.integers(8)))
                m.write_field(p, lay, "phase", 0)
            else:
                p = m.new_objects(self.Sensor, 1)[0]
                m.write_field(p, self.Sensor, "pos", int(next(it_sensor)))
            ptrs.append(p)

        by_kind = {"car": [], "truck": [], "light": [], "sensor": []}
        for p, k in zip(ptrs, kinds):
            by_kind[k].append(p)
        ordered = (by_kind["car"] + by_kind["truck"]
                   + by_kind["light"] + by_kind["sensor"])
        self.agent_ptrs = np.array(ordered, dtype=np.uint64)
        self.agents = m.array_from(self.agent_ptrs, "u64")
        self.num_agents = len(ordered)
        self._vehicle_ptrs = np.array(
            by_kind["car"] + by_kind["truck"], dtype=np.uint64
        )
        self._sensor_ptrs = np.array(by_kind["sensor"], dtype=np.uint64)

    def _init_vehicle(self, ptr, pos, rng) -> None:
        m = self.machine
        lay = m.registry.layout(self.Vehicle)
        m.write_field(ptr, lay, "pos", int(pos))
        m.write_field(ptr, lay, "vel", int(rng.integers(1, 3)))
        m.write_field(ptr, lay, "rand_state", int(rng.integers(1, 2**32 - 1)))

    def _field_addr_index(self, ptr) -> int:
        return int(self.machine.read_field(ptr, self.Vehicle, "pos"))


class PerObjectRay:
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        side_scale = max(0.2, self.scale) ** 0.5
        self.width = max(16, int(self.IMAGE_W * side_scale))
        self.height = max(8, int(self.IMAGE_H * side_scale))
        self.n_pixels = self.width * self.height
        n_spheres = self._scaled(self.NUM_SPHERES, minimum=8)
        n_planes = self._scaled(self.NUM_PLANES, minimum=2)

        self._make_types()
        m.register(self.Sphere, self.Plane)

        ptrs = []
        slay = m.registry.layout(self.Sphere)
        for _ in range(n_spheres):
            p = m.new_objects(self.Sphere, 1)[0]
            m.write_field(p, slay, "cx", float(rng.uniform(-6, 6)))
            m.write_field(p, slay, "cy", float(rng.uniform(-4, 4)))
            m.write_field(p, slay, "cz", float(rng.uniform(4, 18)))
            m.write_field(p, slay, "radius", float(rng.uniform(0.4, 1.6)))
            m.write_field(p, slay, "albedo", float(rng.uniform(0.2, 1.0)))
            ptrs.append(int(p))
        play = m.registry.layout(self.Plane)
        for k in range(n_planes):
            p = m.new_objects(self.Plane, 1)[0]
            m.write_field(p, play, "y0", float(-5.0 - k * 1.5))
            m.write_field(p, play, "albedo", float(0.15 + 0.1 * (k % 3)))
            ptrs.append(int(p))
        self.scene_ptrs = ptrs
        self.framebuffer = m.array("f32", self.n_pixels)
        self.framebuffer.write(np.zeros(self.n_pixels, dtype=np.float32))


def _per_object_mixin(cls):
    for base, mixin in ((_GraphWorkload, PerObjectGraph),
                        (CellularAutomaton, PerObjectCells),
                        (Structure, PerObjectStructure),
                        (Traffic, PerObjectTraffic),
                        (RayTracer, PerObjectRay)):
        if issubclass(cls, base):
            return mixin
    raise AssertionError(f"no per-object reference for {cls.__name__}")


def _machine_state(m: Machine) -> dict:
    heap = m.heap
    return {
        "brk": heap.brk,
        "heap": hashlib.sha1(heap.read_array(
            heap.null_guard, "u8", heap.brk - heap.null_guard).tobytes()
        ).hexdigest(),
        "live": [(a, t.name, s) for a, t, s in m.allocator.live_objects()],
        "alloc": dataclasses.asdict(m.allocator.stats),
        "types": [t.name for t in m.registry.all_types()],
    }


def _setup_state(cls, technique: str) -> dict:
    reset_naming()
    m = Machine(technique, config=small_config())
    wl = cls(m, scale=SCALE, seed=SEED)
    wl.setup()
    out = _machine_state(m)
    for name, value in vars(wl).items():
        if isinstance(value, DeviceArray):
            out[name] = (value.base, value.count)
        elif isinstance(value, np.ndarray):
            out[name] = (value.dtype.str, value.tolist())
        elif name.endswith("_ptrs"):
            out[name] = [int(p) for p in value]
    return out


@pytest.mark.parametrize("technique", available())
@pytest.mark.parametrize("workload", workload_names())
def test_column_setup_equals_per_object_reference(workload, technique):
    cls = WORKLOAD_REGISTRY[workload]
    reference = type(f"PerObject{cls.__name__}",
                     (_per_object_mixin(cls), cls), {})
    want = _setup_state(reference, technique)
    got = _setup_state(cls, technique)
    assert want["alloc"]["allocations"] > 0
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def _per_type_deal(machine, num_objects, num_types) -> np.ndarray:
    """ObjectMicrobench's construction before columns: one
    ``new_objects`` per type, then a per-object round-robin deal."""
    classes = _make_micro_classes(mint_tag("micro"), num_types)
    leaves = [c.descriptor() for c in classes[1:]]
    machine.register(*leaves)
    ptrs = np.empty(num_objects, dtype=np.uint64)
    per_type = [[] for _ in leaves]
    counts = [0] * num_types
    for i in range(num_objects):
        counts[i % num_types] += 1
    for t, n in enumerate(counts):
        if n:
            per_type[t] = list(machine.new_objects(leaves[t], n))
    cursors = [0] * num_types
    for i in range(num_objects):
        t = i % num_types
        ptrs[i] = per_type[t][cursors[t]]
        cursors[t] += 1
    machine.array_from(ptrs, "u64")
    return ptrs


@pytest.mark.parametrize("num_types", [1, 3, 32])
@pytest.mark.parametrize("technique", available())
def test_microbench_columns_equal_per_object_deal(technique, num_types):
    states = []
    for build in (_per_type_deal,
                  lambda m, n, t: ObjectMicrobench(m, n, t).ptrs):
        reset_naming()
        m = Machine(technique, config=small_config())
        ptrs = build(m, 100, num_types)
        states.append((_machine_state(m), ptrs.tolist()))
    assert states[0] == states[1]
