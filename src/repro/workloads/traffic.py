"""TRAF: Nagel-Schreckenberg traffic simulation (DynaSOAr suite).

Streets, cars/trucks, traffic lights and road sensors as polymorphic
agents on a ring road.  Each iteration runs the two classic NaSch
kernels through virtual calls:

* ``step_velocity`` -- accelerate, brake to the gap ahead (scanning the
  occupancy and signal maps), randomised slowdown (per-vehicle LCG),
* ``step_move`` -- vacate the old cell, advance, claim the new cell;
  lights toggle their signal, sensors count traffic.

Six types as in Table 2 (abstract RoadAgent and Vehicle; concrete Car,
Truck, TrafficLight, Sensor).  The synchronous NaSch gap rule keeps
car positions collision-free -- a tested invariant.
"""
from __future__ import annotations

import numpy as np

from ..runtime.naming import mint_tag
from ..runtime.typesystem import TypeDescriptor
from .base import PaperCharacteristics, Workload, register_workload

#: Maximum velocities; also the depth of the gap scan.
CAR_VMAX = 3
TRUCK_VMAX = 2

_LCG_A = np.uint32(1664525)
_LCG_C = np.uint32(1013904223)


def _lcg_next(state: np.ndarray) -> np.ndarray:
    return (state * _LCG_A + _LCG_C).astype(np.uint32)


class TrafficTypes:
    """Type hierarchy bound to one Traffic instance (closures need it)."""

    def __init__(self, wl: "Traffic"):
        road = wl  # closed over by the method implementations
        tag = mint_tag("traf")

        def vehicle_velocity(ctx, objs, vmax):
            base = road.RoadAgent
            pos = ctx.load_field(objs, base, "pos")
            vel = ctx.load_field(objs, road.Vehicle, "vel")
            rnd = ctx.load_field(objs, road.Vehicle, "rand_state")
            ctx.alu(2)  # accelerate: min(v+1, vmax)
            vel = np.minimum(vel + 1, vmax).astype(np.uint32)
            # gap scan: nearest blocked cell among the next vmax cells
            length = np.uint32(road.length)
            gap = np.full(len(pos), vmax, dtype=np.uint32)
            for k in range(vmax, 0, -1):
                ahead = (pos + np.uint32(k)) % length
                occ = road.occupancy.ld(ctx, ahead)
                sig = road.signals.ld(ctx, ahead)
                ctx.alu(2)  # blocked test + gap select
                blocked = (occ != 0) | (sig != 0)
                gap = np.where(blocked, k - 1, gap).astype(np.uint32)
            ctx.alu(1)
            vel = np.minimum(vel, gap).astype(np.uint32)
            # random slowdown with probability 1/8 (per-vehicle LCG)
            rnd = _lcg_next(rnd)
            ctx.alu(3)
            slow = ((rnd >> np.uint32(16)) & np.uint32(7)) == 0
            vel = np.where(slow & (vel > 0), vel - 1, vel).astype(np.uint32)
            ctx.store_field(objs, road.Vehicle, "vel", vel)
            ctx.store_field(objs, road.Vehicle, "rand_state", rnd)

        def car_velocity(ctx, objs):
            vehicle_velocity(ctx, objs, CAR_VMAX)

        def truck_velocity(ctx, objs):
            vehicle_velocity(ctx, objs, TRUCK_VMAX)

        def vehicle_move(ctx, objs):
            base = road.RoadAgent
            pos = ctx.load_field(objs, base, "pos")
            vel = ctx.load_field(objs, road.Vehicle, "vel")
            ctx.alu(2)
            new_pos = ((pos + vel) % np.uint32(road.length)).astype(np.uint32)
            road.occupancy.st(ctx, pos, np.zeros(len(pos), dtype=np.uint32))
            road.occupancy.st(ctx, new_pos, np.ones(len(pos), dtype=np.uint32))
            ctx.store_field(objs, base, "pos", new_pos)

        def light_velocity(ctx, objs):
            # lights do no velocity work; they still pay the dispatch
            ctx.alu(1)

        def light_move(ctx, objs):
            base = road.RoadAgent
            pos = ctx.load_field(objs, base, "pos")
            timer = ctx.load_field(objs, road.TrafficLight, "timer")
            period = ctx.load_field(objs, road.TrafficLight, "period")
            phase = ctx.load_field(objs, road.TrafficLight, "phase")
            ctx.alu(3)
            timer = (timer + 1).astype(np.uint32)
            flip = timer % period == 0
            phase = np.where(flip, 1 - phase, phase).astype(np.uint32)
            road.signals.st(ctx, pos, phase)
            ctx.store_field(objs, road.TrafficLight, "timer", timer)
            ctx.store_field(objs, road.TrafficLight, "phase", phase)

        def sensor_velocity(ctx, objs):
            ctx.alu(1)

        def sensor_move(ctx, objs):
            base = road.RoadAgent
            pos = ctx.load_field(objs, base, "pos")
            occ = road.occupancy.ld(ctx, pos)
            count = ctx.load_field(objs, road.Sensor, "count")
            ctx.alu(1)
            ctx.store_field(objs, road.Sensor, "count",
                            (count + occ).astype(np.uint32))

        self.RoadAgent = TypeDescriptor(
            f"RoadAgent#{tag}",
            fields=[("pos", "u32")],
            methods={"step_velocity": None, "step_move": None},
        )
        self.Vehicle = TypeDescriptor(
            f"Vehicle#{tag}",
            fields=[("vel", "u32"), ("rand_state", "u32"), ("dist", "u32")],
            base=self.RoadAgent,
        )
        self.Car = TypeDescriptor(
            f"Car#{tag}",
            base=self.Vehicle,
            methods={"step_velocity": car_velocity, "step_move": vehicle_move},
        )
        self.Truck = TypeDescriptor(
            f"Truck#{tag}",
            fields=[("cargo", "u32")],
            base=self.Vehicle,
            methods={"step_velocity": truck_velocity, "step_move": vehicle_move},
        )
        self.TrafficLight = TypeDescriptor(
            f"TrafficLight#{tag}",
            fields=[("timer", "u32"), ("period", "u32"), ("phase", "u32")],
            base=self.RoadAgent,
            methods={"step_velocity": light_velocity, "step_move": light_move},
        )
        self.Sensor = TypeDescriptor(
            f"Sensor#{tag}",
            fields=[("count", "u32")],
            base=self.RoadAgent,
            methods={"step_velocity": sensor_velocity, "step_move": sensor_move},
        )


@register_workload
class Traffic(Workload):
    """TRAF: Nagel-Schreckenberg model with polymorphic road agents."""

    name = "TRAF"
    suite = "Dynasoar"
    description = ("Nagel-Schreckenberg traffic flow over streets, cars "
                   "and traffic lights")
    paper = PaperCharacteristics(
        objects=1573714, types=6, vfuncs=74, vfunc_pki=30.6
    )
    default_iterations = 3

    # default (scale=1.0) sizes
    ROAD_LENGTH = 16384
    NUM_CARS = 2400
    NUM_TRUCKS = 800
    NUM_LIGHTS = 96
    NUM_SENSORS = 96

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
        self.signals = m.array("u32", self.length)
        self.signals.write(np.zeros(self.length, dtype=np.uint32))

        # distinct starting cells for all agents
        cells = rng.choice(
            self.length, size=n_cars + n_trucks + n_lights + n_sensors,
            replace=False,
        ).astype(np.uint32)
        car_pos = cells[:n_cars]
        truck_pos = cells[n_cars:n_cars + n_trucks]
        light_pos = cells[n_cars + n_trucks:n_cars + n_trucks + n_lights]
        sensor_pos = cells[n_cars + n_trucks + n_lights:]

        # allocation interleaves types, as real construction code does
        kinds = (["car"] * n_cars + ["truck"] * n_trucks
                 + ["light"] * n_lights + ["sensor"] * n_sensors)
        rng.shuffle(kinds)
        types = {"car": self.Car, "truck": self.Truck,
                 "light": self.TrafficLight, "sensor": self.Sensor}
        ptrs = m.new_objects([types[k] for k in kinds])
        # the random draws keep their per-object order: a vehicle draws
        # its velocity then its LCG seed, a light its period
        vel, seed, period = [], [], []
        for k in kinds:
            if k == "light":
                period.append(8 + rng.integers(8))
            elif k != "sensor":
                vel.append(rng.integers(1, 3))
                seed.append(rng.integers(1, 2**32 - 1))

        # the i-th object of a kind takes that kind's i-th starting cell
        kind = np.array(kinds)
        car, truck = kind == "car", kind == "truck"
        light, sensor = kind == "light", kind == "sensor"
        vehicle = car | truck
        pos = np.empty(len(kinds), dtype=np.uint32)
        pos[car], pos[truck] = car_pos, truck_pos
        pos[light], pos[sensor] = light_pos, sensor_pos
        m.write_field(ptrs, self.RoadAgent, "pos", pos)
        m.write_field(ptrs[vehicle], self.Vehicle, "vel", vel)
        m.write_field(ptrs[vehicle], self.Vehicle, "rand_state", seed)
        m.write_field(ptrs[light], self.TrafficLight, "period", period)
        m.write_field(ptrs[light], self.TrafficLight, "phase", 0)
        occupied = np.zeros(self.length, dtype=np.uint32)
        occupied[pos[vehicle]] = 1
        self.occupancy.write(occupied)

        # DynaSOAr-style do-all enumeration: the processing array groups
        # objects by type (each group in allocation order), even though
        # construction interleaved the types on the heap.  Thread i of a
        # group therefore touches the i-th *allocated* object of that
        # type -- contiguous under SharedOA, scattered under CUDA.
        self.agent_ptrs = np.concatenate(
            (ptrs[car], ptrs[truck], ptrs[light], ptrs[sensor]))
        self.agents = m.array_from(self.agent_ptrs, "u64")
        self.num_agents = len(self.agent_ptrs)
        self._vehicle_ptrs = np.concatenate((ptrs[car], ptrs[truck]))
        self._sensor_ptrs = ptrs[sensor]

    # ------------------------------------------------------------------
    def iterate(self) -> None:
        agents, RoadAgent = self.agents, self.RoadAgent

        def velocity_kernel(ctx):
            ptrs = agents.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, RoadAgent, "step_velocity")

        def move_kernel(ctx):
            ptrs = agents.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, RoadAgent, "step_move")

        self.machine.launch(velocity_kernel, self.num_agents,
                            independent_warps=True)
        # per warp: warps clear and claim occupancy cells other warps read
        self.machine.launch(move_kernel, self.num_agents)

    # ------------------------------------------------------------------
    def vehicle_positions(self) -> np.ndarray:
        m = self.machine
        lay = m.registry.layout(self.Vehicle)
        return m.read_field(self._vehicle_ptrs, lay, "pos")

    def checksum(self) -> float:
        m = self.machine
        lay = m.registry.layout(self.Vehicle)
        total = int(m.read_field(self._vehicle_ptrs, lay, "pos")
                    .astype(np.int64).sum())
        total += 7 * int(m.read_field(self._vehicle_ptrs, lay, "vel")
                         .astype(np.int64).sum())
        total += 13 * int(m.read_field(self._sensor_ptrs, self.Sensor, "count")
                          .astype(np.int64).sum())
        return float(total)
