"""Functional tests for the TRAF Nagel-Schreckenberg workload."""
import numpy as np
import pytest

from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.workloads import make_workload


@pytest.fixture
def traf():
    m = Machine("sharedoa", config=small_config())
    wl = make_workload("TRAF", m, scale=0.05, seed=9)
    wl.setup()
    wl._setup_done = True
    return wl


def test_six_types_registered(traf):
    # RoadAgent, Vehicle (abstract) + Car, Truck, TrafficLight, Sensor
    assert traf.num_types() == 6


def test_vehicles_never_collide(traf):
    for _ in range(6):
        traf.iterate()
        pos = traf.vehicle_positions()
        assert len(np.unique(pos)) == len(pos), "two vehicles share a cell"


def test_positions_stay_on_road(traf):
    for _ in range(4):
        traf.iterate()
    assert (traf.vehicle_positions() < traf.length).all()


def test_occupancy_matches_vehicle_positions(traf):
    for _ in range(3):
        traf.iterate()
    occ = traf.occupancy.read()
    pos = traf.vehicle_positions()
    marked = set(np.flatnonzero(occ))
    assert set(int(p) for p in pos) == marked


def test_traffic_moves(traf):
    before = traf.vehicle_positions().copy()
    for _ in range(4):
        traf.iterate()
    after = traf.vehicle_positions()
    assert (before != after).any()


def test_velocities_bounded(traf):
    from repro.workloads.traffic import CAR_VMAX

    m = traf.machine
    lay = m.registry.layout(traf.Vehicle)
    for _ in range(4):
        traf.iterate()
    for p in traf._vehicle_ptrs[:50]:
        c = m.allocator._canonical(int(p))
        vel = int(m.heap.load(c + lay.offset("vel"), "u32"))
        assert vel <= CAR_VMAX


def test_lights_toggle_signals(traf):
    changed = False
    prev = traf.signals.read().copy()
    for _ in range(12):
        traf.iterate()
        cur = traf.signals.read()
        if (cur != prev).any():
            changed = True
        prev = cur.copy()
    assert changed, "no traffic light ever toggled"


def test_red_light_blocks_traffic(traf):
    # signals array only ever holds 0/1 written by lights
    for _ in range(5):
        traf.iterate()
    sig = traf.signals.read()
    assert set(np.unique(sig)) <= {0, 1}


def test_checksum_changes_over_time(traf):
    a = traf.checksum()
    traf.iterate()
    b = traf.checksum()
    assert a != b


def test_type_names_are_deterministic():
    """TRAF names its types with ``mint_tag``, like every other
    workload: the same construction order gives the same names in any
    process, and no name carries an object's ``id()``."""
    from repro.runtime.naming import reset_naming

    names = []
    for _ in range(2):
        reset_naming()
        wl = make_workload("TRAF", Machine("cuda", config=small_config()),
                           scale=0.02, seed=9)
        wl.setup()
        names.append([t.name for t in wl.machine.registry.all_types()])
    assert names[0] == names[1]
    assert len(names[0]) == 6
    assert all(name.endswith("#traf0") for name in names[0])
