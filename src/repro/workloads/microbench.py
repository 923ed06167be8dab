"""Scalability microbenchmarks (paper section 8.3, Figure 12).

High-vFuncPKI kernels whose virtual function body is a simple addition
(no memory traffic inside the body), isolating dispatch cost:

* ``BRANCH`` -- no objects at all: each thread picks its "type" from a
  register value (tid % T) and branches; the SIMT cost is pure branch
  divergence.  The idealised lower bound both figures normalise to.
* object-based variants -- T types of real objects dispatched through
  whichever technique the machine is configured with (CUDA / COAL /
  TypePointer in the paper's plots).

Threads scale with objects (one thread per object); the number of
types accessed *within a warp* is controlled by dealing objects to
threads round-robin, so ``num_types`` distinct types appear in every
warp -- the Figure 12b axis.

The hierarchies are built *through the front-end* -- ``type()`` +
:func:`~repro.device_class` per leaf -- because ``num_types`` is a
parameter; the per-bench name tags come from the deterministic
:func:`~repro.runtime.naming.mint_tag` counter (the Figure 12 sweeps
build many benches per process, and their type names must be stable
across runs for replay-store keys).
"""
from __future__ import annotations

from typing import List

import numpy as np

from ..frontend import abstract, device_class, kernel, virtual
from ..gpu.machine import Machine
from ..gpu.stats import KernelStats
from ..runtime.naming import mint_tag


def _make_micro_classes(tag: str, num_types: int) -> List[type]:
    """An abstract base plus ``num_types`` concrete leaf classes.

    Every body performs the same payload -- load the object's value,
    add a per-type constant, store it back -- so the *only* difference
    between techniques (and the BRANCH baseline, which runs the same
    payload on a flat array) is the dispatch mechanism itself.
    """
    Base = device_class(
        type("MicroBase", (), {
            "__annotations__": {"value": "u32"},
            "work": abstract(lambda self, ctx: None),
        }),
        name=f"MicroBase#{tag}",
    )

    leaves = []
    for k in range(num_types):
        increment = np.uint32(k + 1)

        def work(self, ctx, _inc=increment):
            # "the compute inside the function call is a simple addition"
            v = self.value
            ctx.alu(1)
            self.value = v + _inc

        leaves.append(device_class(
            type(f"MicroType{k}", (Base,), {"work": virtual(work)}),
            name=f"MicroType{k}#{tag}",
        ))
    return [Base] + leaves


# Both kernels touch only their own lanes' objects and elements, and
# branch through subcontexts, so they declare warp independence and run
# once per wave (see repro.frontend.kernel).
@kernel(independent_warps=True)
def work_all(ctx, objects, Base):
    p = objects.ld(ctx, ctx.tid)
    Base.view(ctx, p).work()


@kernel(independent_warps=True)
def branch_payload(ctx, data, num_types):
    # pick the 'type' from a register value: tid % T
    ctx.alu(1)
    kinds = ctx.tid % num_types
    # the SIMT stack executes each taken branch direction once
    for k in np.unique(kinds):
        sel = kinds == k
        sub = ctx.subcontext(sel)
        sub.alu(1)              # compare
        sub.ctrl(1)             # branch
        v = data.ld(sub, sub.tid)
        sub.alu(1)              # the body: a simple addition
        data.st(sub, sub.tid, v + np.uint32(int(k) + 1))
    ctx.ctrl(1)                 # reconvergence


class ObjectMicrobench:
    """Virtual-dispatch microbenchmark over a configured machine."""

    def __init__(self, machine: Machine, num_objects: int, num_types: int,
                 seed: int = 3):
        if num_types < 1:
            raise ValueError("num_types must be >= 1")
        self.machine = machine
        self.num_objects = num_objects
        self.num_types = num_types
        classes = _make_micro_classes(mint_tag("micro"), num_types)
        self.base_class, self.leaf_classes = classes[0], classes[1:]
        self.base = self.base_class.descriptor()
        self.leaves = [c.descriptor() for c in self.leaf_classes]
        machine.register(*self.leaves)

        # allocate type by type, then deal the pointers round-robin so
        # each warp sees num_types distinct types (the Figure 12b axis)
        ptrs = np.empty(num_objects, dtype=np.uint64)
        for t, leaf in enumerate(self.leaves):
            dealt = ptrs[t::num_types]
            dealt[:] = machine.new_objects(leaf, dealt.size)
        self.ptrs = ptrs
        self.objects = machine.array_from(ptrs, "u64")

    def run(self, iterations: int = 1) -> KernelStats:
        machine = self.machine
        machine.reset_run()
        for _ in range(iterations):
            work_all[self.num_objects](machine, self.objects,
                                       self.base_class)
        return machine.run_stats


class BranchMicrobench:
    """The BRANCH baseline: register-arbitrated 'types', no objects.

    Runs the same load/add/store payload as the object variants, but on
    a flat array indexed by thread id, with the "type" decided from a
    register value -- control flow without any dispatch memory
    overhead (paper section 8.3).
    """

    def __init__(self, machine: Machine, num_threads: int, num_types: int):
        if num_types < 1:
            raise ValueError("num_types must be >= 1")
        self.machine = machine
        self.num_threads = num_threads
        self.num_types = num_types
        self.data = machine.array("u32", num_threads)
        self.data.write(np.zeros(num_threads, dtype=np.uint32))

    def run(self, iterations: int = 1) -> KernelStats:
        machine = self.machine
        machine.reset_run()
        for _ in range(iterations):
            branch_payload[self.num_threads](machine, self.data,
                                             self.num_types)
        return machine.run_stats
