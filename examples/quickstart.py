#!/usr/bin/env python
"""Quickstart: define a polymorphic hierarchy, run it under every
dispatch technique, and watch the paper's headline effect appear.

We build a little zoo of Shapes with a virtual ``area()`` method, put
100k virtual calls through each technique, and print the simulated
NVProf-style counters: the CUDA baseline pays a diverged global load
per object to find its vTable, COAL replaces it with an L1-friendly
range-table walk, and TypePointer eliminates it entirely.

Run:  python examples/quickstart.py
"""
import numpy as np

from repro import Machine, TypeDescriptor, techniques
from repro.gpu.config import scaled_config

# ----------------------------------------------------------------------
# 1. Declare a C++-style class hierarchy.
#    A virtual method is a Python callable executed warp-wide: it gets
#    an execution context (for charged loads/stores/ALU ops) and the
#    active lanes' object pointers.
# ----------------------------------------------------------------------


def circle_area(ctx, objs):
    r = ctx.load_field(objs, Shape, "a")
    ctx.alu(2)
    ctx.store_field(objs, Shape, "area", np.float32(3.14159265) * r * r)


def rect_area(ctx, objs):
    a = ctx.load_field(objs, Shape, "a")
    b = ctx.load_field(objs, Shape, "b")
    ctx.alu(1)
    ctx.store_field(objs, Shape, "area", a * b)


def tri_area(ctx, objs):
    a = ctx.load_field(objs, Shape, "a")
    b = ctx.load_field(objs, Shape, "b")
    ctx.alu(2)
    ctx.store_field(objs, Shape, "area", np.float32(0.5) * a * b)


Shape = TypeDescriptor(
    "Shape",
    fields=[("a", "f32"), ("b", "f32"), ("area", "f32")],
    methods={"area": None},  # pure virtual
)
Circle = TypeDescriptor("Circle", base=Shape, methods={"area": circle_area})
Rect = TypeDescriptor("Rect", base=Shape, methods={"area": rect_area})
Tri = TypeDescriptor("Tri", base=Shape, methods={"area": tri_area})


def build_scene(machine, n=30_000, seed=1):
    """Allocate a type-mixed population and initialise its fields."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 3, size=n)
    ptrs = np.empty(n, dtype=np.uint64)
    lay = machine.registry.layout(Shape)
    for i, k in enumerate(kinds):
        t = (Circle, Rect, Tri)[k]
        p = machine.new_objects(t, 1)[0]
        c = machine.allocator._canonical(int(p))
        machine.heap.store(c + lay.offset("a"), "f32", float(rng.uniform(1, 3)))
        machine.heap.store(c + lay.offset("b"), "f32", float(rng.uniform(1, 3)))
        ptrs[i] = p
    return ptrs


def total_area(machine, ptrs):
    lay = machine.registry.layout(Shape)
    off = lay.offset("area")
    return sum(
        float(machine.heap.load(machine.allocator._canonical(int(p)) + off,
                                "f32"))
        for p in ptrs[:500]  # sample: enough to compare results
    )


def main():
    print(f"{'technique':14s} {'cycles':>10s} {'gld':>9s} {'L1 hit':>7s} "
          f"{'instrs':>8s}  total_area(sample)")
    baseline_cycles = None
    for tech in techniques.paper_techniques():
        m = Machine(tech, config=scaled_config())
        m.register(Circle, Rect, Tri)
        ptrs = build_scene(m)
        arr = m.array_from(ptrs, "u64")

        def kernel(ctx):
            p = arr.ld(ctx, ctx.tid)
            ctx.vcall(p, Shape, "area")   # virtual dispatch!

        stats = m.launch(kernel, len(ptrs))
        if tech == "sharedoa":
            baseline_cycles = stats.cycles
        print(f"{tech:14s} {stats.cycles:10.0f} "
              f"{stats.global_load_transactions:9d} "
              f"{stats.l1_hit_rate:7.1%} {stats.total_warp_instrs:8d}  "
              f"{total_area(m, ptrs):.2f}")
    print("\nAll techniques compute the same areas; they differ only in "
          "how the GPU finds each object's vTable.")
    if baseline_cycles:
        print("Lower cycles = faster. Expect CUDA slowest, TypePointer "
              "fastest (paper Figure 6).")


if __name__ == "__main__":
    main()
