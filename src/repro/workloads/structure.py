"""STUT: finite-element fracture simulation (DynaSOAr suite).

A material modelled as a grid of mass nodes joined by springs.  Each
iteration runs two virtual kernels:

* ``compute`` over springs: chase both endpoint object pointers, read
  positions, apply Hooke's law, accumulate forces into the nodes, and
  *break* when stretched past the spring's strength,
* ``integrate`` over nodes: explicit Euler under gravity; anchor nodes
  (the clamped top row) override ``integrate`` to stay fixed.

Four types as in Table 2: Element (abstract), Spring, Node, AnchorNode.
Spring->node force accumulation uses atomicAdd (exact and deterministic
under intra-warp conflicts), matching what a CUDA port would do.
"""
from __future__ import annotations

import numpy as np

from ..runtime.naming import mint_tag
from ..runtime.typesystem import TypeDescriptor
from .base import PaperCharacteristics, Workload, register_workload

DT = np.float32(0.08)
GRAVITY = np.float32(-0.5)


@register_workload
class Structure(Workload):
    """STUT: springs-and-nodes fracture under gravity."""

    name = "STUT"
    suite = "Dynasoar"
    description = "Finite-element fracture: springs and mass nodes"
    paper = PaperCharacteristics(
        objects=525000, types=4, vfuncs=40, vfunc_pki=30.0
    )
    default_iterations = 3

    GRID_W = 80
    GRID_H = 64

    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        side_scale = max(0.1, self.scale) ** 0.5
        self.width = max(8, int(self.GRID_W * side_scale))
        self.height = max(8, int(self.GRID_H * side_scale))
        w, h = self.width, self.height

        self._make_types()
        m.register(self.Spring, self.Node, self.AnchorNode)

        # nodes: the top row is anchored
        n = w * h
        i = np.arange(n)
        self.node_ptrs = m.new_objects([self.AnchorNode] * w
                                       + [self.Node] * (n - w))
        m.write_field(self.node_ptrs, self.NodeBase, "pos_x", i % w)
        m.write_field(self.node_ptrs, self.NodeBase, "pos_y", -(i // w))
        m.write_field(self.node_ptrs, self.NodeBase, "force_y", GRAVITY)
        self.nodes = m.array_from(self.node_ptrs, "u64")
        self.n_nodes = n

        # springs: each node's right, then lower neighbour, node by node;
        # randomised strength
        ends = np.stack([i + 1, i + w], axis=1)
        has = np.stack([i % w + 1 < w, i // w + 1 < h], axis=1)
        a, b = np.broadcast_to(i[:, None], ends.shape)[has], ends[has]
        self.n_springs = len(a)
        self.spring_ptrs = m.new_objects(self.Spring, self.n_springs)
        S = self.Spring
        m.write_field(self.spring_ptrs, S, "node_a", self.node_ptrs[a])
        m.write_field(self.spring_ptrs, S, "node_b", self.node_ptrs[b])
        # the lattice is assembled pre-stretched (rest < spacing), so
        # weak springs fail immediately and the fracture cascades
        m.write_field(self.spring_ptrs, S, "rest", 0.85)
        m.write_field(self.spring_ptrs, S, "stiffness", 1.2)
        m.write_field(self.spring_ptrs, S, "max_force",
                      0.15 + 0.6 * rng.random(self.n_springs))
        self.springs = m.array_from(self.spring_ptrs, "u64")

    # ------------------------------------------------------------------
    def _make_types(self) -> None:
        tag = mint_tag("stut")
        Element = TypeDescriptor(
            f"Element#{tag}",
            methods={"compute": None, "integrate": None},
        )
        NodeBase = TypeDescriptor(
            f"NodeBase#{tag}",
            fields=[
                ("pos_x", "f32"), ("pos_y", "f32"),
                ("vel_x", "f32"), ("vel_y", "f32"),
                ("force_x", "f32"), ("force_y", "f32"),
            ],
            base=Element,
        )
        wl = self

        def spring_compute(ctx, objs):
            S, NB = wl.Spring, wl.NodeBase
            broken = ctx.load_field(objs, S, "broken")
            pa = ctx.load_field(objs, S, "node_a")
            pb = ctx.load_field(objs, S, "node_b")
            ax = ctx.load_field(pa, NB, "pos_x")
            ay = ctx.load_field(pa, NB, "pos_y")
            bx = ctx.load_field(pb, NB, "pos_x")
            by = ctx.load_field(pb, NB, "pos_y")
            rest = ctx.load_field(objs, S, "rest")
            k = ctx.load_field(objs, S, "stiffness")
            fmax = ctx.load_field(objs, S, "max_force")
            ctx.alu(10)  # distance, Hooke's law, break test
            dx = bx - ax
            dy = by - ay
            dist = np.sqrt(dx * dx + dy * dy).astype(np.float32)
            safe = np.maximum(dist, np.float32(1e-6))
            mag = (k * (dist - rest)).astype(np.float32)
            now_broken = (np.abs(mag) > fmax) | (broken != 0)
            live = (~now_broken).astype(np.float32)
            fx = (mag * dx / safe * live).astype(np.float32)
            fy = (mag * dy / safe * live).astype(np.float32)
            # accumulate into both endpoints (atomicAdd, as the CUDA
            # port would: many springs share a node)
            ctx.atomic_field(pa, NB, "force_x", fx, op="add")
            ctx.atomic_field(pa, NB, "force_y", fy, op="add")
            ctx.atomic_field(pb, NB, "force_x", -fx, op="add")
            ctx.atomic_field(pb, NB, "force_y", -fy, op="add")
            ctx.store_field(objs, S, "broken", now_broken.astype(np.uint32))

        def spring_integrate(ctx, objs):
            ctx.alu(1)  # springs do not integrate

        def node_compute(ctx, objs):
            ctx.alu(1)  # nodes do no spring work

        def node_integrate(ctx, objs):
            NB = wl.NodeBase
            fx = ctx.load_field(objs, NB, "force_x")
            fy = ctx.load_field(objs, NB, "force_y")
            vx = ctx.load_field(objs, NB, "vel_x")
            vy = ctx.load_field(objs, NB, "vel_y")
            px = ctx.load_field(objs, NB, "pos_x")
            py = ctx.load_field(objs, NB, "pos_y")
            ctx.alu(8)
            vx = ((vx + fx * DT) * np.float32(0.995)).astype(np.float32)
            vy = ((vy + fy * DT) * np.float32(0.995)).astype(np.float32)
            ctx.store_field(objs, NB, "vel_x", vx)
            ctx.store_field(objs, NB, "vel_y", vy)
            ctx.store_field(objs, NB, "pos_x", (px + vx * DT).astype(np.float32))
            ctx.store_field(objs, NB, "pos_y", (py + vy * DT).astype(np.float32))
            n = len(objs)
            ctx.store_field(objs, NB, "force_x", np.zeros(n, dtype=np.float32))
            ctx.store_field(objs, NB, "force_y",
                            np.full(n, GRAVITY, dtype=np.float32))

        def anchor_integrate(ctx, objs):
            # anchored: discard forces, never move
            NB = wl.NodeBase
            n = len(objs)
            ctx.alu(1)
            ctx.store_field(objs, NB, "force_x", np.zeros(n, dtype=np.float32))
            ctx.store_field(objs, NB, "force_y", np.zeros(n, dtype=np.float32))

        self.Element = Element
        self.NodeBase = NodeBase
        self.Spring = TypeDescriptor(
            f"Spring#{tag}",
            fields=[
                ("node_a", "u64"), ("node_b", "u64"),
                ("rest", "f32"), ("stiffness", "f32"),
                ("max_force", "f32"), ("broken", "u32"),
            ],
            base=Element,
            methods={"compute": spring_compute, "integrate": spring_integrate},
        )
        self.Node = TypeDescriptor(
            f"Node#{tag}", base=NodeBase,
            methods={"compute": node_compute, "integrate": node_integrate},
        )
        self.AnchorNode = TypeDescriptor(
            f"AnchorNode#{tag}", base=NodeBase,
            methods={"compute": node_compute, "integrate": anchor_integrate},
        )

    # ------------------------------------------------------------------
    def iterate(self) -> None:
        springs, nodes, Element = self.springs, self.nodes, self.Element

        def spring_kernel(ctx):
            ptrs = springs.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, Element, "compute")

        def node_kernel(ctx):
            ptrs = nodes.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, Element, "integrate")

        # the springs' f32 atomicAdds from four sites meet at shared
        # nodes; a batch lands them in warp order, and nothing reads a
        # node's force until node_kernel
        self.machine.launch(spring_kernel, self.n_springs,
                            independent_warps=True)
        self.machine.launch(node_kernel, self.n_nodes, independent_warps=True)

    # ------------------------------------------------------------------
    def broken_count(self) -> int:
        m = self.machine
        lay = m.registry.layout(self.Spring)
        broken = m.read_field(self.spring_ptrs, lay, "broken")
        return int(broken.astype(np.int64).sum())

    def checksum(self) -> float:
        m = self.machine
        lay = m.registry.layout(self.NodeBase)
        # the running sum x0 + 3*y0 + x1 + 3*y1 + ... in float64, node by
        # node: cumsum adds in order, as a scalar loop would
        terms = np.empty(2 * self.n_nodes)
        terms[0::2] = m.read_field(self.node_ptrs, lay, "pos_x")
        terms[1::2] = 3.0 * m.read_field(self.node_ptrs, lay,
                                         "pos_y").astype(np.float64)
        total = float(np.cumsum(terms)[-1])
        return round(total, 3) + 1000.0 * self.broken_count()
