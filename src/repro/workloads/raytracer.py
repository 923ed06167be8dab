"""RAY: the open-source one-weekend-style ray tracer (Table 2).

Spheres and planes behind an abstract ``Renderable`` with a virtual
``hit()``.  One thread per pixel; every pixel's ray is tested against
every scene object in a loop, so **all lanes of a warp call the
virtual function on the same object instance** -- the statically
uniform call sites the paper singles out: COAL's heuristic declines to
instrument them (section 5), and Concord's direct calls do slightly
better here than everywhere else (Figure 6 discussion).

Ray state (origin, direction, nearest-hit so far) lives in registers
(Python locals); only object members and the framebuffer are memory.
"""
from __future__ import annotations

import numpy as np

from ..runtime.naming import mint_tag
from ..runtime.typesystem import TypeDescriptor
from .base import PaperCharacteristics, Workload, register_workload

_BIG = np.float32(1e30)


@register_workload
class RayTracer(Workload):
    """RAY: global rendering of spheres and planes."""

    name = "RAY"
    suite = "Raytracer"
    description = "Ray tracing spheres and planes via virtual hit()"
    paper = PaperCharacteristics(objects=1000, types=3, vfuncs=3, vfunc_pki=15.4)
    default_iterations = 1

    IMAGE_W = 48
    IMAGE_H = 32
    NUM_SPHERES = 72
    NUM_PLANES = 8

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

        # each sphere draws cx, cy, cz, radius, albedo in turn; one draw
        # over (sphere, field) bounds takes them in that same order
        u = rng.uniform([-6, -4, 4, 0.4, 0.2], [6, 4, 18, 1.6, 1.0],
                        size=(n_spheres, 5))
        spheres = m.new_objects(self.Sphere, n_spheres)
        for j, f in enumerate(("cx", "cy", "cz", "radius", "albedo")):
            m.write_field(spheres, self.Sphere, f, u[:, j])
        planes = m.new_objects(self.Plane, n_planes)
        k = np.arange(n_planes)
        m.write_field(planes, self.Plane, "y0", -5.0 - k * 1.5)
        m.write_field(planes, self.Plane, "albedo", 0.15 + 0.1 * (k % 3))
        self.scene_ptrs = np.concatenate((spheres, planes)).tolist()
        self.framebuffer = m.array("f32", self.n_pixels)
        self.framebuffer.write(np.zeros(self.n_pixels, dtype=np.float32))

    # ------------------------------------------------------------------
    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("ray")

        def sphere_hit(ctx, objs):
            S = wl.Sphere
            st = wl._ray_state
            cx = ctx.load_field(objs, S, "cx")
            cy = ctx.load_field(objs, S, "cy")
            cz = ctx.load_field(objs, S, "cz")
            r = ctx.load_field(objs, S, "radius")
            alb = ctx.load_field(objs, S, "albedo")
            ctx.alu(26)  # quadratic intersection + normal/shading terms
            ox = -cx          # ray origin is (0,0,0)
            oy = -cy
            oz = -cz
            b = (ox * st["dx"] + oy * st["dy"] + oz * st["dz"]).astype(np.float32)
            cc = (ox * ox + oy * oy + oz * oz - r * r).astype(np.float32)
            disc = b * b - cc
            hit = disc > 0
            sq = np.sqrt(np.maximum(disc, 0)).astype(np.float32)
            t = (-b - sq).astype(np.float32)
            valid = hit & (t > np.float32(1e-3)) & (t < st["nearest"])
            st["nearest"] = np.where(valid, t, st["nearest"]).astype(np.float32)
            st["albedo"] = np.where(valid, alb, st["albedo"]).astype(np.float32)

        def plane_hit(ctx, objs):
            P = wl.Plane
            st = wl._ray_state
            y0 = ctx.load_field(objs, P, "y0")
            alb = ctx.load_field(objs, P, "albedo")
            ctx.alu(12)  # ray-plane solve + shading terms
            dy = st["dy"]
            safe_dy = np.where(np.abs(dy) > 1e-6, dy, np.float32(1.0))
            t = np.where(np.abs(dy) > 1e-6, y0 / safe_dy, _BIG)
            t = t.astype(np.float32)
            valid = (t > np.float32(1e-3)) & (t < st["nearest"])
            st["nearest"] = np.where(valid, t, st["nearest"]).astype(np.float32)
            st["albedo"] = np.where(valid, alb, st["albedo"]).astype(np.float32)

        self.Renderable = TypeDescriptor(
            f"Renderable#{tag}", methods={"hit": None}
        )
        self.Sphere = TypeDescriptor(
            f"Sphere#{tag}",
            fields=[("cx", "f32"), ("cy", "f32"), ("cz", "f32"),
                    ("radius", "f32"), ("albedo", "f32")],
            base=self.Renderable,
            methods={"hit": sphere_hit},
        )
        self.Plane = TypeDescriptor(
            f"Plane#{tag}",
            fields=[("y0", "f32"), ("albedo", "f32")],
            base=self.Renderable,
            methods={"hit": plane_hit},
        )

    # ------------------------------------------------------------------
    def iterate(self) -> None:
        wl = self
        scene = self.scene_ptrs
        fb = self.framebuffer
        Renderable = self.Renderable
        w, h = self.width, self.height

        def render_kernel(ctx):
            n = ctx.lane_count
            px = (ctx.tid % w).astype(np.float32)
            py = (ctx.tid // w).astype(np.float32)
            ctx.alu(8)  # camera ray setup
            dx = (px / w - 0.5).astype(np.float32)
            dy = (py / h - 0.5).astype(np.float32)
            dz = np.ones(n, dtype=np.float32)
            norm = np.sqrt(dx * dx + dy * dy + 1.0).astype(np.float32)
            wl._ray_state = {
                "dx": dx / norm, "dy": dy / norm, "dz": dz / norm,
                "nearest": np.full(n, _BIG, dtype=np.float32),
                "albedo": np.full(n, 0.05, dtype=np.float32),  # sky
            }
            for optr in scene:
                ctx.ctrl(1)  # loop bookkeeping
                bptr = np.full(n, optr, dtype=np.uint64)
                # every lane tests the SAME object: statically uniform
                ctx.vcall(bptr, Renderable, "hit", uniform=True)
            st = wl._ray_state
            ctx.alu(3)  # shade: simple depth-attenuated albedo
            depth = np.minimum(st["nearest"], np.float32(100.0))
            shade = (st["albedo"] / (1.0 + 0.05 * depth)).astype(np.float32)
            fb.st(ctx, ctx.tid, shade)

        self.machine.launch(render_kernel, self.n_pixels,
                            independent_warps=True)

    # ------------------------------------------------------------------
    def image(self) -> np.ndarray:
        return self.framebuffer.read().reshape(self.height, self.width)

    def checksum(self) -> float:
        return round(float(self.framebuffer.read().astype(np.float64).sum()), 4)
