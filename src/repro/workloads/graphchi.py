"""GraphChi graph-analytics workloads: BFS, CC and PageRank.

Two variants, as in the paper (Table 2):

* **vE**: only *edges* are polymorphic -- abstract ``ChiEdge`` with a
  concrete ``Edge`` implementing its virtual functions.  Vertex data
  is reached by dereferencing vertex object pointers directly.
* **vEN**: *edges and vertices* are polymorphic -- edge processing
  performs nested virtual calls into ``ChiVertex`` accessors and a
  second virtual kernel updates every vertex, roughly a 1.5x higher
  vFuncPKI (52 vs 36 for BFS), as published.

The graph is a deterministic random digraph (out-degree ~6, plus a
ring to keep it connected).  Edge objects are allocated in edge order;
vertex objects in vertex order; a thread per edge (and, for vEN, per
vertex) processes the graph iteratively, exactly the diverged
object-access pattern whose vTable-pointer loads the paper attacks.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime.naming import mint_tag
from ..runtime.typesystem import TypeDescriptor
from .base import PaperCharacteristics, Workload, register_workload

INF_LEVEL = np.uint32(1_000_000)
DAMPING = np.float32(0.85)


class _GraphWorkload(Workload):
    """Shared graph construction + object allocation for all six."""

    NUM_VERTICES = 4096
    AVG_DEGREE = 6
    default_iterations = 4
    #: True when vertices are polymorphic too (the vEN variants)
    virtual_vertices = False
    #: number of disjoint blocks edges are confined to; >1 yields a
    #: multi-component graph (used by the CC variants so component
    #: discovery is non-trivial)
    NUM_BLOCKS = 1

    # ------------------------------------------------------------------
    def setup(self) -> None:
        m = self.machine
        rng = np.random.default_rng(self.seed)
        self.n_vertices = self._scaled(self.NUM_VERTICES, minimum=64)
        n = self.n_vertices

        blocks = max(1, min(self.NUM_BLOCKS, n // 8))
        block_size = n // blocks
        if blocks == 1:
            # ring + random extra edges: connected, deterministic
            src = [np.arange(n, dtype=np.int64)]
            dst = [(np.arange(n, dtype=np.int64) + 1) % n]
            extra = (self.AVG_DEGREE - 1) * n
            src.append(rng.integers(0, n, size=extra))
            dst.append(rng.integers(0, n, size=extra))
        else:
            # block-confined random edges: ``blocks`` components
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

        # vertex objects first, then edge objects (construction order)
        self.vertex_ptrs = m.new_objects(self.Vertex, n)
        m.write_field(self.vertex_ptrs, self.Vertex, "vid",
                      np.arange(n, dtype=np.uint32))
        m.write_field(self.vertex_ptrs, self.Vertex, "degree",
                      self.out_degree)
        self.vertices = m.array_from(self.vertex_ptrs, "u64")

        self.edge_ptrs = m.new_objects(self.Edge, self.n_edges)
        m.write_field(self.edge_ptrs, self.Edge, "src", self.edge_src)
        m.write_field(self.edge_ptrs, self.Edge, "dst", self.edge_dst)
        self.edges = m.array_from(self.edge_ptrs, "u64")

        self._init_vertex_state()

    # subclass hooks ----------------------------------------------------
    def _make_types(self) -> None:
        raise NotImplementedError

    def _init_vertex_state(self) -> None:
        raise NotImplementedError

    # helpers ------------------------------------------------------------
    def _vertex_field(self, field: str) -> np.ndarray:
        m = self.machine
        lay = m.registry.layout(self.Vertex)
        return m.read_field(self.vertex_ptrs, lay, field)

    def _set_vertex_field(self, field: str, values) -> None:
        m = self.machine
        lay = m.registry.layout(self.Vertex)
        m.write_field(self.vertex_ptrs, lay, field, values)

    def _edge_kernel(self):
        edges, ChiEdge = self.edges, self.ChiEdge

        def edge_kernel(ctx):
            ptrs = edges.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, ChiEdge, "process")

        return edge_kernel

    def _vertex_kernel(self):
        vertices, ChiVertex = self.vertices, self.ChiVertex

        def vertex_kernel(ctx):
            ptrs = vertices.ld(ctx, ctx.tid)
            ctx.vcall(ptrs, ChiVertex, "update")

        return vertex_kernel


# ======================================================================
# type factories
# ======================================================================
def _edge_types(tag: str, process) -> Dict[str, TypeDescriptor]:
    chi_edge = TypeDescriptor(f"ChiEdge#{tag}", methods={"process": None})
    edge = TypeDescriptor(
        f"Edge#{tag}",
        fields=[("src", "u32"), ("dst", "u32"), ("weight", "f32")],
        base=chi_edge,
        methods={"process": process},
    )
    return {"ChiEdge": chi_edge, "Edge": edge}


def _vertex_types(tag: str, fields, methods=None, virtual=False):
    if virtual:
        base_methods = {"update": None, "get_value": None, "set_value": None}
    else:
        base_methods = {}
    chi_vertex = TypeDescriptor(f"ChiVertex#{tag}", methods=base_methods)
    vertex = TypeDescriptor(
        f"Vertex#{tag}",
        fields=[("vid", "u32"), ("degree", "u32")] + list(fields),
        base=chi_vertex,
        methods=methods or {},
    )
    return {"ChiVertex": chi_vertex, "Vertex": vertex}


# ======================================================================
# vE variants: virtual edges only
# ======================================================================
@register_workload
class BFSvE(_GraphWorkload):
    """BFS-vE: breadth-first level propagation, virtual edges."""

    name = "BFS-vE"
    suite = "GraphChi-vE"
    description = "BFS over ChiEdge/Edge; vertex data accessed directly"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=5, vfunc_pki=35.9
    )

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("bfsve")

        def process(ctx, objs):
            E, V = wl.Edge, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            lsrc = ctx.load_field(sptr, V, "level")
            ctx.alu(1)  # add
            # atomicMin: exact under intra-warp dst conflicts
            ctx.atomic_field(dptr, V, "level",
                             (lsrc + np.uint32(1)).astype(np.uint32),
                             op="min")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(tag, [("level", "u32")])
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        levels = np.full(self.n_vertices, INF_LEVEL, dtype=np.uint32)
        levels[0] = 0
        self._set_vertex_field("level", levels)

    def iterate(self) -> None:
        # per warp: atomicMin into ``level``, which later warps' edges read
        self.machine.launch(self._edge_kernel(), self.n_edges)

    def levels(self) -> np.ndarray:
        return self._vertex_field("level")

    def checksum(self) -> float:
        lv = np.minimum(self.levels(), INF_LEVEL).astype(np.int64)
        return float((lv * (np.arange(self.n_vertices) % 31 + 1)).sum())


@register_workload
class CCvE(_GraphWorkload):
    """CC-vE: connected components via iterative min-label, virtual edges."""

    name = "CC-vE"
    suite = "GraphChi-vE"
    description = "Connected components by min-label propagation"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=6, vfunc_pki=29.5
    )
    NUM_BLOCKS = 24

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("ccve")

        def process(ctx, objs):
            E, V = wl.Edge, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            lsrc = ctx.load_field(sptr, V, "label")
            ldst = ctx.load_field(dptr, V, "label")
            ctx.alu(1)
            lo = np.minimum(lsrc, ldst).astype(np.uint32)
            ctx.atomic_field(dptr, V, "label", lo, op="min")
            ctx.atomic_field(sptr, V, "label", lo, op="min")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(tag, [("label", "u32")])
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        self._set_vertex_field(
            "label", np.arange(self.n_vertices, dtype=np.uint32)
        )

    def iterate(self) -> None:
        # per warp: atomicMin into ``label``, which later warps' edges read
        self.machine.launch(self._edge_kernel(), self.n_edges)

    def labels(self) -> np.ndarray:
        return self._vertex_field("label")

    def checksum(self) -> float:
        lb = self.labels().astype(np.int64)
        return float((lb * (np.arange(self.n_vertices) % 29 + 1)).sum())


@register_workload
class PageRankvE(_GraphWorkload):
    """PR-vE: PageRank with virtual edges."""

    name = "PR-vE"
    suite = "GraphChi-vE"
    description = "PageRank: per-edge rank scatter + per-vertex apply"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=3, vfunc_pki=36.9
    )

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("prve")

        def process(ctx, objs):
            E, V = wl.Edge, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            rank = ctx.load_field(sptr, V, "rank")
            deg = ctx.load_field(sptr, V, "degree")
            ctx.alu(1)
            contrib = (rank / deg.astype(np.float32)).astype(np.float32)
            ctx.atomic_field(dptr, V, "acc", contrib, op="add")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(tag, [("rank", "f32"), ("acc", "f32")])
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        self._set_vertex_field(
            "rank", np.float32(1.0 / self.n_vertices)
        )
        self._set_vertex_field("acc", np.float32(0.0))

    def iterate(self) -> None:
        # atomicAdd into ``acc``, which nothing reads until apply
        self.machine.launch(self._edge_kernel(), self.n_edges,
                            independent_warps=True)
        # apply phase: vertex data is non-virtual in the vE variant
        wl = self

        def apply_kernel(ctx):
            V = wl.Vertex
            ptrs = wl.vertices.ld(ctx, ctx.tid)
            acc = ctx.load_field(ptrs, V, "acc")
            ctx.alu(3)
            base = np.float32((1.0 - float(DAMPING)) / wl.n_vertices)
            rank = (base + DAMPING * acc).astype(np.float32)
            ctx.store_field(ptrs, V, "rank", rank)
            ctx.store_field(ptrs, V, "acc",
                            np.zeros(ctx.lane_count, dtype=np.float32))

        self.machine.launch(apply_kernel, self.n_vertices,
                            independent_warps=True)

    def ranks(self) -> np.ndarray:
        return self._vertex_field("rank")

    def checksum(self) -> float:
        # weighted digest: sensitive to the rank *distribution* (the
        # plain sum is conserved at ~1.0 and would hide ranking bugs)
        r = self.ranks().astype(np.float64)
        w = np.arange(self.n_vertices) % 23 + 1
        return round(float((r * w).sum()) * 1e6, 1)


# ======================================================================
# vEN variants: virtual edges AND vertices
# ======================================================================
class _GraphWorkloadVEN(_GraphWorkload):
    virtual_vertices = True

    def iterate(self) -> None:
        # edges read vertex values only through get_value and update
        # next_level/next_label/acc only by atomics, which nothing reads
        # until the vertex kernel; each vertex update touches its own
        # vertex
        self.machine.launch(self._edge_kernel(), self.n_edges,
                            independent_warps=True)
        self.machine.launch(self._vertex_kernel(), self.n_vertices,
                            independent_warps=True)


@register_workload
class BFSvEN(_GraphWorkloadVEN):
    """BFS-vEN: virtual edges and vertices (nested virtual accessors)."""

    name = "BFS-vEN"
    suite = "GraphChi-vEN"
    description = "BFS with ChiVertex virtual accessors and updates"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=15, vfunc_pki=52.2
    )

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("bfsven")

        def get_value(ctx, objs):
            return ctx.load_field(objs, wl.Vertex, "level")

        def set_value(ctx, objs):
            # virtual setter slot (present in the vTable; the BFS kernel
            # uses direct next_level stores instead)
            ctx.alu(1)

        def vertex_update(ctx, objs):
            # commit next_level into level
            nxt = ctx.load_field(objs, wl.Vertex, "next_level")
            lvl = ctx.load_field(objs, wl.Vertex, "level")
            ctx.alu(1)
            ctx.store_field(objs, wl.Vertex, "level",
                            np.minimum(lvl, nxt).astype(np.uint32))

        def process(ctx, objs):
            E, CV, V = wl.Edge, wl.ChiVertex, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            lsrc = ctx.vcall(sptr, CV, "get_value")  # nested virtual call
            ctx.alu(1)
            ctx.atomic_field(dptr, V, "next_level",
                             (lsrc + np.uint32(1)).astype(np.uint32),
                             op="min")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(
            tag,
            [("level", "u32"), ("next_level", "u32")],
            methods={"update": vertex_update, "get_value": get_value,
                     "set_value": set_value},
            virtual=True,
        )
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        levels = np.full(self.n_vertices, INF_LEVEL, dtype=np.uint32)
        levels[0] = 0
        self._set_vertex_field("level", levels)
        self._set_vertex_field("next_level", levels)

    def levels(self) -> np.ndarray:
        return self._vertex_field("level")

    def checksum(self) -> float:
        lv = np.minimum(self.levels(), INF_LEVEL).astype(np.int64)
        return float((lv * (np.arange(self.n_vertices) % 31 + 1)).sum())


@register_workload
class CCvEN(_GraphWorkloadVEN):
    """CC-vEN: connected components, virtual edges and vertices."""

    name = "CC-vEN"
    suite = "GraphChi-vEN"
    description = "Connected components with virtual vertex accessors"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=15, vfunc_pki=44.2
    )
    NUM_BLOCKS = 24

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("ccven")

        def get_value(ctx, objs):
            return ctx.load_field(objs, wl.Vertex, "label")

        def vertex_update(ctx, objs):
            nxt = ctx.load_field(objs, wl.Vertex, "next_label")
            lbl = ctx.load_field(objs, wl.Vertex, "label")
            ctx.alu(1)
            ctx.store_field(objs, wl.Vertex, "label",
                            np.minimum(lbl, nxt).astype(np.uint32))

        def process(ctx, objs):
            E, CV, V = wl.Edge, wl.ChiVertex, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            lsrc = ctx.vcall(sptr, CV, "get_value")
            ldst = ctx.vcall(dptr, CV, "get_value")
            ctx.alu(1)
            lo = np.minimum(lsrc, ldst).astype(np.uint32)
            ctx.atomic_field(dptr, V, "next_label", lo, op="min")
            ctx.atomic_field(sptr, V, "next_label", lo, op="min")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(
            tag,
            [("label", "u32"), ("next_label", "u32")],
            methods={"update": vertex_update, "get_value": get_value,
                     "set_value": lambda ctx, objs: None},
            virtual=True,
        )
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        ids = np.arange(self.n_vertices, dtype=np.uint32)
        self._set_vertex_field("label", ids)
        self._set_vertex_field("next_label", ids)

    def labels(self) -> np.ndarray:
        return self._vertex_field("label")

    def checksum(self) -> float:
        lb = self.labels().astype(np.int64)
        return float((lb * (np.arange(self.n_vertices) % 29 + 1)).sum())


@register_workload
class PageRankvEN(_GraphWorkloadVEN):
    """PR-vEN: PageRank, virtual edges and vertices."""

    name = "PR-vEN"
    suite = "GraphChi-vEN"
    description = "PageRank with virtual vertex accessors and apply"
    paper = PaperCharacteristics(
        objects=2254419, types=4, vfuncs=10, vfunc_pki=54.4
    )

    def _make_types(self) -> None:
        wl = self
        tag = mint_tag("prven")

        def get_value(ctx, objs):
            rank = ctx.load_field(objs, wl.Vertex, "rank")
            deg = ctx.load_field(objs, wl.Vertex, "degree")
            ctx.alu(1)
            return (rank / deg.astype(np.float32)).astype(np.float32)

        def vertex_update(ctx, objs):
            V = wl.Vertex
            acc = ctx.load_field(objs, V, "acc")
            ctx.alu(3)
            base = np.float32((1.0 - float(DAMPING)) / wl.n_vertices)
            rank = (base + DAMPING * acc).astype(np.float32)
            ctx.store_field(objs, V, "rank", rank)
            ctx.store_field(objs, V, "acc",
                            np.zeros(len(objs), dtype=np.float32))

        def process(ctx, objs):
            E, CV, V = wl.Edge, wl.ChiVertex, wl.Vertex
            src = ctx.load_field(objs, E, "src")
            dst = ctx.load_field(objs, E, "dst")
            ctx.alu(4)  # index scaling + bounds predicates
            sptr = wl.vertices.ld(ctx, src)
            dptr = wl.vertices.ld(ctx, dst)
            contrib = ctx.vcall(sptr, CV, "get_value")
            ctx.atomic_field(dptr, V, "acc",
                             contrib.astype(np.float32), op="add")

        d = _edge_types(tag, process)
        self.ChiEdge, self.Edge = d["ChiEdge"], d["Edge"]
        v = _vertex_types(
            tag,
            [("rank", "f32"), ("acc", "f32")],
            methods={"update": vertex_update, "get_value": get_value,
                     "set_value": lambda ctx, objs: None},
            virtual=True,
        )
        self.ChiVertex, self.Vertex = v["ChiVertex"], v["Vertex"]

    def _init_vertex_state(self) -> None:
        self._set_vertex_field("rank", np.float32(1.0 / self.n_vertices))
        self._set_vertex_field("acc", np.float32(0.0))

    def ranks(self) -> np.ndarray:
        return self._vertex_field("rank")

    def checksum(self) -> float:
        # weighted digest: sensitive to the rank *distribution* (the
        # plain sum is conserved at ~1.0 and would hide ranking bugs)
        r = self.ranks().astype(np.float64)
        w = np.arange(self.n_vertices) % 23 + 1
        return round(float((r * w).sum()) * 1e6, 1)
