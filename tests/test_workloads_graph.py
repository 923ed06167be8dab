"""Functional tests for the GraphChi workloads vs. reference algorithms."""
import numpy as np
import pytest

from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.workloads import make_workload
from repro.workloads.graphchi import INF_LEVEL


def _make(name, scale=0.04, seed=13, technique="sharedoa", iterations=0):
    m = Machine(technique, config=small_config())
    wl = make_workload(name, m, scale=scale, seed=seed)
    wl.setup()
    wl._setup_done = True
    for _ in range(iterations):
        wl.iterate()
    return wl


def _reference_bfs(n, src, dst, root=0):
    """Plain BFS levels over the directed graph."""
    adj = [[] for _ in range(n)]
    for s, d in zip(src, dst):
        adj[int(s)].append(int(d))
    levels = np.full(n, int(INF_LEVEL), dtype=np.int64)
    levels[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if levels[v] > levels[u] + 1:
                    levels[v] = levels[u] + 1
                    nxt.append(v)
        frontier = nxt
    return levels


def _reference_components(n, src, dst):
    """Min-label over undirected closure (what CC converges to)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in zip(src, dst):
        a, b = find(int(s)), find(int(d))
        if a != b:
            parent[max(a, b)] = min(a, b)
    labels = np.empty(n, dtype=np.int64)
    comp_min = {}
    for v in range(n):
        r = find(v)
        comp_min.setdefault(r, v)
    for v in range(n):
        labels[v] = comp_min[find(v)]
    return labels


class TestBFS:
    @pytest.mark.parametrize("name", ["BFS-vE", "BFS-vEN"])
    def test_levels_converge_to_reference(self, name):
        wl = _make(name)
        expect = _reference_bfs(wl.n_vertices, wl.edge_src, wl.edge_dst)
        for _ in range(40):  # enough iterations to converge
            wl.iterate()
        got = wl.levels().astype(np.int64)
        np.testing.assert_array_equal(got, expect)

    def test_levels_monotonically_decrease(self):
        wl = _make("BFS-vE")
        prev = wl.levels().astype(np.int64)
        for _ in range(5):
            wl.iterate()
            cur = wl.levels().astype(np.int64)
            assert (cur <= prev).all()
            prev = cur

    def test_root_stays_zero(self):
        wl = _make("BFS-vEN", iterations=5)
        assert wl.levels()[0] == 0


class TestCC:
    @pytest.mark.parametrize("name", ["CC-vE", "CC-vEN"])
    def test_labels_converge_to_components(self, name):
        wl = _make(name)
        expect = _reference_components(wl.n_vertices, wl.edge_src, wl.edge_dst)
        for _ in range(60):
            wl.iterate()
        got = wl.labels().astype(np.int64)
        np.testing.assert_array_equal(got, expect)

    def test_multiple_components_exist(self):
        # the CC graphs are built block-confined: >1 component
        wl = _make("CC-vE", iterations=60)
        assert len(np.unique(wl.labels())) > 1

    def test_labels_never_increase(self):
        wl = _make("CC-vE")
        prev = wl.labels().astype(np.int64)
        for _ in range(5):
            wl.iterate()
            cur = wl.labels().astype(np.int64)
            assert (cur <= prev).all()
            prev = cur


class TestPageRank:
    @pytest.mark.parametrize("name", ["PR-vE", "PR-vEN"])
    def test_rank_mass_conserved(self, name):
        wl = _make(name, iterations=10)
        total = float(wl.ranks().astype(np.float64).sum())
        # damped PageRank totals stay near 1 (dangling mass aside)
        assert 0.5 < total < 1.5

    def test_ranks_positive(self):
        wl = _make("PR-vE", iterations=8)
        assert (wl.ranks() > 0).all()

    def test_high_indegree_gets_high_rank(self):
        wl = _make("PR-vE")
        indeg = np.bincount(wl.edge_dst, minlength=wl.n_vertices)
        for _ in range(12):
            wl.iterate()
        ranks = wl.ranks().astype(np.float64)
        top_in = np.argsort(indeg)[-5:]
        bottom_in = np.argsort(indeg)[:5]
        assert ranks[top_in].mean() > ranks[bottom_in].mean()

    def test_ve_and_ven_agree(self):
        a = _make("PR-vE", iterations=6)
        b = _make("PR-vEN", iterations=6)
        np.testing.assert_allclose(a.ranks(), b.ranks(), rtol=1e-5)


class TestGraphConstruction:
    def test_edge_objects_match_arrays(self):
        wl = _make("BFS-vE")
        m = wl.machine
        lay = m.registry.layout(wl.Edge)
        for j in range(0, wl.n_edges, 211):
            c = m.allocator._canonical(int(wl.edge_ptrs[j]))
            assert int(m.heap.load(c + lay.offset("src"), "u32")) == wl.edge_src[j]
            assert int(m.heap.load(c + lay.offset("dst"), "u32")) == wl.edge_dst[j]

    def test_no_self_loops(self):
        wl = _make("CC-vEN")
        assert (wl.edge_src != wl.edge_dst).all()

    def test_four_types(self):
        wl = _make("BFS-vE")
        assert wl.num_types() == 4

    def test_ven_has_higher_pki(self):
        ve = _make("BFS-vE")
        ven = _make("BFS-vEN")
        s_ve = ve.machine
        s_ven = ven.machine
        ve.iterate()
        ven.iterate()
        assert (
            s_ven.run_stats.vfunc_pki > s_ve.run_stats.vfunc_pki
        ), "vEN should perform more virtual calls per instruction"


def test_ven_launches_are_labelled_by_kernel():
    """The edge and vertex launches of a vEN workload carry distinct
    names in the launch history (and so in ``repro profile``)."""
    wl = _make("BFS-vEN", scale=0.02, iterations=2)
    names = [name for name, _ in wl.machine.launch_history]
    assert names == ["edge_kernel", "vertex_kernel"] * 2
