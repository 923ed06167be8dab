#!/usr/bin/env python
"""Graph analytics with polymorphic edges and vertices (GraphChi port).

Runs BFS and PageRank from the GraphChi-vEN suite -- where both edges
AND vertices are virtual -- under all five techniques, validates that
every technique computes identical results (the paper's functional
validation), and prints the per-technique dispatch cost.

Run:  python examples/graph_analytics.py
"""
import numpy as np

from repro import Machine, techniques
from repro.gpu.config import scaled_config
from repro.workloads import make_workload


def run(workload_name, iterations, scale=0.2):
    print(f"=== {workload_name} ({iterations} iterations) ===")
    print(f"{'technique':14s} {'cycles':>10s} {'gld':>9s} {'L1':>7s} "
          f"{'PKI':>6s}  checksum")
    results = {}
    for tech in techniques.paper_techniques():
        m = Machine(tech, config=scaled_config())
        wl = make_workload(workload_name, m, scale=scale, seed=3)
        stats = wl.run(iterations)
        results[tech] = wl.checksum()
        print(f"{tech:14s} {stats.cycles:10.0f} "
              f"{stats.global_load_transactions:9d} "
              f"{stats.l1_hit_rate:7.1%} {stats.vfunc_pki:6.1f}  "
              f"{results[tech]}")
    assert len(set(results.values())) == 1, "techniques disagree!"
    print("all techniques produce identical results\n")
    return results


def main():
    run("BFS-vEN", iterations=8)
    run("PR-vEN", iterations=6)

    # drill into one run: where do BFS levels land?
    m = Machine("coal", config=scaled_config())
    wl = make_workload("BFS-vEN", m, scale=0.2, seed=3)
    wl.setup()
    wl._setup_done = True
    for _ in range(16):
        wl.iterate()
    levels = wl.levels()
    reached = levels[levels < 1_000_000]
    hist = np.bincount(reached)
    print("BFS level histogram (level: vertices):")
    for lvl, n in enumerate(hist):
        if n:
            print(f"  {lvl:3d}: {'#' * min(int(n), 60)} {n}")
    print(f"\nreached {len(reached)}/{wl.n_vertices} vertices, "
          f"eccentricity {reached.max()}")


if __name__ == "__main__":
    main()
