"""Constant memory and the per-kernel virtual-function indirection.

GPUs do not share code across kernels, so the same virtual function
has a different instruction address in every kernel.  CUDA therefore
adds a layer of indirection (paper section 2): the global vTable entry
(operation B) yields an *offset into constant memory*, and a per-kernel
constant-memory table maps that offset to the function's address in
the running kernel's instruction memory.

The paper omits this load from Figure 1 because the table is small and
"fits in the dedicated constant memory cache and we did not observe it
to be a bottleneck."  We model it anyway -- a per-SM constant cache in
front of a per-kernel table -- so that claim is *checkable* (see
``benchmarks/test_ablation_constmem.py``): the constant load costs one
warp instruction per call and all but its first accesses hit.

Concord needs no per-kernel table (its call targets are direct), which
is part of its code-size-for-flexibility trade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class ConstantCacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class ConstantMemory:
    """Per-kernel constant tables plus a tiny per-SM constant cache.

    The cache is modelled at entry granularity: the first access to a
    (kernel, entry) pair on an SM misses; later ones hit.  Entry count
    is bounded; a full cache evicts nothing in practice because the
    tables are tiny (the point the paper makes).
    """

    #: entries one SM's constant cache holds (2KiB / 8B, V100-like)
    CACHE_ENTRIES = 256

    def __init__(self, num_sms: int):
        self.num_sms = num_sms
        self.stats = ConstantCacheStats()
        self._resident: Dict[int, set] = {sm: set() for sm in range(num_sms)}
        self._kernel_epoch = 0

    # ------------------------------------------------------------------
    def begin_kernel(self) -> None:
        """A new kernel binds a new constant table (cold caches)."""
        self._kernel_epoch += 1
        for sm in self._resident:
            self._resident[sm].clear()

    def access(self, sm: int, entry: int) -> bool:
        """One warp-converged constant load; returns True on a hit."""
        return self.access_warps((sm,), entry) == 1

    def access_warps(self, sms: Sequence[int], entry: int) -> int:
        """One warp-converged load of ``entry`` by each of several warps,
        given by their SMs; returns how many hit.

        Nothing is evicted within a kernel, so the hit count does not
        depend on the order the warps load in.
        """
        key = entry % self.CACHE_ENTRIES
        misses = 0
        for sm in set(sms):
            resident = self._resident[sm % self.num_sms]
            if key not in resident:
                resident.add(key)
                misses += 1
        hits = len(sms) - misses
        self.stats.accesses += len(sms)
        self.stats.hits += hits
        return hits

    def reset_stats(self) -> None:
        self.stats = ConstantCacheStats()
