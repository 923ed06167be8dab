"""Pluggable replay engines: stage two of the capture -> replay pipeline.

A :class:`ReplayEngine` consumes one wave of :class:`MemoryTrace`
records (see :mod:`repro.gpu.trace`) and charges their cache/DRAM
effects into a :class:`KernelStats`.  Two implementations are kept
and cross-validated against each other (``tests/test_replay_engines.py``
asserts bit-identical counters and cache state):

``ReferenceEngine``
    the historical semantics, verbatim: the dict-based
    :class:`~repro.gpu.cache.SectoredCache` hierarchy driven one
    transaction at a time in the wave's round-robin interleave.  This
    is the executable specification.

``VectorEngine``
    the fast engine.  The wave is flattened into struct-of-arrays form
    up front (``trace.flatten_wave``): interleave scheduling, set/tag
    decomposition, sector popcounts and per-role attribution are all
    batched numpy work, and DRAM row-buffer accounting is vectorized
    per bank after the fact.  Only the order-dependent cache state
    transitions remain sequential: one tight loop over the wave's
    transactions, in which every set is a dict ``tag -> sector mask``
    kept in LRU order (least recently used first).  The reference
    stamps each line with a clock that rises on every access to its
    cache and evicts the set's minimum stamp; re-inserting a line on
    each stamp update keeps a set's dict order equal to its stamp
    order, so evicting the first key evicts the same line.

Engine choice comes from ``GPUConfig.replay_engine`` and can be forced
globally with the ``REPRO_REPLAY_ENGINE`` environment variable.
Unknown names raise :class:`~repro.errors.UnknownEngineError` with
did-you-mean hints, same UX as unknown techniques.
"""
from __future__ import annotations

import difflib
import os
from typing import List, Protocol

import numpy as np

from ..errors import UnknownEngineError
from .cache import MemoryHierarchy
from .config import GPUConfig
from .dram import account_rows
from .stats import KernelStats
from .trace import MemoryTrace, POPCOUNT4, flatten_wave, role_name

#: engine names accepted by GPUConfig.replay_engine / REPRO_REPLAY_ENGINE
ENGINES = ("reference", "vector")

#: environment override checked at machine construction
ENGINE_ENV_VAR = "REPRO_REPLAY_ENGINE"


def _unknown_engine(name: str) -> UnknownEngineError:
    hints = difflib.get_close_matches(name, ENGINES, n=3, cutoff=0.5)
    return UnknownEngineError(name, known=ENGINES, hints=hints)


class ReplayEngine(Protocol):
    """Stage-two contract: replay one wave of traces into stats.

    Engines own whatever cache/DRAM state they need and keep it across
    launches (real GPUs do not flush caches between kernels); the
    machine constructs one engine and reuses it for its lifetime.
    """

    name: str

    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        """Charge one wave's memory traffic into ``stats``."""


def resolve_engine_name(config: GPUConfig) -> str:
    """Engine selection: env var beats config; validates the name."""
    name = os.environ.get(ENGINE_ENV_VAR) or config.replay_engine
    if name not in ENGINES:
        raise _unknown_engine(name)
    return name


def make_engine(name: str, config: GPUConfig,
                hierarchy: MemoryHierarchy) -> "ReplayEngine":
    """Construct the named engine against one machine's hierarchy/config."""
    if name == "reference":
        return ReferenceEngine(hierarchy)
    if name == "vector":
        return VectorEngine(config)
    raise _unknown_engine(name)


# ----------------------------------------------------------------------
# reference engine
# ----------------------------------------------------------------------
class ReferenceEngine:
    """The executable specification: dict-based caches, access at a time."""

    name = "reference"

    def __init__(self, hierarchy: MemoryHierarchy):
        self.hierarchy = hierarchy

    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        hier = self.hierarchy
        cursors = [0] * len(traces)
        remaining = sum(t.n_accesses for t in traces)
        while remaining:
            for i, t in enumerate(traces):
                c = cursors[i]
                if c >= t.n_accesses:
                    continue
                cursors[i] = c + 1
                remaining -= 1
                s = t.txn_start[c]
                e = s + t.txn_count[c]
                lines = t.line[s:e].tolist()
                masks = t.mask[s:e].tolist()
                sm = t.sm
                role = role_name(int(t.role[c]))
                if t.store[c]:
                    rm0 = hier.dram_row_misses
                    for line, m in zip(lines, masks):
                        hier.store(sm, line, m)
                    stats.dram_row_misses += hier.dram_row_misses - rm0
                    continue
                for line, m in zip(lines, masks):
                    n_sec = int(POPCOUNT4[m])
                    rm0 = hier.dram_row_misses
                    l1_hits, l2_hits, dram = hier.load(sm, line, m)
                    stats.l1_accesses += n_sec
                    stats.l1_hits += l1_hits
                    stats.l2_accesses += n_sec - l1_hits
                    stats.l2_hits += l2_hits
                    stats.dram_accesses += dram
                    stats.dram_row_misses += hier.dram_row_misses - rm0
                    stats.add_role_levels(role, l1_hits, l2_hits, dram)


# ----------------------------------------------------------------------
# vector engine
# ----------------------------------------------------------------------
class VectorEngine:
    """Array-flattened replay over dict-ordered LRU sets."""

    name = "vector"

    def __init__(self, config: GPUConfig):
        self.config = config
        g1, g2 = config.l1, config.l2
        self.num_sms = config.num_sms
        self._l1_line_bytes = g1.line_bytes
        self._l1_nsets = g1.num_sets
        self._l1_assoc = g1.assoc
        self._l2_line_bytes = g2.line_bytes
        self._l2_nsets = g2.num_sets
        self._l2_assoc = g2.assoc
        #: the L1 sets of every SM, SM-major (SM ``s``'s set ``k`` is
        #: ``_l1[s * num_sets + k]``), then the L2 sets; each a dict
        #: ``tag -> sector mask`` in LRU order, least recent first
        self._l1 = [dict() for _ in range(self.num_sms * self._l1_nsets)]
        self._l2 = [dict() for _ in range(self._l2_nsets)]
        # DRAM row-buffer state (per bank), as the hierarchy keeps it
        self._row_bytes = config.dram_row_bytes
        self._num_banks = config.dram_num_banks
        self._open_rows = {}
        self.dram_row_hits = 0

    # ------------------------------------------------------------------
    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        flat = flatten_wave(traces)
        if flat is None:
            return
        line, mask, sm, store, role, nsec = flat
        n = len(line)

        # batched set/tag decomposition for both levels
        l1_line_no = (line // np.uint64(self._l1_line_bytes)).astype(np.int64)
        l1_key = ((sm % self.num_sms) * self._l1_nsets
                  + l1_line_no % self._l1_nsets)
        l1_tag = l1_line_no // self._l1_nsets
        l2_line_no = (line // np.uint64(self._l2_line_bytes)).astype(np.int64)
        l2_set = l2_line_no % self._l2_nsets
        l2_tag = l2_line_no // self._l2_nsets

        # the sequential core records only each transaction's L1 and
        # L2 miss masks (0 when it never reached that miss) and which
        # transactions reached DRAM, in service order -- loads and
        # stores interleaved exactly as the reference visits them
        miss1 = [0] * n
        miss2 = [0] * n
        row_lines: List[int] = []
        l1_sets = self._l1
        l2_sets = self._l2
        l1_assoc = self._l1_assoc
        l2_assoc = self._l2_assoc
        for i, m, st, k1, t1, k2, t2 in zip(
                range(n), mask.tolist(), store.tolist(), l1_key.tolist(),
                l1_tag.tolist(), l2_set.tolist(), l2_tag.tolist()):
            d = l1_sets[k1]
            if st:
                # write-through L1: a hit takes the sectors in place
                # (no recency update), a miss does not allocate
                v = d.get(t1)
                if v is not None:
                    d[t1] = v | m
            else:
                v = d.pop(t1, None)
                if v is None:
                    if len(d) >= l1_assoc:
                        del d[next(iter(d))]
                    d[t1] = m
                else:
                    d[t1] = v | m
                    m &= ~v
                    if not m:
                        continue
                miss1[i] = m
            # L2 (allocate) -- l1 misses of loads, all stores
            d = l2_sets[k2]
            v = d.pop(t2, None)
            if v is None:
                if len(d) >= l2_assoc:
                    del d[next(iter(d))]
                d[t2] = m
            else:
                d[t2] = v | m
                m &= ~v
                if not m:
                    continue
            miss2[i] = m
            row_lines.append(i)

        # ------------------------------------------------------------------
        # vectorized DRAM row-buffer accounting over the miss stream
        # ------------------------------------------------------------------
        if row_lines:
            hits, misses = account_rows(
                line[np.asarray(row_lines, dtype=np.int64)],
                self._row_bytes, self._num_banks, self._open_rows,
            )
            stats.dram_row_misses += misses
            self.dram_row_hits += hits

        # ------------------------------------------------------------------
        # bulk counter accumulation (loads only, like the reference)
        # ------------------------------------------------------------------
        is_load = ~store
        load_roles = role[is_load]
        if not len(load_roles):
            return
        l1_acc = nsec[is_load]
        l2_acc = POPCOUNT4[np.asarray(miss1, dtype=np.int64)[is_load]]
        dram = POPCOUNT4[np.asarray(miss2, dtype=np.int64)[is_load]]
        l1h = l1_acc - l2_acc
        l2h = l2_acc - dram
        n_l1, n_l2 = int(l1_acc.sum()), int(l2_acc.sum())
        stats.l1_accesses += n_l1
        stats.l1_hits += n_l1 - n_l2
        stats.l2_accesses += n_l2
        stats.l2_hits += int(l2h.sum())
        stats.dram_accesses += int(dram.sum())

        # per-role L1/L2/DRAM attribution
        minlength = int(load_roles.max()) + 1
        by_l1 = np.bincount(load_roles, weights=l1h, minlength=minlength)
        by_l2 = np.bincount(load_roles, weights=l2h, minlength=minlength)
        by_dr = np.bincount(load_roles, weights=dram, minlength=minlength)
        present = np.bincount(load_roles, minlength=minlength)
        for rid in np.flatnonzero(present).tolist():
            if rid == 0:
                continue  # role None is never attributed
            stats.add_role_levels(
                role_name(rid), int(by_l1[rid]), int(by_l2[rid]),
                int(by_dr[rid]),
            )
