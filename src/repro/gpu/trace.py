"""The memory-trace intermediate representation of the two-stage pipeline.

Execution is split into *capture* and *replay*: warps run functionally
and append their post-coalescing memory transactions to a
:class:`MemoryTrace` (one per warp), and a pluggable replay engine
(:mod:`repro.gpu.replay`) later pushes one whole wave of traces through
the cache/DRAM model in the round-robin interleave the simulator has
always used.

The trace is a struct-of-arrays record (DynaSOAr's layout lesson,
applied to the simulator itself): parallel numpy arrays of line
addresses and sector masks at transaction granularity, plus per-access
arrays (transaction count, store flag, role id) that preserve the
access boundaries the wave interleave is defined over.  Keeping the IR
columnar makes the replay engines able to batch, and makes a trace
hashable in one pass (the per-launch replay memo in
``repro.harness.runner``).
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..memory.address_space import PAGE_SIZE

#: popcount over the 16 possible 4-sector masks (indexable by mask).
POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)

# ----------------------------------------------------------------------
# role interning: traces store small integer ids, not strings
# ----------------------------------------------------------------------
_ROLE_IDS = {None: 0}
_ROLE_NAMES: List[Optional[str]] = [None]


def role_id(role: Optional[str]) -> int:
    """Intern a dispatch-role string (None -> 0); process-stable."""
    rid = _ROLE_IDS.get(role)
    if rid is None:
        rid = len(_ROLE_NAMES)
        _ROLE_IDS[role] = rid
        _ROLE_NAMES.append(role)
    return rid


def role_name(rid: int) -> Optional[str]:
    """Inverse of :func:`role_id`."""
    return _ROLE_NAMES[rid]


_U64_SECTOR = np.uint64(32)
_U64_SPL = np.uint64(4)          # sectors per 128B line
_U64_LINE = np.uint64(128)
_U64_PAGE = np.uint64(PAGE_SIZE)
#: single-sector bit per in-line sector index
_BIT4 = np.array([1, 2, 4, 8], dtype=np.uint8)
#: a lane batch packs each lane's wave-local warp above its sector (or
#: page) index; canonical addresses have 49 bits, so sectors have 44
_WARP_SHIFT = np.uint64(45)
_INDEX_MASK = np.uint64((1 << 45) - 1)


def _segments(keys: np.ndarray):
    """Split sorted warp-packed ``keys`` into per-warp runs: returns the
    runs' warps, their start offsets and the unpacked indices."""
    warps = keys >> _WARP_SHIFT
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(warps[1:], warps[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return warps[starts], starts, keys & _INDEX_MASK


class MemoryTrace:
    """Charged memory accesses in program order, one warp per frozen trace.

    A trace starts as a *capture buffer* and ends as *frozen* columns.
    The executor opens one buffer per wave: ``sm`` is the list of the
    wave's per-warp SMs, and every access names the wave-local warp it
    belongs to -- an int from a one-warp execution context, or a
    per-lane array from a lane batch, which records one access for each
    warp that has lanes in it.  A buffer built with a scalar ``sm`` holds
    the accesses of a single warp (warp 0).

    Capture is cheap on purpose: an access appends its lanes' raw
    sector indices (a couple of numpy ops; a lane batch also dedups per
    warp, so a wave of wide loads does not hold every lane's sectors)
    and coalescing is deferred to ``finalize``, which runs ONE segmented
    sort/dedup pass over the whole buffer instead of a ``np.unique`` per
    access -- the batched form of ``coalescing.coalesce``.  Finalize
    orders every warp's accesses in its program order, splits the
    result into one frozen trace per warp and settles the deferred
    counters (``global_*_transactions``, per-role sector attribution and
    TLB walks) into the launch's ``KernelStats``; totals are identical
    to charging per access, just accumulated once.

    Frozen columns:

    ``line``/``mask``
        per-transaction 128B line byte-address (uint64) and 4-sector
        bitmask (uint8), in coalescer order (ascending line) within
        each access;
    ``txn_count``/``txn_start``
        per-access transaction counts and exclusive-prefix offsets into
        the transaction arrays (CSR layout);
    ``store``/``role``
        per-access store flag (bool) and interned role id (int16);
    ``sm``
        the SM whose L1 this warp's traffic targets (scalar -- a warp
        never migrates).
    """

    __slots__ = (
        "sm", "line", "mask", "txn_count", "txn_start", "store", "role",
        "_tlb", "_sectors", "_warps", "_seclens", "_stores", "_roles",
        "_pages",
    )

    def __init__(self, sm, tlb=None):
        self.sm = sm
        self._tlb = tlb
        # capture buffers, one entry per (access, warp)
        self._sectors: List[np.ndarray] = []
        self._warps: List[int] = []
        self._seclens: List[int] = []
        self._stores: List[bool] = []
        self._roles: List[int] = []
        #: per-(access, warp) page numbers, kept only for the TLB probe
        self._pages: Optional[List[np.ndarray]] = (
            [] if tlb is not None else None)

    # ------------------------------------------------------------------
    def append_access(self, canonical: np.ndarray, width: int,
                      store: bool, rid: int, warp=0) -> None:
        """Record one charged access (canonical lane addresses).

        ``warp`` is the wave-local warp of every lane, or an array of
        each lane's warp (a lane batch, lanes in warp order).  A one-warp
        access is recorded even with no lanes, because its warp executed
        it; a batch records one access per warp that has lanes.
        """
        a = canonical.astype(np.uint64, copy=False)
        sectors = a // _U64_SECTOR
        straddle = False
        if width > 1:
            last = (a + np.uint64(width - 1)) // _U64_SECTOR
            if not (sectors == last).all():
                # accesses straddling a sector boundary touch both
                sectors = np.concatenate([sectors, last])
                straddle = True
        pages = self._pages
        if not isinstance(warp, np.ndarray):
            self._sectors.append(sectors)
            self._warps.append(warp)
            self._seclens.append(len(sectors))
            self._stores.append(store)
            self._roles.append(rid)
            if pages is not None:
                pages.append(a // _U64_PAGE)
            return
        if not len(a):
            return      # no warp has lanes in this batch
        lane_key = warp.astype(np.uint64) << _WARP_SHIFT
        key = np.concatenate([lane_key, lane_key]) if straddle else lane_key
        warps, starts, uniq = _segments(np.unique(key | sectors))
        n = len(warps)
        self._sectors.append(uniq)
        self._warps.extend(warps.tolist())
        self._seclens.extend(np.diff(starts, append=len(uniq)).tolist())
        self._stores.extend([store] * n)
        self._roles.extend([rid] * n)
        if pages is not None:
            _, pstarts, puniq = _segments(np.unique(lane_key | (a // _U64_PAGE)))
            pages.extend(np.split(puniq, pstarts[1:]))

    def finalize(self, stats=None):
        """Coalesce the capture buffer into per-warp columnar traces.

        A wave buffer returns one frozen trace per warp, in warp order,
        empty ones included; a one-warp buffer freezes in place and
        returns itself.  A TLB attached at construction is probed here,
        warp by warp in each warp's program order: the sequence the
        warps would probe it in running one after another.  When
        ``stats`` is given, also credits the deferred transaction
        counters (sector totals per access, split by store flag and
        role) and the TLB's page walks -- the batched equivalent of
        what the executor used to do per access.
        """
        warp = np.asarray(self._warps, dtype=np.int64)
        n_acc = len(warp)
        # each warp's accesses in its program order: one-warp contexts
        # append warp after warp, a lane batch interleaves them
        order = np.argsort(warp, kind="stable")
        warp = warp[order]
        store = np.asarray(self._stores, dtype=bool)[order]
        role = np.asarray(self._roles, dtype=np.int16)[order]
        lens = np.asarray(self._seclens, dtype=np.int64)
        total = int(lens.sum())
        if total == 0:
            line, mask = _EMPTY_U64, _EMPTY_U8
            txn_count = np.zeros(n_acc, dtype=np.int64)
            sec_per_acc = txn_count
        else:
            sectors = np.concatenate(self._sectors)
            rank = np.empty(n_acc, dtype=np.int64)
            rank[order] = np.arange(n_acc, dtype=np.int64)
            # sort sectors within each access, accesses in rank order
            # (the permuted rank column is then simply sorted)
            s_sorted = sectors[np.lexsort((sectors, np.repeat(rank, lens)))]
            acc = np.repeat(np.arange(n_acc, dtype=np.int64), lens[order])
            keep = np.empty(total, dtype=bool)
            keep[0] = True
            keep[1:] = (s_sorted[1:] != s_sorted[:-1]) | (acc[1:] != acc[:-1])
            sec_u = s_sorted[keep]
            acc_u = acc[keep]

            line_of = sec_u // _U64_SPL
            new_txn = np.empty(len(sec_u), dtype=bool)
            new_txn[0] = True
            new_txn[1:] = (line_of[1:] != line_of[:-1]) | (acc_u[1:] != acc_u[:-1])
            starts = np.flatnonzero(new_txn)
            line = line_of[starts] * _U64_LINE
            bits = _BIT4[(sec_u % _U64_SPL).astype(np.intp)]
            mask = np.bitwise_or.reduceat(bits, starts)
            txn_count = np.bincount(acc_u[starts], minlength=n_acc)
            sec_per_acc = np.bincount(acc_u, minlength=n_acc)
        txn_end = np.cumsum(txn_count)
        txn_start = txn_end - txn_count

        sms = self.sm if isinstance(self.sm, list) else [self.sm]
        if stats is not None:
            self._credit(stats, warp, store, role, sec_per_acc)
        if self._tlb is not None:
            walks = 0
            probe = self._tlb.probe_pages
            pages = self._pages
            for w, i in zip(warp.tolist(), order.tolist()):
                walks += probe(sms[w], pages[i])
            if stats is not None:
                stats.tlb_walks += walks

        self._release()
        if not isinstance(self.sm, list):
            self.line, self.mask = line, mask
            self.txn_count, self.txn_start = txn_count, txn_start
            self.store, self.role = store, role
            return self
        acc_bounds = np.searchsorted(warp, np.arange(len(sms) + 1)).tolist()
        txn_bounds = np.concatenate([[0], txn_end])[acc_bounds].tolist()
        traces = []
        for w, sm in enumerate(sms):
            a0, a1 = acc_bounds[w], acc_bounds[w + 1]
            t0, t1 = txn_bounds[w], txn_bounds[w + 1]
            traces.append(MemoryTrace.from_columns(
                sm, line[t0:t1], mask[t0:t1], txn_count[a0:a1],
                txn_start[a0:a1] - t0, store[a0:a1], role[a0:a1]))
        return traces

    @staticmethod
    def _credit(stats, warp, store, role, sec_per_acc) -> None:
        """Credit the transaction counters of accesses in warp order."""
        gst = int(sec_per_acc[store].sum())
        stats.global_store_transactions += gst
        stats.global_load_transactions += int(sec_per_acc.sum()) - gst
        loads = ~store & (role > 0) & (sec_per_acc > 0)
        if not loads.any():
            return
        rids = role[loads]
        by_role = np.bincount(rids, weights=sec_per_acc[loads])
        # a role enters the stats in the order sequential warps would
        # first credit it: by first warp, then by role id within it
        uniq, first = np.unique(rids, return_index=True)
        for rid in uniq[np.lexsort((uniq, warp[loads][first]))].tolist():
            stats.add_role_transactions(role_name(rid), int(by_role[rid]))

    def _release(self) -> None:
        self._sectors = self._warps = self._seclens = None
        self._stores = self._roles = self._pages = self._tlb = None

    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, sm: int, line, mask, txn_count, txn_start,
                     store, role) -> "MemoryTrace":
        """Build a finalized trace from its frozen columns.

        The arrays are adopted as-is (no copies, no dtype conversion):
        ``finalize`` splits a wave buffer into per-warp traces whose
        columns are slices of the wave's arrays.
        """
        t = cls.__new__(cls)
        t.sm = sm
        t.line = line
        t.mask = mask
        t.txn_count = txn_count
        t.txn_start = txn_start
        t.store = store
        t.role = role
        t._release()
        return t

    # ------------------------------------------------------------------
    @property
    def n_accesses(self) -> int:
        return len(self.txn_count)

    @property
    def n_txns(self) -> int:
        return len(self.line)

    @property
    def nbytes(self) -> int:
        """Bytes held by the frozen columns."""
        return (self.line.nbytes + self.mask.nbytes + self.txn_count.nbytes
                + self.txn_start.nbytes + self.store.nbytes
                + self.role.nbytes)

    def total_sectors(self) -> int:
        """Sector transactions across the whole trace."""
        return int(POPCOUNT4[self.mask].sum()) if self.n_txns else 0

    def digest_into(self, h) -> None:
        """Feed the trace's replay-relevant content into a hash object.

        Replay counters are a pure function of (line, mask, store, role,
        sm, access boundaries) plus the engine's prior state, so this is
        exactly the validator the launch memo chains over.
        """
        h.update(int(self.sm).to_bytes(4, "little"))
        h.update(int(self.n_accesses).to_bytes(8, "little"))
        h.update(self.line.tobytes())
        h.update(self.mask.tobytes())
        h.update(self.txn_count.tobytes())
        h.update(self.store.tobytes())
        h.update(self.role.tobytes())


def flatten_wave(traces: List[MemoryTrace]):
    """Expand one wave of traces into flat per-transaction arrays in the
    round-robin replay order.

    The wave interleave services access ``r`` of every warp (in warp
    order) before access ``r+1`` of any warp -- the invariant DESIGN.md
    section 5 calls load-bearing.  Returns ``None`` when the wave did no
    memory work, else a tuple of per-transaction arrays
    ``(line, mask, sm, store, role, nsec)`` ordered exactly as the
    reference replay would visit them.
    """
    live = [t for t in traces if t.n_accesses]
    if not live:
        return None
    n_acc = np.array([t.n_accesses for t in live], dtype=np.int64)
    total_acc = int(n_acc.sum())
    # per-access columns, concatenated in warp order; the access index
    # within each warp is a repeat/arange difference, not per-trace
    # aranges (this function runs once per replayed wave)
    acc_base = np.concatenate([[0], np.cumsum(n_acc)])[:-1]
    idx_within = np.arange(total_acc, dtype=np.int64) - np.repeat(
        acc_base, n_acc)
    counts = np.concatenate([t.txn_count for t in live])
    txn_base = np.concatenate(
        [[0], np.cumsum(np.array([t.n_txns for t in live], dtype=np.int64))]
    )[:-1]
    starts = np.concatenate([t.txn_start for t in live])
    starts = starts + np.repeat(txn_base, n_acc)
    stores = np.concatenate([t.store for t in live])
    roles = np.concatenate([t.role for t in live])
    sms = np.repeat(np.array([t.sm for t in live], dtype=np.int64), n_acc)
    line_all = np.concatenate([t.line for t in live])
    mask_all = np.concatenate([t.mask for t in live])

    # round-robin: sort by access index, stable within (preserves warp
    # order for equal rounds); int16 keys take numpy's radix path when
    # the deepest warp allows it
    if int(n_acc.max()) <= 32767:
        order = np.argsort(idx_within.astype(np.int16), kind="stable")
    else:
        order = np.argsort(idx_within, kind="stable")
    counts_o = counts[order]

    # CSR expansion: transaction gather index per interleaved access
    total = int(counts_o.sum())
    if total == 0:
        return None
    ends = np.cumsum(counts_o)
    offs = ends - counts_o
    gidx = np.arange(total, dtype=np.int64) + np.repeat(
        starts[order] - offs, counts_o)
    line = line_all[gidx]
    mask = mask_all[gidx]
    sm = np.repeat(sms[order], counts_o)
    store = np.repeat(stores[order], counts_o)
    role = np.repeat(roles[order], counts_o)
    nsec = POPCOUNT4[mask]
    return line, mask, sm, store, role, nsec
